//! BRITE-style network topology generation (Section III.2.2).
//!
//! The paper uses BRITE to connect the generated clusters: nodes placed
//! in a plane, edges created either by the Waxman probability model or by
//! Barabási–Albert preferential attachment (the power-law option), with
//! an optional two-level hierarchy (AS level + router level). Links get
//! capacities from current technology classes (OC3 … 10 G).
//!
//! For scheduling we need, per cluster pair, an *achievable bandwidth*
//! and a latency. Following common practice for capacity-planning
//! models, we use the widest-path (maximum-bottleneck) bandwidth, which
//! equals the minimum link capacity along the path between the two nodes
//! in a maximum spanning tree of the link-capacity graph; latency is
//! accumulated along the same tree path. (BRITE itself does not model
//! contention; Section III.2.2 argues the reference-bandwidth/CCR
//! parameterization subsumes contention.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Link capacity classes (bits per second), Section II/III: OC3, OC12,
/// OC48, 1 Gb, 10 Gb.
pub const LINK_CLASSES_BPS: [f64; 5] = [155.52e6, 622.08e6, 2.488e9, 1e9, 10e9];

/// Edge creation model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeModel {
    /// Waxman: connect u,v with probability `a·exp(−d(u,v)/(b·L))`.
    Waxman,
    /// Barabási–Albert preferential attachment with `m` links per new
    /// node (the power-law degree option).
    BarabasiAlbert,
    /// Two-level top-down hierarchy: a small Waxman AS-level graph, each
    /// AS holding a Waxman router-level subgraph.
    Hierarchical,
}

/// Topology generator parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologySpec {
    /// Number of nodes (one per cluster when merged into a platform).
    pub nodes: usize,
    /// Edge creation model.
    pub model: EdgeModel,
    /// Waxman `a` (edge probability scale), typical 0.15–0.3.
    pub waxman_alpha: f64,
    /// Waxman `b` (distance decay), typical 0.1–0.2.
    pub waxman_beta: f64,
    /// Links per node for Barabási–Albert.
    pub ba_links: usize,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            nodes: 1000,
            model: EdgeModel::Waxman,
            waxman_alpha: 0.25,
            waxman_beta: 0.15,
            ba_links: 2,
        }
    }
}

/// A generated topology with per-cluster-pair bandwidth/latency oracles.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: usize,
    /// Parent pointers of the maximum-capacity spanning tree, rooted at 0.
    tree_parent: Vec<u32>,
    /// Capacity of the tree edge to the parent (bps); root entry unused.
    tree_cap: Vec<f64>,
    /// Latency of the tree edge to the parent (ms); root entry unused.
    tree_lat: Vec<f64>,
    /// Depth of each node in the tree.
    depth: Vec<u32>,
}

impl TopologySpec {
    /// Generates a topology. Deterministic for a `(spec, seed)` pair.
    pub fn generate(&self, seed: u64) -> Topology {
        assert!(self.nodes >= 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.nodes;

        // Node placement in the unit square (used by Waxman distance and
        // latency assignment).
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)))
            .collect();

        // Raw edge list (u, v, capacity, latency_ms).
        let mut edges: Vec<(u32, u32, f64, f64)> = Vec::new();
        match self.model {
            EdgeModel::Waxman => {
                self.waxman_edges(&pos, 0..n, &mut edges, &mut rng);
            }
            EdgeModel::BarabasiAlbert => {
                self.ba_edges(&pos, &mut edges, &mut rng);
            }
            EdgeModel::Hierarchical => {
                // Partition nodes into sqrt(n) ASes; Waxman within each
                // AS; one representative per AS joined by a Waxman AS
                // graph with high-capacity links.
                let as_count = ((n as f64).sqrt().ceil() as usize).max(1);
                let per = n.div_ceil(as_count);
                let mut reps = Vec::new();
                for a in 0..as_count {
                    let lo = a * per;
                    let hi = ((a + 1) * per).min(n);
                    if lo >= hi {
                        break;
                    }
                    reps.push(lo);
                    self.waxman_edges(&pos, lo..hi, &mut edges, &mut rng);
                }
                // AS backbone: ring + random chords of top capacity.
                for w in 0..reps.len() {
                    let u = reps[w] as u32;
                    let v = reps[(w + 1) % reps.len()] as u32;
                    if u != v {
                        let lat = dist(&pos, u as usize, v as usize) * 30.0;
                        edges.push((u, v, 10e9, lat));
                    }
                }
            }
        }

        // Guarantee connectivity: chain any component gaps along node
        // order with a modest link.
        let tree = maximum_spanning_tree(n, &mut edges, &pos);
        Topology {
            nodes: n,
            tree_parent: tree.0,
            tree_cap: tree.1,
            tree_lat: tree.2,
            depth: tree.3,
        }
    }

    fn waxman_edges<R: Rng>(
        &self,
        pos: &[(f64, f64)],
        range: std::ops::Range<usize>,
        edges: &mut Vec<(u32, u32, f64, f64)>,
        rng: &mut R,
    ) {
        let l = std::f64::consts::SQRT_2; // max distance in unit square
        let nodes: Vec<usize> = range.collect();
        for (i, &u) in nodes.iter().enumerate() {
            for &v in nodes.iter().skip(i + 1) {
                let d = dist(pos, u, v);
                let p = self.waxman_alpha * (-d / (self.waxman_beta * l)).exp();
                if rng.gen_range(0.0..1.0) < p {
                    edges.push((u as u32, v as u32, sample_capacity(rng), d * 30.0));
                }
            }
        }
    }

    fn ba_edges<R: Rng>(
        &self,
        pos: &[(f64, f64)],
        edges: &mut Vec<(u32, u32, f64, f64)>,
        rng: &mut R,
    ) {
        let n = pos.len();
        let m = self.ba_links.max(1);
        // Degree-proportional target sampling via an endpoint pool.
        let mut pool: Vec<u32> = Vec::with_capacity(n * m * 2);
        pool.push(0);
        for v in 1..n {
            let links = m.min(v);
            let mut targets: Vec<u32> = Vec::with_capacity(links);
            while targets.len() < links {
                let t = pool[rng.gen_range(0..pool.len())];
                if t != v as u32 && !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for t in targets {
                let d = dist(pos, v, t as usize);
                edges.push((v as u32, t, sample_capacity(rng), d * 30.0));
                pool.push(t);
                pool.push(v as u32);
            }
        }
    }
}

fn dist(pos: &[(f64, f64)], u: usize, v: usize) -> f64 {
    let (x1, y1) = pos[u];
    let (x2, y2) = pos[v];
    ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt()
}

/// Capacities skewed toward the faster classes (backbone-ish mix).
fn sample_capacity<R: Rng>(rng: &mut R) -> f64 {
    match rng.gen_range(0.0..1.0) {
        x if x < 0.10 => LINK_CLASSES_BPS[0], // OC3
        x if x < 0.25 => LINK_CLASSES_BPS[1], // OC12
        x if x < 0.45 => LINK_CLASSES_BPS[3], // 1G
        x if x < 0.75 => LINK_CLASSES_BPS[2], // OC48
        _ => LINK_CLASSES_BPS[4],             // 10G
    }
}

/// Kruskal maximum spanning tree over the capacity graph; pads with
/// fallback links so the result always spans all nodes. Returns parent /
/// capacity-to-parent / latency-to-parent / depth arrays rooted at 0.
fn maximum_spanning_tree(
    n: usize,
    edges: &mut [(u32, u32, f64, f64)],
    pos: &[(f64, f64)],
) -> (Vec<u32>, Vec<f64>, Vec<f64>, Vec<u32>) {
    edges.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    let mut dsu: Vec<u32> = (0..n as u32).collect();
    fn find(dsu: &mut [u32], x: u32) -> u32 {
        let mut r = x;
        while dsu[r as usize] != r {
            dsu[r as usize] = dsu[dsu[r as usize] as usize];
            r = dsu[r as usize];
        }
        r
    }
    let mut adj: Vec<Vec<(u32, f64, f64)>> = vec![Vec::new(); n];
    let mut joined = 1usize;
    for &(u, v, cap, lat) in edges.iter() {
        let (ru, rv) = (find(&mut dsu, u), find(&mut dsu, v));
        if ru != rv {
            dsu[ru as usize] = rv;
            adj[u as usize].push((v, cap, lat));
            adj[v as usize].push((u, cap, lat));
            joined += 1;
            if joined == n {
                break;
            }
        }
    }
    // Connect any remaining components with fallback OC3 links in node
    // order (keeps the oracle total even for sparse Waxman draws).
    for v in 1..n as u32 {
        if find(&mut dsu, v) != find(&mut dsu, 0) {
            let r = find(&mut dsu, v);
            let rr = find(&mut dsu, 0);
            dsu[r as usize] = rr;
            let lat = dist(pos, 0, v as usize) * 30.0;
            adj[0].push((v, LINK_CLASSES_BPS[0], lat));
            adj[v as usize].push((0, LINK_CLASSES_BPS[0], lat));
        }
    }

    // BFS from node 0 to build parent arrays.
    let mut parent = vec![u32::MAX; n];
    let mut cap_to_parent = vec![f64::INFINITY; n];
    let mut lat_to_parent = vec![0.0f64; n];
    let mut depth = vec![0u32; n];
    let mut queue = vec![0u32];
    parent[0] = 0;
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &(v, cap, lat) in &adj[u as usize] {
            if parent[v as usize] == u32::MAX {
                parent[v as usize] = u;
                cap_to_parent[v as usize] = cap;
                lat_to_parent[v as usize] = lat;
                depth[v as usize] = depth[u as usize] + 1;
                queue.push(v);
            }
        }
    }
    debug_assert_eq!(queue.len(), n, "spanning tree must reach every node");
    (parent, cap_to_parent, lat_to_parent, depth)
}

impl Topology {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// True when the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Achievable (bottleneck) bandwidth between two nodes, bps.
    /// `u == v` returns the intra-cluster reference bandwidth.
    pub fn bandwidth_bps(&self, u: usize, v: usize) -> f64 {
        if u == v {
            return crate::REFERENCE_BANDWIDTH_BPS;
        }
        self.path_fold(u, v, f64::INFINITY, |acc, cap, _| acc.min(cap))
            .min(crate::REFERENCE_BANDWIDTH_BPS)
    }

    /// Accumulated latency between two nodes, milliseconds.
    pub fn latency_ms(&self, u: usize, v: usize) -> f64 {
        if u == v {
            return 0.05; // LAN
        }
        self.path_fold(u, v, 0.0, |acc, _, lat| acc + lat)
    }

    /// Folds `f(acc, capacity, latency)` over the tree path `u..v`.
    fn path_fold(&self, u: usize, v: usize, init: f64, f: impl Fn(f64, f64, f64) -> f64) -> f64 {
        let mut a = u;
        let mut b = v;
        let mut acc = init;
        while self.depth[a] > self.depth[b] {
            acc = f(acc, self.tree_cap[a], self.tree_lat[a]);
            a = self.tree_parent[a] as usize;
        }
        while self.depth[b] > self.depth[a] {
            acc = f(acc, self.tree_cap[b], self.tree_lat[b]);
            b = self.tree_parent[b] as usize;
        }
        while a != b {
            acc = f(acc, self.tree_cap[a], self.tree_lat[a]);
            acc = f(acc, self.tree_cap[b], self.tree_lat[b]);
            a = self.tree_parent[a] as usize;
            b = self.tree_parent[b] as usize;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connected_for_all_models() {
        for model in [
            EdgeModel::Waxman,
            EdgeModel::BarabasiAlbert,
            EdgeModel::Hierarchical,
        ] {
            let t = TopologySpec {
                nodes: 200,
                model,
                ..Default::default()
            }
            .generate(1);
            for v in [1usize, 50, 199] {
                assert!(t.bandwidth_bps(0, v) > 0.0, "{model:?}");
                assert!(t.bandwidth_bps(0, v).is_finite(), "{model:?}");
            }
        }
    }

    #[test]
    fn bandwidth_symmetric() {
        let t = TopologySpec {
            nodes: 100,
            ..Default::default()
        }
        .generate(3);
        for (u, v) in [(0usize, 99usize), (10, 20), (5, 55)] {
            assert_eq!(t.bandwidth_bps(u, v), t.bandwidth_bps(v, u));
            assert!((t.latency_ms(u, v) - t.latency_ms(v, u)).abs() < 1e-12);
        }
    }

    #[test]
    fn self_bandwidth_is_reference() {
        let t = TopologySpec::default().generate(7);
        assert_eq!(t.bandwidth_bps(4, 4), crate::REFERENCE_BANDWIDTH_BPS);
        assert!(t.latency_ms(4, 4) < 1.0);
    }

    #[test]
    fn capacities_are_valid_classes() {
        let t = TopologySpec {
            nodes: 50,
            ..Default::default()
        }
        .generate(9);
        for v in 1..50 {
            let c = t.tree_cap[v];
            assert!(
                LINK_CLASSES_BPS.contains(&c),
                "capacity {c} is not a link class"
            );
        }
    }

    #[test]
    fn latency_triangle_plausible() {
        // Tree-path latency: lat(u,w) <= lat(u,v) + lat(v,w) holds with
        // equality when v is on the path; just sanity check positivity
        // and magnitude (< 200 ms for a unit-square WAN).
        let t = TopologySpec {
            nodes: 300,
            ..Default::default()
        }
        .generate(11);
        let l = t.latency_ms(0, 299);
        assert!(l > 0.0 && l < 2000.0, "latency {l}");
    }

    #[test]
    fn deterministic() {
        let spec = TopologySpec {
            nodes: 64,
            ..Default::default()
        };
        let a = spec.generate(5);
        let b = spec.generate(5);
        assert_eq!(a.bandwidth_bps(3, 60), b.bandwidth_bps(3, 60));
    }

    #[test]
    fn single_node_topology() {
        let t = TopologySpec {
            nodes: 1,
            ..Default::default()
        }
        .generate(0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.bandwidth_bps(0, 0), crate::REFERENCE_BANDWIDTH_BPS);
    }
}
