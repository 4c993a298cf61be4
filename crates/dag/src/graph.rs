//! Immutable weighted-DAG representation and its builder.
//!
//! A [`Dag`] is the `(V, E)` task graph of Section III.1.1: nodes carry a
//! computational cost `w_v` (seconds on a reference CPU), edges carry a
//! communication cost `w_c` (seconds at the reference bandwidth). Levels
//! are defined as the length, in nodes, of the longest path from an entry
//! node; they are computed once at build time together with a topological
//! order, so that schedulers and the statistics module can query them in
//! O(1).

use std::fmt;
use std::sync::OnceLock;

use crate::critical::{self, CriticalPathInfo};

/// Identifier of a task inside one [`Dag`]. Dense, `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A directed, weighted dependency: data produced by one task and
/// consumed by another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// The task on the other side of the edge (parent or child depending
    /// on which adjacency list the edge was taken from).
    pub task: TaskId,
    /// Transfer cost in seconds at the reference bandwidth.
    pub comm: f64,
}

/// Errors reported by [`DagBuilder`] and [`RawDag::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DagError {
    /// An edge referenced a task id that was never added.
    UnknownTask(TaskId),
    /// A self-dependency was requested.
    SelfEdge(TaskId),
    /// The same (parent, child) pair was added twice.
    DuplicateEdge(TaskId, TaskId),
    /// The edge set contains a cycle, so the graph is not a DAG.
    Cycle,
    /// The graph has no tasks at all.
    Empty,
    /// A task or edge cost was negative or non-finite.
    InvalidCost(f64),
    /// The reference clock (MHz) was not a positive finite number.
    InvalidRefClock(f64),
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownTask(t) => write!(f, "unknown task {t}"),
            DagError::SelfEdge(t) => write!(f, "self edge on {t}"),
            DagError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            DagError::Cycle => write!(f, "graph contains a cycle"),
            DagError::Empty => write!(f, "graph has no tasks"),
            DagError::InvalidCost(c) => write!(f, "invalid cost {c}"),
            DagError::InvalidRefClock(c) => write!(f, "invalid reference clock {c} MHz"),
        }
    }
}

impl std::error::Error for DagError {}

/// True for a usable task or edge cost: finite and not negative.
fn valid_cost(c: f64) -> bool {
    c.is_finite() && c >= 0.0
}

/// The structural defect of edge `p -> c` among `n` tasks, if any.
fn edge_defect(n: usize, p: u32, c: u32) -> Option<DagError> {
    if p as usize >= n {
        Some(DagError::UnknownTask(TaskId(p)))
    } else if c as usize >= n {
        Some(DagError::UnknownTask(TaskId(c)))
    } else {
        (p == c).then_some(DagError::SelfEdge(TaskId(p)))
    }
}

/// The parts of a DAG before any structural validation: task costs and
/// edges exactly as given, including cycles, dangling endpoints and
/// non-finite costs that [`RawDag::build`] rejects. The text reader
/// ([`crate::io::read_dag_raw`]) and [`DagBuilder`] both produce one;
/// static analysis (`rsg-analyze`) turns its [`RawDag::check`] defects
/// into diagnostics instead of hard errors.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawDag {
    /// `name` directive, if present.
    pub name: String,
    /// `refclock` directive, if present; [`crate::REFERENCE_CLOCK_MHZ`]
    /// otherwise.
    pub ref_clock_mhz: Option<f64>,
    /// Task costs by dense id (index = task id).
    pub tasks: Vec<f64>,
    /// `(parent, child, cost)` edges exactly as written; endpoints may
    /// be out of range.
    pub edges: Vec<(u32, u32, f64)>,
}

/// Every defect one validating pass over a [`RawDag`] finds, plus the
/// child adjacency, topological order and levels that pass computes
/// over the well-formed edges (in-range, non-self; duplicates and bad
/// costs included).
#[derive(Debug, Clone)]
pub struct DagCheck {
    /// Edge defects as `(edge index, defect)`, in edge order. An edge has
    /// at most one of `UnknownTask`, `SelfEdge` and `DuplicateEdge` (a
    /// repeat of an earlier pair), and `InvalidCost` when its
    /// communication cost is negative or non-finite.
    pub edges: Vec<(usize, DagError)>,
    /// Tasks whose computation cost is negative or non-finite, as
    /// `(task id, cost)` in id order.
    pub tasks: Vec<(u32, f64)>,
    /// Tasks Kahn's algorithm cannot place over the well-formed edges —
    /// a superset of every cycle — in id order. Empty when acyclic.
    pub cycle: Vec<u32>,
    /// The reference clock, when it is not a positive finite number.
    pub ref_clock: Option<f64>,
    children: Csr,
    topo: Vec<TaskId>,
    level: Vec<u32>,
    level_sizes: Vec<u32>,
}

impl DagCheck {
    /// The widest level's population, when the well-formed edges are
    /// acyclic and there is at least one task.
    pub fn width(&self) -> Option<u32> {
        self.level_sizes.iter().copied().max()
    }

    /// The error [`RawDag::build`] reports, with the index of the edge
    /// it concerns: edge-level defects in edge order, then an empty
    /// graph, a bad task cost, a duplicate edge, a cycle and a bad
    /// reference clock.
    pub fn first_error(&self) -> Option<(DagError, Option<usize>)> {
        let on_edge = |dup: bool| {
            self.edges
                .iter()
                .find(|(_, e)| matches!(e, DagError::DuplicateEdge(..)) == dup)
                .map(|&(i, e)| (e, Some(i)))
        };
        on_edge(false)
            .or_else(|| self.level.is_empty().then_some((DagError::Empty, None)))
            .or_else(|| {
                self.tasks
                    .first()
                    .map(|&(_, c)| (DagError::InvalidCost(c), None))
            })
            .or_else(|| on_edge(true))
            .or_else(|| (!self.cycle.is_empty()).then_some((DagError::Cycle, None)))
            .or_else(|| Some((DagError::InvalidRefClock(self.ref_clock?), None)))
    }
}

impl RawDag {
    /// One validating pass that records every defect instead of
    /// stopping at the first (see [`DagCheck`]).
    pub fn check(&self) -> DagCheck {
        let n = self.tasks.len();
        let mut edges = Vec::new();
        for (i, &(p, c, w)) in self.edges.iter().enumerate() {
            edges.extend(edge_defect(n, p, c).map(|e| (i, e)));
            if !valid_cost(w) {
                edges.push((i, DagError::InvalidCost(w)));
            }
        }
        let well_formed = (0..self.edges.len()).filter(|&i| {
            let (p, c, _) = self.edges[i];
            edge_defect(n, p, c).is_none()
        });
        let (children, slots) = self.adjacency(well_formed, |&(p, c, _)| (p, c));

        // Duplicates: a child id already stamped with the current parent.
        let mut stamp = vec![usize::MAX; n];
        for p in 0..n {
            let row = children.off[p]..children.off[p + 1];
            for (e, &i) in children.edges[row.clone()].iter().zip(&slots[row]) {
                if stamp[e.task.index()] == p {
                    let dup = DagError::DuplicateEdge(TaskId(p as u32), e.task);
                    edges.push((i as usize, dup));
                }
                stamp[e.task.index()] = p;
            }
        }
        edges.sort_by_key(|&(i, _)| i);

        // Kahn's algorithm: topological order, levels (longest path in
        // nodes from an entry node; entries are level 0, Section
        // III.1.1) and cycle detection.
        let mut indeg = vec![0u32; n];
        for e in &children.edges {
            indeg[e.task.index()] += 1;
        }
        let mut topo: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        let mut level = vec![0u32; n];
        let mut head = 0;
        while head < topo.len() {
            let t = topo[head].index();
            head += 1;
            for e in children.row(t) {
                let c = e.task.index();
                level[c] = level[c].max(level[t] + 1);
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    topo.push(e.task);
                }
            }
        }
        let cycle: Vec<u32> = (0..n as u32).filter(|&t| indeg[t as usize] > 0).collect();
        let mut level_sizes = Vec::new();
        if cycle.is_empty() {
            level_sizes = vec![0u32; level.iter().max().map_or(0, |&l| l as usize + 1)];
            for &l in &level {
                level_sizes[l as usize] += 1;
            }
        }

        DagCheck {
            edges,
            tasks: (0..n as u32)
                .map(|t| (t, self.tasks[t as usize]))
                .filter(|&(_, c)| !valid_cost(c))
                .collect(),
            cycle,
            ref_clock: self
                .ref_clock_mhz
                .filter(|&mhz| !(mhz.is_finite() && mhz > 0.0)),
            children,
            topo,
            level,
            level_sizes,
        }
    }

    /// Validates the parts and builds the [`Dag`], returning the first
    /// defect [`DagCheck::first_error`] names if any.
    pub fn build(&self) -> Result<Dag, DagError> {
        self.build_located().map_err(|(e, _)| e)
    }

    /// [`RawDag::build`], with the index of the edge an error concerns.
    pub(crate) fn build_located(&self) -> Result<Dag, (DagError, Option<usize>)> {
        let check = self.check();
        if let Some(e) = check.first_error() {
            return Err(e);
        }
        let (parents, _) = self.adjacency(0..self.edges.len(), |&(p, c, _)| (c, p));
        Ok(Dag {
            comp: self.tasks.clone(),
            parents,
            children: check.children,
            topo: check.topo,
            level: check.level,
            level_sizes: check.level_sizes,
            name: self.name.clone(),
            ref_clock_mhz: self.ref_clock_mhz.unwrap_or(crate::REFERENCE_CLOCK_MHZ),
            critical_path: OnceLock::new(),
            mcp_order: OnceLock::new(),
        })
    }

    /// Groups the edges `ids` by task with a stable counting fill, so
    /// each task's edges keep their input order. `ends` maps an edge to
    /// `(task, other task)`. Also returns, per slot, the index of the
    /// edge stored there.
    fn adjacency(
        &self,
        ids: impl Iterator<Item = usize> + Clone,
        ends: impl Fn(&(u32, u32, f64)) -> (u32, u32),
    ) -> (Csr, Vec<u32>) {
        let n = self.tasks.len();
        let mut off = vec![0usize; n + 1];
        for i in ids.clone() {
            off[ends(&self.edges[i]).0 as usize + 1] += 1;
        }
        for t in 0..n {
            off[t + 1] += off[t];
        }
        let mut next = off[..n].to_vec();
        let mut slots = vec![0u32; off[n]];
        for i in ids {
            let t = ends(&self.edges[i]).0 as usize;
            slots[next[t]] = i as u32;
            next[t] += 1;
        }
        let edges = slots
            .iter()
            .map(|&i| Edge {
                task: TaskId(ends(&self.edges[i as usize]).1),
                comm: self.edges[i as usize].2,
            })
            .collect();
        (Csr { off, edges }, slots)
    }
}

/// Flat (CSR) adjacency: the edges of task `t` are
/// `edges[off[t]..off[t + 1]]`, in the order they were added.
#[derive(Debug, Clone)]
struct Csr {
    off: Vec<usize>,
    edges: Vec<Edge>,
}

impl Csr {
    #[inline]
    fn row(&self, t: usize) -> &[Edge] {
        &self.edges[self.off[t]..self.off[t + 1]]
    }
}

/// Incremental construction of a [`Dag`].
///
/// ```
/// use rsg_dag::{DagBuilder, TaskId};
/// let mut b = DagBuilder::new();
/// let a = b.add_task(10.0);
/// let c = b.add_task(12.0);
/// b.add_edge(a, c, 5.0).unwrap();
/// let dag = b.build().unwrap();
/// assert_eq!(dag.len(), 2);
/// assert_eq!(dag.level(c), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    raw: RawDag,
}

impl DagBuilder {
    /// A builder with the default reference clock (1.5 GHz).
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder that pre-allocates for `tasks` tasks and `edges` edges.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        let mut b = Self::new();
        b.raw.tasks.reserve(tasks);
        b.raw.edges.reserve(edges);
        b
    }

    /// Sets a human-readable name carried by the built DAG.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.raw.name = name.into();
        self
    }

    /// Sets the reference CPU clock (MHz) the computational costs refer to.
    pub fn reference_clock_mhz(&mut self, mhz: f64) -> &mut Self {
        self.raw.ref_clock_mhz = Some(mhz);
        self
    }

    /// Adds a task with computational cost `comp` seconds (reference CPU)
    /// and returns its id.
    pub fn add_task(&mut self, comp: f64) -> TaskId {
        let id = TaskId(self.raw.tasks.len() as u32);
        self.raw.tasks.push(comp);
        id
    }

    /// Adds a dependency edge `parent -> child` with communication cost
    /// `comm` seconds (reference bandwidth).
    pub fn add_edge(&mut self, parent: TaskId, child: TaskId, comm: f64) -> Result<(), DagError> {
        if let Some(e) = edge_defect(self.raw.tasks.len(), parent.0, child.0) {
            return Err(e);
        }
        if !valid_cost(comm) {
            return Err(DagError::InvalidCost(comm));
        }
        self.raw.edges.push((parent.0, child.0, comm));
        Ok(())
    }

    /// Validates, freezes and returns the [`Dag`].
    pub fn build(self) -> Result<Dag, DagError> {
        self.raw.build()
    }
}

/// An immutable weighted task graph (Section III.1.1).
///
/// Adjacency is stored flat (CSR): one offsets array and one [`Edge`]
/// array for parents, and the same for children, each task's edges in
/// the order they were added. Schedule-invariant per-DAG quantities
/// ([`Dag::critical_path`], [`Dag::mcp_order`]) are computed on first
/// use and cached. A `Dag` is never mutated after [`DagBuilder::build`],
/// so the cache cannot go stale; `Clone` carries it along.
#[derive(Debug, Clone)]
pub struct Dag {
    comp: Vec<f64>,
    parents: Csr,
    children: Csr,
    topo: Vec<TaskId>,
    level: Vec<u32>,
    level_sizes: Vec<u32>,
    name: String,
    ref_clock_mhz: f64,
    critical_path: OnceLock<CriticalPathInfo>,
    mcp_order: OnceLock<Vec<u32>>,
}

impl Dag {
    /// Number of tasks (`n`, the DAG size).
    #[inline]
    pub fn len(&self) -> usize {
        self.comp.len()
    }

    /// True if the DAG holds no tasks (never true for built DAGs).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.comp.is_empty()
    }

    /// Number of edges (`m`).
    pub fn edge_count(&self) -> usize {
        self.children.edges.len()
    }

    /// Human-readable name (may be empty).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reference CPU clock (MHz) for the computational costs.
    #[inline]
    pub fn reference_clock_mhz(&self) -> f64 {
        self.ref_clock_mhz
    }

    /// Computational cost of `t` in seconds on the reference CPU.
    #[inline]
    pub fn comp(&self, t: TaskId) -> f64 {
        self.comp[t.index()]
    }

    /// All task ids, in insertion order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.comp.len() as u32).map(TaskId)
    }

    /// Incoming edges of `t` (its parents).
    #[inline]
    pub fn parents(&self, t: TaskId) -> &[Edge] {
        self.parents.row(t.index())
    }

    /// Outgoing edges of `t` (its children).
    #[inline]
    pub fn children(&self, t: TaskId) -> &[Edge] {
        self.children.row(t.index())
    }

    /// A topological order of the tasks.
    #[inline]
    pub fn topological_order(&self) -> &[TaskId] {
        &self.topo
    }

    /// Level of `t`: length of the longest path, in nodes, from an entry
    /// node to `t`; entry nodes are level 0.
    #[inline]
    pub fn level(&self, t: TaskId) -> u32 {
        self.level[t.index()]
    }

    /// Height `h` of the DAG: number of levels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.level_sizes.len() as u32
    }

    /// `size(l_k)`: number of tasks in level `k`.
    #[inline]
    pub fn level_size(&self, k: u32) -> u32 {
        self.level_sizes[k as usize]
    }

    /// All level populations, index = level.
    #[inline]
    pub fn level_sizes(&self) -> &[u32] {
        &self.level_sizes
    }

    /// DAG width: the maximum number of tasks in any level — the largest
    /// useful resource-collection size ("current practice" of Section
    /// V.3.3 requests exactly this many hosts).
    pub fn width(&self) -> u32 {
        self.level_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Entry tasks (no parents).
    pub fn entries(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(move |t| self.parents(*t).is_empty())
    }

    /// Exit tasks (no children).
    pub fn exits(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks().filter(move |t| self.children(*t).is_empty())
    }

    /// Sum of all computational costs (sequential execution time on the
    /// reference CPU, ignoring communication).
    pub fn total_work(&self) -> f64 {
        self.comp.iter().sum()
    }

    /// Average number of tasks per level, `τ = n / h`.
    pub fn tasks_per_level(&self) -> f64 {
        self.len() as f64 / self.height() as f64
    }

    /// Critical-path quantities of this DAG, computed on first use and
    /// cached (bit-identical to [`CriticalPathInfo::compute`]).
    pub fn critical_path(&self) -> &CriticalPathInfo {
        self.critical_path
            .get_or_init(|| CriticalPathInfo::compute(self))
    }

    /// MCP's task priority order (see [`critical::mcp_priority_order`]),
    /// computed on first use and cached.
    pub fn mcp_order(&self) -> &[u32] {
        self.mcp_order
            .get_or_init(|| critical::mcp_priority_order(self, self.critical_path()))
    }
}

#[cfg(test)]
pub(crate) use tests::example_dag;

#[cfg(test)]
mod tests {
    use super::*;

    /// The 8-node example DAG of Figure III-2 (Section III.1.1.1), used
    /// as the reference fixture across the crate: levels (2, 3, 2, 1).
    pub(crate) fn example_dag() -> Dag {
        let mut b = DagBuilder::new();
        // comp costs from the worked example: 10,12,8,12,9,10,10,9
        let v1 = b.add_task(10.0);
        let v2 = b.add_task(12.0);
        let v3 = b.add_task(8.0); // level 1, single dep from entry
        let v4 = b.add_task(12.0);
        let v5 = b.add_task(9.0);
        let v6 = b.add_task(10.0);
        let v7 = b.add_task(10.0);
        let v8 = b.add_task(9.0);
        // 11 edges; weights chosen to reproduce CCR = 0.386 of the example
        b.add_edge(v1, v3, 5.0).unwrap();
        b.add_edge(v1, v4, 5.0).unwrap();
        b.add_edge(v2, v4, 3.0).unwrap();
        b.add_edge(v2, v5, 3.0).unwrap();
        b.add_edge(v4, v6, 3.0).unwrap();
        b.add_edge(v4, v7, 4.0).unwrap();
        b.add_edge(v3, v6, 4.0).unwrap();
        b.add_edge(v5, v7, 4.0).unwrap();
        b.add_edge(v6, v8, 5.0).unwrap();
        b.add_edge(v7, v8, 5.0).unwrap();
        b.add_edge(v3, v8, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn example_levels_match_paper() {
        let d = example_dag();
        assert_eq!(d.len(), 8);
        assert_eq!(d.height(), 4);
        assert_eq!(d.level_sizes(), &[2, 3, 2, 1]);
        assert_eq!(d.width(), 3);
        assert!((d.tasks_per_level() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn entries_and_exits() {
        let d = example_dag();
        let entries: Vec<_> = d.entries().collect();
        let exits: Vec<_> = d.exits().collect();
        assert_eq!(entries, vec![TaskId(0), TaskId(1)]);
        assert_eq!(exits, vec![TaskId(7)]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let d = example_dag();
        let pos: Vec<usize> = {
            let mut p = vec![0usize; d.len()];
            for (i, t) in d.topological_order().iter().enumerate() {
                p[t.index()] = i;
            }
            p
        };
        for t in d.tasks() {
            for e in d.children(t) {
                assert!(pos[t.index()] < pos[e.task.index()]);
            }
        }
    }

    #[test]
    fn cycle_detected() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 0.0).unwrap();
        b.add_edge(c, a, 0.0).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn self_edge_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        assert_eq!(b.add_edge(a, a, 0.0).unwrap_err(), DagError::SelfEdge(a));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        b.add_edge(a, c, 0.0).unwrap();
        b.add_edge(a, c, 1.0).unwrap();
        assert_eq!(b.build().unwrap_err(), DagError::DuplicateEdge(a, c));
    }

    #[test]
    fn check_collects_every_defect_and_build_reports_the_first() {
        use DagError::*;
        let raw = RawDag {
            ref_clock_mhz: Some(0.0),
            tasks: vec![1.0, -1.0, 1.0],
            edges: vec![
                (0, 1, 0.5),
                (0, 1, 0.5),
                (1, 1, 0.5),
                (0, 7, -2.0),
                (2, 0, 0.1),
                (0, 2, 0.1),
            ],
            ..RawDag::default()
        };
        let check = raw.check();
        assert_eq!(
            check.edges,
            vec![
                (1, DuplicateEdge(TaskId(0), TaskId(1))),
                (2, SelfEdge(TaskId(1))),
                (3, UnknownTask(TaskId(7))),
                (3, InvalidCost(-2.0)),
            ]
        );
        assert_eq!(check.tasks, vec![(1, -1.0)]);
        assert_eq!(check.cycle, vec![0, 1, 2]);
        assert_eq!(check.ref_clock, Some(0.0));
        assert_eq!(check.width(), None);
        assert_eq!(check.first_error(), Some((SelfEdge(TaskId(1)), Some(2))));
        assert_eq!(raw.build().unwrap_err(), SelfEdge(TaskId(1)));
    }

    #[test]
    fn bad_reference_clock_rejected() {
        for mhz in [0.0, -1500.0, f64::INFINITY] {
            let mut b = DagBuilder::new();
            b.add_task(1.0);
            b.reference_clock_mhz(mhz);
            assert_eq!(b.build().unwrap_err(), DagError::InvalidRefClock(mhz));
        }
    }

    #[test]
    fn unknown_task_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let bogus = TaskId(99);
        assert_eq!(
            b.add_edge(a, bogus, 0.0).unwrap_err(),
            DagError::UnknownTask(bogus)
        );
    }

    #[test]
    fn negative_cost_rejected() {
        let mut b = DagBuilder::new();
        b.add_task(-1.0);
        assert!(matches!(b.build().unwrap_err(), DagError::InvalidCost(_)));
    }

    #[test]
    fn nan_comm_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_task(1.0);
        let c = b.add_task(1.0);
        assert!(matches!(
            b.add_edge(a, c, f64::NAN).unwrap_err(),
            DagError::InvalidCost(_)
        ));
    }

    #[test]
    fn single_task_dag() {
        let mut b = DagBuilder::new();
        b.add_task(5.0);
        let d = b.build().unwrap();
        assert_eq!(d.height(), 1);
        assert_eq!(d.width(), 1);
        assert_eq!(d.total_work(), 5.0);
    }

    #[test]
    fn level_of_multi_parent_node_is_longest_path() {
        // v7 in the example has parents at levels 1; the longest path to
        // it passes through two predecessor nodes, so it sits at level 2.
        let d = example_dag();
        assert_eq!(d.level(TaskId(6)), 2);
        // v3 has a single entry parent -> level 1.
        assert_eq!(d.level(TaskId(2)), 1);
    }

    #[test]
    fn edge_count_and_total_work() {
        let d = example_dag();
        assert_eq!(d.edge_count(), 11);
        assert!((d.total_work() - 80.0).abs() < 1e-12);
    }
}
