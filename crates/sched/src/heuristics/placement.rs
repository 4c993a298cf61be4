//! Sub-quadratic placement kernel for the host-scan heuristics.
//!
//! MCP and DLS both spend their time in the same inner loop: for each
//! task, scan every host and pick the one minimizing `max(host_ready,
//! data_ready) + exec_time` (MCP) or maximizing the dynamic level (DLS,
//! which for a fixed execution time is the same minimization). That
//! scan is `O(P · parents)` per task — the `(V + E) · P` growth that
//! creates the paper's turnaround knee. The *modeled* scheduling cost
//! must keep that growth (it is the phenomenon under study), but the
//! simulator's wall-clock does not have to.
//!
//! Under homogeneous connectivity ([`CommModel::Uniform`]) every edge
//! costs its reference `comm` off-host and nothing co-located, and every
//! built DAG has finite, non-negative costs. Let `D` be the 0-floored
//! max of the parents' off-host arrivals `finish[p] + comm`, and `h1`
//! the host of a parent reaching it (the *critical parent*). Every host
//! other than `h1` has data-ready time exactly `D`: a parent holder `h`
//! only lowers its own terms (`on ≤ out ≤ D`), while the critical
//! parent stays off-host for `h` and still arrives at `D`. Only `h1`
//! differs; its data-ready time is the max of the off-host arrivals of
//! parents elsewhere and the co-located arrivals of parents on `h1`.
//! Both values come from two passes over the parents, with the naive
//! float expressions (a 0-floored max over the same terms in any order
//! is the identical value).
//!
//! The winning host is therefore one of at most `1 + classes` hosts:
//!
//! * `h1`, evaluated with its own data-ready time; and
//! * per *clock class* (hosts with bit-identical clocks — hence
//!   bit-identical speed factors and execution times; see
//!   [`ClockClasses`]), whose other members all see data-ready `D`: the
//!   lowest-indexed host whose cost at `D` — `max(ready, D) + exec` for
//!   MCP, the negated dynamic level for DLS — equals the class minimum.
//!   That is the naive scan's strict-`<` first-wins pick within the
//!   class, exactly: also where two different ready times round to the
//!   same finish (hosts busy slightly past `D` tie with idle ones), a
//!   collapse the tie-heavy property tests showed to be common on
//!   multi-class RCs with integer costs. Should that winner be `h1`
//!   itself, it still dominates its class: its own data-ready time is
//!   at most `D`.
//!
//! Each class keeps its hosts (ascending index) in a min segment tree
//! over ready times. The class minimum is the root; the winner is one
//! root-to-leaf descent taking the left child whenever its minimum
//! reaches the class-best cost (the cost is monotone in the ready
//! time), `O(log P)`. The best candidate is then picked
//! lexicographically by `(cost, host)`, the naive scan's tie-break
//! restricted to the candidates. A query costs
//! `O(parents + classes·log P)` instead of the naive `O(P · parents)`.
//! The differential property tests (`tests/fast_kernel_equiv.rs`) check
//! the equivalence bit for bit, op counts included.
//!
//! The kernel declines (returns `None`, callers fall back to the
//! loop-swapped flat scan below) when connectivity is non-uniform —
//! per-host bandwidth factors make data-ready vary per host — or when
//! there are too many clock classes for the candidate set to be small
//! (e.g. continuously drawn heterogeneous clocks, where every host is
//! its own class).
//!
//! The class partition comes precomputed from the RC ([`ClockClasses`],
//! shared by every schedule over the RC), and the segment trees are
//! reused across schedules through the thread-local `scratch` pool, so
//! steady-state kernel invocations allocate nothing. The loop-swapped
//! fallback scan uses the same decomposition under uniform connectivity:
//! fill `D`, then patch `h1`.

use std::mem::take;
use std::sync::Arc;

use super::scratch;
use crate::context::ExecutionContext;
use crate::schedule::Schedule;
use rsg_dag::{Edge, TaskId};
use rsg_platform::{ClockClasses, CommModel};

/// A min segment tree over one clock class's host ready times, leaves
/// in ascending host order (padded to a power of two with `+∞`).
#[derive(Debug)]
struct ClassTree {
    /// Host indices of the class, ascending.
    hosts: Vec<u32>,
    /// Leaf capacity (power of two).
    width: usize,
    /// `2 * width` nodes; node 1 is the root, leaf `i` is `width + i`.
    tree: Vec<f64>,
}

impl ClassTree {
    fn new(hosts: Vec<u32>) -> ClassTree {
        let width = hosts.len().next_power_of_two();
        let mut tree = vec![f64::INFINITY; 2 * width];
        // Every host starts ready at time 0.
        for leaf in 0..hosts.len() {
            tree[width + leaf] = 0.0;
        }
        for node in (1..width).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
        ClassTree { hosts, width, tree }
    }

    fn update(&mut self, leaf: usize, ready: f64) {
        let mut node = self.width + leaf;
        self.tree[node] = ready;
        node /= 2;
        while node >= 1 {
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
            if node == 1 {
                break;
            }
            node /= 2;
        }
    }

    /// The earliest ready time in the class.
    fn min_ready(&self) -> f64 {
        self.tree[1]
    }

    /// Lowest-indexed host whose ready time `fits`. `fits` must hold
    /// for [`min_ready`](Self::min_ready) and be monotone: true up to
    /// some ready time, false beyond it (padding leaves are `+∞`).
    fn leftmost(&self, fits: impl Fn(f64) -> bool) -> u32 {
        let mut node = 1usize;
        while node < self.width {
            // Descend left whenever the left subtree's minimum fits:
            // monotonicity puts a fitting leaf there.
            node = if fits(self.tree[2 * node]) {
                2 * node
            } else {
                2 * node + 1
            };
        }
        self.hosts[node - self.width]
    }
}

/// The per-`(rc, prefix)` segment trees plus the touched-host list that
/// lets the scratch pool reset them in O(writes). Built once per
/// `(rc uid, hosts)` key and recycled across schedules.
#[derive(Debug, Default)]
pub(super) struct TreeBank {
    classes: Arc<ClockClasses>,
    trees: Vec<ClassTree>,
    touched: Vec<u32>,
}

impl TreeBank {
    fn build(classes: Arc<ClockClasses>, hosts: usize) -> TreeBank {
        let k = classes.classes_in_prefix(hosts);
        let trees = (0..k)
            .map(|c| ClassTree::new(classes.members_in_prefix(c, hosts).to_vec()))
            .collect();
        TreeBank {
            classes,
            trees,
            touched: Vec::new(),
        }
    }

    /// Resets every touched leaf back to ready-at-0.
    pub(super) fn reset(&mut self) {
        for i in 0..self.touched.len() {
            let (class, rank) = self.classes.slot(self.touched[i] as usize);
            self.trees[class as usize].update(rank as usize, 0.0);
        }
        self.touched.clear();
    }

    fn update(&mut self, host: usize, ready: f64) {
        // Touched before written: a panicking schedule leaves the list
        // covering every write, and the next take resets them all.
        self.touched.push(host as u32);
        let (class, rank) = self.classes.slot(host);
        self.trees[class as usize].update(rank as usize, ready);
    }
}

/// No host: the task has no parent arriving after time 0.
const NO_HOST: u32 = u32::MAX;

/// The data-ready times of one task on every host under uniform
/// connectivity: `ready` on `host`, `d` everywhere else (see the module
/// docs for why nothing else can differ).
#[derive(Debug, Clone, Copy)]
pub(super) struct CriticalParent {
    /// 0-floored max of the parents' off-host arrivals.
    pub(super) d: f64,
    /// Host of the first parent arriving at `d`, or [`NO_HOST`].
    pub(super) host: u32,
    /// Data-ready time on `host`.
    pub(super) ready: f64,
}

impl CriticalParent {
    /// Two passes over `t`'s parents in one schedule (`finish` and
    /// `host_of` indexed by task). `comm_factor` is exactly 1.0
    /// off-host and 0.0 co-located under uniform connectivity, so every
    /// arrival is bit-identical to the naive `finish + comm * factor`.
    #[inline]
    pub(super) fn of(
        ctx: &ExecutionContext<'_>,
        t: TaskId,
        finish: &[f64],
        host_of: &[u32],
    ) -> CriticalParent {
        let parents = ctx.dag.parents(t);
        let mut d = 0.0f64;
        let mut host = NO_HOST;
        for e in parents {
            let p = e.task.index();
            let out = finish[p] + e.comm * 1.0;
            if out > d {
                d = out;
                host = host_of[p];
            }
        }
        if host == NO_HOST {
            return CriticalParent { d, host, ready: d };
        }
        let mut ready = 0.0f64;
        for e in parents {
            let p = e.task.index();
            let factor = if host_of[p] == host { 0.0 } else { 1.0 };
            let arr = finish[p] + e.comm * factor;
            if arr > ready {
                ready = arr;
            }
        }
        CriticalParent { d, host, ready }
    }

    /// `ExecutionContext::data_ready` of the task on host `h`.
    #[inline]
    fn data_ready(&self, h: usize) -> f64 {
        if h == self.host as usize {
            self.ready
        } else {
            self.d
        }
    }

    /// Fills `dr[h]` with the data-ready time on every host `h`.
    #[inline]
    pub(super) fn fill(&self, dr: &mut [f64]) {
        dr.fill(self.d);
        if self.host != NO_HOST {
            dr[self.host as usize] = self.ready;
        }
    }
}

/// [`CriticalParent::of`] in `w = d.len()` schedules at once, one per
/// size of a ladder: `finish` and `host_of` are laid out `[task][size]`
/// (`w` entries per task), and size `s`'s critical parent is
/// `(d[s], host[s], ready[s])`.
///
/// The same two passes with the same float expressions in the same
/// order, each a branch-free loop over a contiguous row of sizes; the
/// selects keep the strict-`>` first-wins folds. A size without a
/// critical parent (`NO_HOST`) has every parent off-host in the second
/// pass too, so its `ready` is the same fold as `d`, as `of` returns.
#[inline(always)]
pub(super) fn critical_parents(
    parents: &[Edge],
    finish: &[f64],
    host_of: &[u32],
    d: &mut [f64],
    host: &mut [u32],
    ready: &mut [f64],
) {
    let w = d.len();
    d.fill(0.0);
    host.fill(NO_HOST);
    ready.fill(0.0);
    for e in parents {
        let row = e.task.index() * w;
        let (fin, hp) = (&finish[row..row + w], &host_of[row..row + w]);
        for (((d, h), &f), &ph) in d.iter_mut().zip(host.iter_mut()).zip(fin).zip(hp) {
            let out = f + e.comm * 1.0;
            let later = out > *d;
            *d = if later { out } else { *d };
            *h = if later { ph } else { *h };
        }
    }
    for e in parents {
        let row = e.task.index() * w;
        let (fin, hp) = (&finish[row..row + w], &host_of[row..row + w]);
        for (((r, &h), &f), &ph) in ready.iter_mut().zip(host.iter()).zip(fin).zip(hp) {
            let factor = if ph == h { 0.0 } else { 1.0 };
            let arr = f + e.comm * factor;
            *r = if arr > *r { arr } else { *r };
        }
    }
}

/// Candidate-set placement index over one execution context.
///
/// Mirror of the hosts' ready times: callers must [`update`] it
/// whenever they change their `host_ready` array.
///
/// [`update`]: PlacementIndex::update
pub struct PlacementIndex {
    key: (u64, usize),
    bank: TreeBank,
}

impl Drop for PlacementIndex {
    fn drop(&mut self) {
        scratch::put_bank(self.key, take(&mut self.bank));
    }
}

impl PlacementIndex {
    /// Builds the index, or `None` when the fast path does not apply
    /// (non-uniform connectivity, or too many clock classes for the
    /// candidate set to beat the naive scan).
    pub fn new(ctx: &ExecutionContext<'_>) -> Option<PlacementIndex> {
        /// Schedules that got the candidate-set fast path.
        static OBS_FAST: rsg_obs::Counter = rsg_obs::Counter::new("sched.placement.fast_kernel");
        /// Schedules where the kernel declined (naive host scan).
        static OBS_DECLINED: rsg_obs::Counter =
            rsg_obs::Counter::new("sched.placement.naive_fallback");
        if *ctx.rc.comm_model() != CommModel::Uniform {
            OBS_DECLINED.incr();
            return None;
        }
        let hosts = ctx.hosts();
        let classes = ctx.rc.clock_classes();
        // With ~P classes the candidate set is as big as the host set;
        // the naive scan is then cheaper than tree maintenance.
        if classes.classes_in_prefix(hosts) * 4 > hosts {
            OBS_DECLINED.incr();
            return None;
        }
        OBS_FAST.incr();
        let key = (ctx.rc.uid(), hosts);
        let bank = scratch::take_bank(key).unwrap_or_else(|| TreeBank::build(classes, hosts));
        Some(PlacementIndex { key, bank })
    }

    /// Records a new ready time for `host`.
    pub fn update(&mut self, host: usize, ready: f64) {
        self.bank.update(host, ready);
    }

    /// The candidate minimizing `(cost, host)` lexicographically, as
    /// `(cost, host, start)`. `cost(start, exec_time)` must be monotone
    /// non-decreasing in `start`; it is evaluated with the same float
    /// operations the naive scan uses.
    ///
    /// The candidates are the critical parent's host and, per clock
    /// class, the lowest-indexed host whose cost (at data-ready `D`)
    /// equals the class minimum — the naive scan's first-wins pick
    /// within the class, exactly, even where different ready times
    /// round to the same cost.
    #[inline]
    fn best(
        &self,
        ctx: &ExecutionContext<'_>,
        t: TaskId,
        cp: &CriticalParent,
        host_ready: &[f64],
        cost: impl Fn(f64, f64) -> f64,
    ) -> (f64, usize, f64) {
        let mut best = (f64::INFINITY, usize::MAX, 0.0f64);
        let mut visit = |h: usize, dr: f64| {
            let start = host_ready[h].max(dr);
            let c = cost(start, ctx.task_time(t, h));
            if c < best.0 || (c == best.0 && h < best.1) {
                best = (c, h, start);
            }
        };
        if cp.host != NO_HOST {
            visit(cp.host as usize, cp.ready);
        }
        for class in &self.bank.trees {
            let exec = ctx.task_time(t, class.hosts[0] as usize);
            let floor = cost(class.min_ready().max(cp.d), exec);
            let h = class.leftmost(|ready| cost(ready.max(cp.d), exec) <= floor) as usize;
            visit(h, cp.data_ready(h));
        }
        best
    }

    /// MCP placement: the `(finish, host, start)` the naive full scan
    /// would select for `t`, whose critical parent is `cp`.
    pub(super) fn mcp_best(
        &self,
        ctx: &ExecutionContext<'_>,
        t: TaskId,
        cp: &CriticalParent,
        host_ready: &[f64],
    ) -> (f64, usize, f64) {
        self.best(ctx, t, cp, host_ready, |start, exec| start + exec)
    }

    /// DLS evaluation: the `(dynamic level, host, start)` the naive
    /// full scan would select for `t`, given its static level and
    /// median-speed execution time.
    pub fn dls_best(
        &mut self,
        ctx: &ExecutionContext<'_>,
        t: TaskId,
        sched: &Schedule,
        host_ready: &[f64],
        sl: f64,
        wbar: f64,
    ) -> (f64, usize, f64) {
        // Negation is exact, so the highest dynamic level is the lowest
        // cost and ties compare alike.
        let cp = CriticalParent::of(ctx, t, &sched.finish, &sched.host);
        let (neg_dl, h, start) = self.best(ctx, t, &cp, host_ready, |start, exec| {
            -(sl - start + (wbar - exec))
        });
        (-neg_dl, h, start)
    }
}

/// Whether the fast placement kernel engages for this context (used by
/// differential tests and benches to confirm what they exercise).
pub fn fast_placement_available(ctx: &ExecutionContext<'_>) -> bool {
    PlacementIndex::new(ctx).is_some()
}

/// Fills `dr[h]` with `ExecutionContext::data_ready(t, h, finish,
/// host_of)` for every host, bit-identically. Under uniform
/// connectivity that is `D` on every host but the critical parent's
/// ([`CriticalParent`]), O(P + parents).
/// Otherwise it is loop-swapped: one pass over hosts per parent instead
/// of one pass over parents per host — data-ready is a 0-floored max
/// over per-(parent, host) arrival terms, every term is computed with
/// the naive float expression, and a max over the same multiset is
/// order-independent (all terms are non-negative, so no `-0.0`/`+0.0`
/// ambiguity either). The per-parent inner loops are branch-free over
/// contiguous `f64` arrays, which is what lets the compiler vectorize
/// the fallback scan.
pub(super) fn fill_data_ready(
    ctx: &ExecutionContext<'_>,
    t: TaskId,
    finish: &[f64],
    host_of: &[u32],
    dr: &mut [f64],
) {
    match ctx.rc.comm_model() {
        CommModel::Uniform => CriticalParent::of(ctx, t, finish, host_of).fill(dr),
        CommModel::PerHostFactor(f) => {
            dr.fill(0.0);
            for e in ctx.dag.parents(t) {
                let p = e.task.index();
                let fin = finish[p];
                let fp = f[host_of[p] as usize];
                for (h, x) in dr.iter_mut().enumerate() {
                    let arr = fin + e.comm * fp.max(f[h]);
                    if arr > *x {
                        *x = arr;
                    }
                }
            }
            // The sweeps above charged every parent's own host the
            // off-host factor `max(f_i, f_j)` instead of the co-located
            // 0; repair those few slots with the naive per-host fold
            // (O(parents) each, O(parents²) total — negligible against
            // O(P·parents) in the P ≫ parents regime this scan runs in).
            for e in ctx.dag.parents(t) {
                let ph = host_of[e.task.index()] as usize;
                dr[ph] = ctx.data_ready(t, ph, finish, host_of);
            }
        }
        CommModel::Clustered {
            host_cluster,
            k,
            factors,
        } => {
            dr.fill(0.0);
            for e in ctx.dag.parents(t) {
                let p = e.task.index();
                let fin = finish[p];
                let a = host_cluster[host_of[p] as usize] as usize;
                let row = &factors[a * k..(a + 1) * k];
                for (x, &hc) in dr.iter_mut().zip(host_cluster.iter()) {
                    let arr = fin + e.comm * row[hc as usize];
                    if arr > *x {
                        *x = arr;
                    }
                }
            }
            // Same repair: the intra-cluster factor applies to distinct
            // hosts of a cluster, but a parent's own host transfers for
            // free.
            for e in ctx.dag.parents(t) {
                let ph = host_of[e.task.index()] as usize;
                dr[ph] = ctx.data_ready(t, ph, finish, host_of);
            }
        }
    }
}

/// MCP fallback placement over every host, given the data-ready times
/// `dr` ([`fill_data_ready`] or [`CriticalParent::fill`]): the naive
/// scan, loop-swapped into flat array passes. Bit-identical to the
/// per-host reference scan (same terms, same strict-`<` first-wins
/// tie-break).
pub(super) fn mcp_flat_best(
    ctx: &ExecutionContext<'_>,
    t: TaskId,
    host_ready: &[f64],
    dr: &[f64],
) -> (f64, usize, f64) {
    let speeds = ctx.speeds();
    let comp = ctx.dag.comp(t);
    let mut best_finish = f64::INFINITY;
    let mut best_host = 0usize;
    let mut best_start = 0.0f64;
    for (h, (&ready, (&d, &sp))) in host_ready
        .iter()
        .zip(dr.iter().zip(speeds.iter()))
        .enumerate()
    {
        let est = ready.max(d);
        let fin = est + comp / sp;
        if fin < best_finish {
            best_finish = fin;
            best_host = h;
            best_start = est;
        }
    }
    (best_finish, best_host, best_start)
}

/// DLS fallback evaluation over every host, given the data-ready times
/// `dr`, loop-swapped like [`mcp_flat_best`]. Bit-identical to the
/// per-host reference scan.
pub(super) fn dls_flat_best(
    ctx: &ExecutionContext<'_>,
    t: TaskId,
    host_ready: &[f64],
    sl: f64,
    wbar: f64,
    dr: &[f64],
) -> (f64, usize, f64) {
    let speeds = ctx.speeds();
    let comp = ctx.dag.comp(t);
    let mut best = (f64::NEG_INFINITY, 0usize, 0.0f64);
    for (h, (&ready, (&d, &sp))) in host_ready
        .iter()
        .zip(dr.iter().zip(speeds.iter()))
        .enumerate()
    {
        let start = ready.max(d);
        let dl = sl - start + (wbar - comp / sp);
        if dl > best.0 {
            best = (dl, h, start);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::{Heuristic, McpNaive};
    use rsg_platform::ResourceCollection;

    #[test]
    fn class_tree_queries() {
        let mut t = ClassTree::new(vec![3, 5, 8, 9, 12]);
        // All ready at 0: the leftmost host fits.
        assert_eq!(t.min_ready(), 0.0);
        assert_eq!(t.leftmost(|r| r <= 0.0), 3);
        t.update(0, 10.0);
        t.update(1, 4.0);
        t.update(2, 7.0);
        t.update(3, 4.0);
        t.update(4, 0.5);
        assert_eq!(t.min_ready(), 0.5);
        assert_eq!(t.leftmost(|r| r <= 0.6), 12);
        assert_eq!(t.leftmost(|r| r <= 5.0), 5);
        t.update(4, 100.0);
        // Tie at 4.0 between hosts 5 and 9: lowest index wins.
        assert_eq!(t.min_ready(), 4.0);
        assert_eq!(t.leftmost(|r| r <= 4.0), 5);
    }

    #[test]
    fn rounding_ties_keep_the_lowest_index() {
        // Two ready times a few ulps apart that round to one finish
        // after `+ exec`: the naive scan takes the lower index even
        // though it starts later.
        let early = 3.678_571_428_571_428_4f64;
        let late = 3.678_571_428_571_429f64;
        let exec = 0.535_714_285_714_285_7f64;
        assert!(late > early);
        assert_eq!((late + exec).to_bits(), (early + exec).to_bits());
        let mut t = ClassTree::new(vec![9, 11]);
        t.update(0, late);
        t.update(1, early);
        let floor = t.min_ready() + exec;
        assert_eq!(t.leftmost(|r| r + exec <= floor), 9);
    }

    #[test]
    fn index_declines_when_not_applicable() {
        let dag = rsg_dag::workflows::bag(4, 10.0);
        // Non-uniform connectivity.
        let rc = ResourceCollection::homogeneous(16, 1500.0).with_bandwidth_heterogeneity(0.5, 1);
        assert!(!fast_placement_available(&ExecutionContext::new(&dag, &rc)));
        // Continuously heterogeneous clocks: every host its own class.
        let rc = ResourceCollection::heterogeneous(16, 3000.0, 0.4, 7);
        assert!(!fast_placement_available(&ExecutionContext::new(&dag, &rc)));
        // Homogeneous: engages.
        let rc = ResourceCollection::homogeneous(16, 1500.0);
        assert!(fast_placement_available(&ExecutionContext::new(&dag, &rc)));
        // Few classes (space sharing): engages.
        let rc =
            ResourceCollection::new([1500.0, 3000.0].repeat(8), rsg_platform::CommModel::Uniform);
        assert!(fast_placement_available(&ExecutionContext::new(&dag, &rc)));
    }

    #[test]
    fn index_mirrors_ready_times() {
        let dag = rsg_dag::workflows::bag(3, 10.0);
        let rc = ResourceCollection::homogeneous(8, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let mut idx = PlacementIndex::new(&ctx).unwrap();
        let sched = Schedule::with_capacity(dag.len());
        let mut host_ready = vec![0.0f64; 8];
        for (h, r) in [(0usize, 5.0f64), (1, 3.0), (2, 9.0)] {
            host_ready[h] = r;
            idx.update(h, r);
        }
        // Entry task, D = 0: hosts 0..=2 are busy, host 3 is the
        // lowest-indexed idle one.
        let t = rsg_dag::TaskId(0);
        let cp = CriticalParent::of(&ctx, t, &sched.finish, &sched.host);
        let (fin, host, start) = idx.mcp_best(&ctx, t, &cp, &host_ready);
        assert_eq!(host, 3);
        assert_eq!(start, 0.0);
        assert!((fin - 10.0).abs() < 1e-12);
    }

    #[test]
    fn pooled_bank_resets_across_schedules() {
        // Two back-to-back indexes over the same (rc, hosts): the
        // second take must serve a bank with every host ready at 0.
        let dag = rsg_dag::workflows::bag(3, 10.0);
        let rc = ResourceCollection::homogeneous(8, 1500.0);
        let ctx = ExecutionContext::new(&dag, &rc);
        let sched = Schedule::with_capacity(dag.len());
        let host_ready = vec![0.0f64; 8];
        {
            let mut idx = PlacementIndex::new(&ctx).unwrap();
            idx.update(0, 100.0);
            idx.update(5, 40.0);
        }
        let idx = PlacementIndex::new(&ctx).unwrap();
        let t = rsg_dag::TaskId(0);
        let cp = CriticalParent::of(&ctx, t, &sched.finish, &sched.host);
        let (_, host, start) = idx.mcp_best(&ctx, t, &cp, &host_ready);
        assert_eq!(host, 0, "pooled bank must be reset to all-ready");
        assert_eq!(start, 0.0);
    }

    #[test]
    fn critical_parent_decomposition_matches_naive_data_ready() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rsg_dag::RandomDagSpec;
        let mut rng = StdRng::seed_from_u64(20);
        for round in 0..40u64 {
            let dag = RandomDagSpec {
                size: 20 + 10 * (round as usize % 8),
                ccr: [0.0, 0.5, 2.0][round as usize % 3],
                parallelism: 0.5,
                density: 0.2 + 0.1 * (round % 8) as f64,
                regularity: 0.5,
                mean_comp: 10.0,
            }
            .generate(round);
            let hosts = 1 + round as usize % 9;
            let rc = ResourceCollection::homogeneous(hosts, 1500.0);
            let ctx = ExecutionContext::new(&dag, &rc);
            // A random partial schedule: integer finish times on few
            // hosts make equal arrivals, shared parent hosts and
            // unfinished (time-0) parents common.
            let mut sched = Schedule::with_capacity(dag.len());
            for i in 0..dag.len() {
                sched.host[i] = rng.gen_range(0..hosts) as u32;
                sched.finish[i] = if rng.gen_bool(0.2) {
                    0.0
                } else {
                    rng.gen_range(0..12u32) as f64
                };
            }
            let mut dr = vec![f64::NAN; hosts];
            for t in dag.tasks() {
                let cp = CriticalParent::of(&ctx, t, &sched.finish, &sched.host);
                fill_data_ready(&ctx, t, &sched.finish, &sched.host, &mut dr);
                for (h, &flat) in dr.iter().enumerate() {
                    let naive = ctx.data_ready(t, h, &sched.finish, &sched.host);
                    assert_eq!(cp.data_ready(h).to_bits(), naive.to_bits(), "{t:?} on {h}");
                    assert_eq!(flat.to_bits(), naive.to_bits(), "{t:?} on {h} (flat)");
                }
            }
        }
    }

    #[test]
    fn batched_critical_parents_match_each_schedule() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rsg_dag::RandomDagSpec;
        let mut rng = StdRng::seed_from_u64(26);
        for round in 0..20u64 {
            let dag = RandomDagSpec {
                size: 30 + 10 * (round as usize % 5),
                ccr: [0.0, 0.5, 2.0][round as usize % 3],
                parallelism: 0.5,
                density: 0.3 + 0.1 * (round % 5) as f64,
                regularity: 0.5,
                mean_comp: 10.0,
            }
            .generate(round);
            let rc = ResourceCollection::homogeneous(6, 1500.0);
            let ctx = ExecutionContext::new(&dag, &rc);
            // `w` random partial schedules on few hosts with integer
            // finish times (ties, shared parent hosts, time-0 parents),
            // laid out `[task][size]`.
            let w = 1 + round as usize % 5;
            let n = dag.len();
            let finish: Vec<f64> = (0..n * w).map(|_| rng.gen_range(0..6u32) as f64).collect();
            let host_of: Vec<u32> = (0..n * w).map(|_| rng.gen_range(0..6u32)).collect();
            let (mut d, mut host, mut ready) = (vec![0.0; w], vec![0; w], vec![0.0; w]);
            for t in dag.tasks() {
                critical_parents(
                    dag.parents(t),
                    &finish,
                    &host_of,
                    &mut d,
                    &mut host,
                    &mut ready,
                );
                for s in 0..w {
                    let fin: Vec<f64> = finish.iter().skip(s).step_by(w).copied().collect();
                    let hosts: Vec<u32> = host_of.iter().skip(s).step_by(w).copied().collect();
                    let one = CriticalParent::of(&ctx, t, &fin, &hosts);
                    assert_eq!(d[s].to_bits(), one.d.to_bits(), "{t:?} size {s}");
                    assert_eq!(host[s], one.host, "{t:?} size {s}");
                    assert_eq!(ready[s].to_bits(), one.ready.to_bits(), "{t:?} size {s}");
                }
            }
        }
    }

    #[test]
    fn flat_scans_match_naive_reference() {
        use rsg_dag::RandomDagSpec;
        // Heterogeneous clocks + bandwidth heterogeneity: the exact
        // configuration the kernel declines on.
        let dag = RandomDagSpec {
            size: 60,
            ccr: 1.0,
            parallelism: 0.5,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(3);
        for rc in [
            ResourceCollection::heterogeneous(13, 3000.0, 0.4, 5)
                .with_bandwidth_heterogeneity(0.3, 9),
            ResourceCollection::heterogeneous(13, 3000.0, 0.4, 5),
        ] {
            let ctx = ExecutionContext::new(&dag, &rc);
            // Build a plausible partial schedule with MCP-naive and then
            // compare flat vs naive evaluation for a later task.
            let (sched, _) = McpNaive.schedule(&ctx);
            let mut host_ready = vec![0.0f64; ctx.hosts()];
            for i in 0..dag.len() {
                let h = sched.host[i] as usize;
                if sched.finish[i] > host_ready[h] {
                    host_ready[h] = sched.finish[i];
                }
            }
            let mut dr = vec![0.0f64; ctx.hosts()];
            for t in ctx.dag.tasks() {
                fill_data_ready(&ctx, t, &sched.finish, &sched.host, &mut dr);
                for (h, &flat_dr) in dr.iter().enumerate() {
                    let naive = ctx.data_ready(t, h, &sched.finish, &sched.host);
                    assert_eq!(flat_dr.to_bits(), naive.to_bits(), "task {t:?} host {h}");
                }
                let flat = mcp_flat_best(&ctx, t, &host_ready, &dr);
                let mut naive = (f64::INFINITY, 0usize, 0.0f64);
                for (h, &ready) in host_ready.iter().enumerate() {
                    let est = ready.max(ctx.data_ready(t, h, &sched.finish, &sched.host));
                    let fin = est + ctx.task_time(t, h);
                    if fin < naive.0 {
                        naive = (fin, h, est);
                    }
                }
                assert_eq!(flat.0.to_bits(), naive.0.to_bits());
                assert_eq!(flat.1, naive.1);
                assert_eq!(flat.2.to_bits(), naive.2.to_bits());
            }
        }
    }
}
