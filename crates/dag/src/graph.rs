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

/// Errors reported by [`DagBuilder`].
#[derive(Debug, Clone, PartialEq)]
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
        }
    }
}

impl std::error::Error for DagError {}

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
    comp: Vec<f64>,
    edges: Vec<(TaskId, TaskId, f64)>,
    name: String,
    ref_clock_mhz: f64,
}

impl DagBuilder {
    /// A builder with the default reference clock (1.5 GHz).
    pub fn new() -> Self {
        DagBuilder {
            comp: Vec::new(),
            edges: Vec::new(),
            name: String::new(),
            ref_clock_mhz: crate::REFERENCE_CLOCK_MHZ,
        }
    }

    /// A builder that pre-allocates for `tasks` tasks and `edges` edges.
    pub fn with_capacity(tasks: usize, edges: usize) -> Self {
        let mut b = Self::new();
        b.comp.reserve(tasks);
        b.edges.reserve(edges);
        b
    }

    /// Sets a human-readable name carried by the built DAG.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// Sets the reference CPU clock (MHz) the computational costs refer to.
    pub fn reference_clock_mhz(&mut self, mhz: f64) -> &mut Self {
        self.ref_clock_mhz = mhz;
        self
    }

    /// Adds a task with computational cost `comp` seconds (reference CPU)
    /// and returns its id.
    pub fn add_task(&mut self, comp: f64) -> TaskId {
        let id = TaskId(self.comp.len() as u32);
        self.comp.push(comp);
        id
    }

    /// Adds a dependency edge `parent -> child` with communication cost
    /// `comm` seconds (reference bandwidth).
    pub fn add_edge(&mut self, parent: TaskId, child: TaskId, comm: f64) -> Result<(), DagError> {
        let n = self.comp.len() as u32;
        if parent.0 >= n {
            return Err(DagError::UnknownTask(parent));
        }
        if child.0 >= n {
            return Err(DagError::UnknownTask(child));
        }
        if parent == child {
            return Err(DagError::SelfEdge(parent));
        }
        if !comm.is_finite() || comm < 0.0 {
            return Err(DagError::InvalidCost(comm));
        }
        self.edges.push((parent, child, comm));
        Ok(())
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.comp.len()
    }

    /// Validates, freezes and returns the [`Dag`].
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.comp.len();
        if n == 0 {
            return Err(DagError::Empty);
        }
        for &c in &self.comp {
            if !c.is_finite() || c < 0.0 {
                return Err(DagError::InvalidCost(c));
            }
        }

        let mut parents: Vec<Vec<Edge>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<Edge>> = vec![Vec::new(); n];
        for &(p, c, w) in &self.edges {
            if children[p.index()].iter().any(|e| e.task == c) {
                return Err(DagError::DuplicateEdge(p, c));
            }
            children[p.index()].push(Edge { task: c, comm: w });
            parents[c.index()].push(Edge { task: p, comm: w });
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<u32> = parents.iter().map(|p| p.len() as u32).collect();
        let mut topo: Vec<TaskId> = Vec::with_capacity(n);
        let mut queue: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| indeg[t.index()] == 0)
            .collect();
        let mut head = 0usize;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            topo.push(t);
            for e in &children[t.index()] {
                indeg[e.task.index()] -= 1;
                if indeg[e.task.index()] == 0 {
                    queue.push(e.task);
                }
            }
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }

        // Levels: longest path (in nodes) from an entry node; entries are
        // level 0 (Section III.1.1).
        let mut level: Vec<u32> = vec![0; n];
        for &t in &topo {
            let l = parents[t.index()]
                .iter()
                .map(|e| level[e.task.index()] + 1)
                .max()
                .unwrap_or(0);
            level[t.index()] = l;
        }
        let height = level.iter().copied().max().unwrap_or(0) + 1;
        let mut level_sizes: Vec<u32> = vec![0; height as usize];
        for &l in &level {
            level_sizes[l as usize] += 1;
        }

        Ok(Dag {
            comp: self.comp,
            parents,
            children,
            topo,
            level,
            level_sizes,
            name: self.name,
            ref_clock_mhz: self.ref_clock_mhz,
            critical_path: OnceLock::new(),
            mcp_order: OnceLock::new(),
        })
    }
}

/// An immutable weighted task graph (Section III.1.1).
///
/// Schedule-invariant per-DAG quantities ([`Dag::critical_path`],
/// [`Dag::mcp_order`]) are computed on first use and cached. A `Dag` is
/// never mutated after [`DagBuilder::build`], so the cache cannot go
/// stale; `Clone` carries it along.
#[derive(Debug, Clone)]
pub struct Dag {
    comp: Vec<f64>,
    parents: Vec<Vec<Edge>>,
    children: Vec<Vec<Edge>>,
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
        self.children.iter().map(Vec::len).sum()
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
        &self.parents[t.index()]
    }

    /// Outgoing edges of `t` (its children).
    #[inline]
    pub fn children(&self, t: TaskId) -> &[Edge] {
        &self.children[t.index()]
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
