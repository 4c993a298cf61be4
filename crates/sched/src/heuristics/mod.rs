//! The scheduling heuristics of Chapters IV–VI.
//!
//! Every heuristic consumes an [`ExecutionContext`] and produces a
//! [`Schedule`] plus the [`OpCount`] of elementary operations it spent,
//! which the [`SchedTimeModel`](crate::SchedTimeModel) converts into
//! scheduling seconds.

mod common;
mod dls;
mod fca;
mod fcfs;
mod greedy;
mod mcp;
pub mod placement;
mod scratch;

pub use dls::{Dls, DlsNaive};
pub use fca::Fca;
pub use fcfs::Fcfs;
pub use greedy::Greedy;
pub(crate) use mcp::McpLadder;
pub use mcp::{Mcp, McpNaive};
pub use placement::fast_placement_available;

use crate::context::ExecutionContext;
use crate::schedule::Schedule;
use crate::timemodel::OpCount;

/// A static DAG scheduling heuristic.
pub trait Heuristic: Sync {
    /// Which heuristic this is.
    fn kind(&self) -> HeuristicKind;

    /// Computes a complete schedule, returning the schedule and the
    /// number of elementary operations spent.
    fn schedule(&self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount);

    /// Heuristic name as used in the paper's figures.
    fn name(&self) -> &'static str {
        self.kind().name()
    }
}

/// Enumeration of the implemented heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum HeuristicKind {
    /// Modified Critical Path (Figure IV-2 / V-12).
    Mcp,
    /// Simple greedy (Figure IV-3).
    Greedy,
    /// Dynamic Level Scheduling (Figure V-13).
    Dls,
    /// Fastest-clock assignment (Figure V-14, reconstructed).
    Fca,
    /// First-come-first-serve (Figure V-15).
    Fcfs,
}

impl HeuristicKind {
    /// All heuristics, in the paper's presentation order.
    pub fn all() -> [HeuristicKind; 5] {
        [
            HeuristicKind::Mcp,
            HeuristicKind::Dls,
            HeuristicKind::Fca,
            HeuristicKind::Fcfs,
            HeuristicKind::Greedy,
        ]
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            HeuristicKind::Mcp => "MCP",
            HeuristicKind::Greedy => "Greedy",
            HeuristicKind::Dls => "DLS",
            HeuristicKind::Fca => "FCA",
            HeuristicKind::Fcfs => "FCFS",
        }
    }

    /// Parses a display name (case-insensitive).
    pub fn parse(s: &str) -> Option<HeuristicKind> {
        match s.to_ascii_lowercase().as_str() {
            "mcp" => Some(HeuristicKind::Mcp),
            "greedy" => Some(HeuristicKind::Greedy),
            "dls" => Some(HeuristicKind::Dls),
            "fca" => Some(HeuristicKind::Fca),
            "fcfs" => Some(HeuristicKind::Fcfs),
            _ => None,
        }
    }

    /// Instantiates the heuristic.
    pub fn instantiate(self) -> Box<dyn Heuristic> {
        match self {
            HeuristicKind::Mcp => Box::new(Mcp),
            HeuristicKind::Greedy => Box::new(Greedy::default()),
            HeuristicKind::Dls => Box::new(Dls),
            HeuristicKind::Fca => Box::new(Fca),
            HeuristicKind::Fcfs => Box::new(Fcfs),
        }
    }

    /// Instantiates the reference implementation: identical output, but
    /// with the fast placement kernel disabled for MCP and DLS. Used by
    /// differential tests and as the before-optimization benchmark
    /// baseline.
    pub fn instantiate_reference(self) -> Box<dyn Heuristic> {
        match self {
            HeuristicKind::Mcp => Box::new(McpNaive),
            HeuristicKind::Dls => Box::new(DlsNaive),
            other => other.instantiate(),
        }
    }

    /// Runs the heuristic directly.
    pub fn run(self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        self.instantiate().schedule(ctx)
    }

    /// Runs the reference implementation (see
    /// [`instantiate_reference`](HeuristicKind::instantiate_reference)).
    pub fn run_reference(self, ctx: &ExecutionContext<'_>) -> (Schedule, OpCount) {
        self.instantiate_reference().schedule(ctx)
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::RandomDagSpec;
    use rsg_platform::ResourceCollection;

    /// Every heuristic must produce a valid schedule on a battery of
    /// DAG shapes and resource conditions.
    #[test]
    fn all_heuristics_produce_valid_schedules() {
        let dags = vec![
            rsg_dag::workflows::chain(10, 5.0, 1.0),
            rsg_dag::workflows::bag(20, 3.0),
            rsg_dag::workflows::fork_join(2, 5, 4.0, 2.0),
            RandomDagSpec {
                size: 120,
                ccr: 0.5,
                parallelism: 0.6,
                density: 0.5,
                regularity: 0.5,
                mean_comp: 20.0,
            }
            .generate(1),
        ];
        let rcs = vec![
            ResourceCollection::homogeneous(1, 1500.0),
            ResourceCollection::homogeneous(8, 2800.0),
            ResourceCollection::heterogeneous(8, 3000.0, 0.4, 3),
            ResourceCollection::homogeneous(8, 2800.0).with_bandwidth_heterogeneity(0.5, 5),
        ];
        for dag in &dags {
            for rc in &rcs {
                let ctx = crate::ExecutionContext::new(dag, rc);
                for kind in HeuristicKind::all() {
                    let (s, ops) = kind.run(&ctx);
                    s.validate(&ctx).unwrap_or_else(|e| {
                        panic!("{kind} invalid on {} x {} hosts: {e}", dag.name(), rc.len())
                    });
                    assert!(ops.0 > 0, "{kind} reported zero ops");
                }
            }
        }
    }

    #[test]
    fn parse_round_trips() {
        for k in HeuristicKind::all() {
            assert_eq!(HeuristicKind::parse(k.name()), Some(k));
        }
        assert_eq!(HeuristicKind::parse("nope"), None);
    }

    /// On a single host every heuristic serializes all work: makespan =
    /// total work / speed.
    #[test]
    fn single_host_serializes() {
        let dag = RandomDagSpec {
            size: 60,
            ccr: 1.0,
            parallelism: 0.5,
            density: 0.5,
            regularity: 0.5,
            mean_comp: 10.0,
        }
        .generate(9);
        let rc = ResourceCollection::homogeneous(1, 1500.0);
        let ctx = crate::ExecutionContext::new(&dag, &rc);
        for kind in HeuristicKind::all() {
            let (s, _) = kind.run(&ctx);
            assert!(
                (s.makespan() - dag.total_work()).abs() < 1e-6,
                "{kind}: {} vs {}",
                s.makespan(),
                dag.total_work()
            );
        }
    }

    /// MCP must never be worse than FCFS by more than a small factor on
    /// communication-heavy DAGs, and must beat it on average across
    /// seeds (it is the sophisticated reference heuristic).
    #[test]
    fn mcp_beats_fcfs_on_average() {
        let mut mcp_total = 0.0;
        let mut fcfs_total = 0.0;
        for seed in 0..5 {
            let dag = RandomDagSpec {
                size: 150,
                ccr: 1.0,
                parallelism: 0.5,
                density: 0.5,
                regularity: 0.5,
                mean_comp: 20.0,
            }
            .generate(seed);
            let rc = ResourceCollection::homogeneous(12, 1500.0);
            let ctx = crate::ExecutionContext::new(&dag, &rc);
            mcp_total += HeuristicKind::Mcp.run(&ctx).0.makespan();
            fcfs_total += HeuristicKind::Fcfs.run(&ctx).0.makespan();
        }
        assert!(
            mcp_total < fcfs_total,
            "MCP {mcp_total} should beat FCFS {fcfs_total} with CCR=1"
        );
    }
}
