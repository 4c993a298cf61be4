//! Schedules and the schedule validator.
//!
//! A [`Schedule`] is the output of a heuristic: per-task host assignment
//! and start/finish times. [`Schedule::validate`] replays the schedule
//! against the execution model and rejects any violation — precedence,
//! data-arrival, intra-host overlap, or timing inconsistencies — and is
//! used by the test suites as the ground-truth oracle for every
//! heuristic.

use crate::context::ExecutionContext;
use rsg_dag::TaskId;
use std::fmt;

/// The makespan of a schedule given its tasks' start and finish times
/// (see [`Schedule::makespan`]).
pub(crate) fn makespan(start: impl Iterator<Item = f64>, finish: impl Iterator<Item = f64>) -> f64 {
    let end = finish.fold(0.0f64, f64::max);
    let begin = start.fold(f64::INFINITY, f64::min);
    end - begin.max(0.0)
}

/// A complete mapping of tasks to hosts and time slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Host index per task.
    pub host: Vec<u32>,
    /// Start time per task, seconds.
    pub start: Vec<f64>,
    /// Finish time per task, seconds.
    pub finish: Vec<f64>,
}

impl Schedule {
    /// An empty schedule sized for `n` tasks.
    pub fn with_capacity(n: usize) -> Schedule {
        Schedule {
            host: vec![u32::MAX; n],
            start: vec![0.0; n],
            finish: vec![0.0; n],
        }
    }

    /// The application makespan: time between the earliest task start
    /// and the latest task completion (Section III.1.1).
    pub fn makespan(&self) -> f64 {
        makespan(self.start.iter().copied(), self.finish.iter().copied())
    }

    /// Number of distinct hosts actually used.
    pub fn hosts_used(&self) -> usize {
        let mut hs: Vec<u32> = self.host.clone();
        hs.sort_unstable();
        hs.dedup();
        hs.len()
    }

    /// Checks the schedule against the execution model.
    pub fn validate(&self, ctx: &ExecutionContext<'_>) -> Result<(), ScheduleError> {
        let n = ctx.dag.len();
        if self.host.len() != n || self.start.len() != n || self.finish.len() != n {
            return Err(ScheduleError::WrongLength);
        }
        let hosts = ctx.hosts() as u32;
        for t in ctx.dag.tasks() {
            let i = t.index();
            if self.host[i] >= hosts {
                return Err(ScheduleError::UnassignedTask(t));
            }
            if self.start[i] < -1e-9 {
                return Err(ScheduleError::NegativeStart(t));
            }
            let expect = self.start[i] + ctx.task_time(t, self.host[i] as usize);
            if (self.finish[i] - expect).abs() > 1e-6 * expect.max(1.0) {
                return Err(ScheduleError::DurationMismatch(t));
            }
            // Data-arrival: every input must have landed.
            let ready = ctx.data_ready(t, self.host[i] as usize, &self.finish, &self.host);
            if self.start[i] + 1e-6 * ready.max(1.0) < ready {
                return Err(ScheduleError::DataNotReady(t));
            }
        }
        // Intra-host overlap: sort tasks per host by start time.
        let mut by_host: Vec<Vec<usize>> = vec![Vec::new(); hosts as usize];
        for i in 0..n {
            by_host[self.host[i] as usize].push(i);
        }
        for tasks in &mut by_host {
            tasks.sort_by(|&a, &b| self.start[a].partial_cmp(&self.start[b]).unwrap());
            for w in tasks.windows(2) {
                let (a, b) = (w[0], w[1]);
                if self.start[b] + 1e-6 * self.finish[a].max(1.0) < self.finish[a] {
                    return Err(ScheduleError::HostOverlap(
                        TaskId(a as u32),
                        TaskId(b as u32),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Violations detected by [`Schedule::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleError {
    /// Schedule vectors do not match the DAG size.
    WrongLength,
    /// A task has no valid host.
    UnassignedTask(TaskId),
    /// A task starts before time zero.
    NegativeStart(TaskId),
    /// finish ≠ start + execution time.
    DurationMismatch(TaskId),
    /// A task starts before its inputs arrive.
    DataNotReady(TaskId),
    /// Two tasks overlap on one host.
    HostOverlap(TaskId, TaskId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::WrongLength => write!(f, "schedule length mismatch"),
            ScheduleError::UnassignedTask(t) => write!(f, "task {t} unassigned"),
            ScheduleError::NegativeStart(t) => write!(f, "task {t} starts before 0"),
            ScheduleError::DurationMismatch(t) => write!(f, "task {t} duration mismatch"),
            ScheduleError::DataNotReady(t) => write!(f, "task {t} starts before inputs arrive"),
            ScheduleError::HostOverlap(a, b) => write!(f, "tasks {a} and {b} overlap on a host"),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_dag::DagBuilder;
    use rsg_platform::ResourceCollection;

    fn fixture() -> (rsg_dag::Dag, ResourceCollection) {
        let mut b = DagBuilder::new();
        let a = b.add_task(15.0);
        let c = b.add_task(15.0);
        b.add_edge(a, c, 3.0).unwrap();
        (
            b.build().unwrap(),
            ResourceCollection::homogeneous(2, 1500.0),
        )
    }

    #[test]
    fn valid_colocated_schedule() {
        let (dag, rc) = fixture();
        let ctx = ExecutionContext::new(&dag, &rc);
        let s = Schedule {
            host: vec![0, 0],
            start: vec![0.0, 15.0],
            finish: vec![15.0, 30.0],
        };
        assert!(s.validate(&ctx).is_ok());
        assert!((s.makespan() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn cross_host_needs_transfer() {
        let (dag, rc) = fixture();
        let ctx = ExecutionContext::new(&dag, &rc);
        // Starting the child at parent finish on another host skips the
        // 3 s transfer.
        let bad = Schedule {
            host: vec![0, 1],
            start: vec![0.0, 15.0],
            finish: vec![15.0, 30.0],
        };
        assert_eq!(
            bad.validate(&ctx),
            Err(ScheduleError::DataNotReady(TaskId(1)))
        );
        let good = Schedule {
            host: vec![0, 1],
            start: vec![0.0, 18.0],
            finish: vec![15.0, 33.0],
        };
        assert!(good.validate(&ctx).is_ok());
    }

    #[test]
    fn overlap_detected() {
        let (dag, rc) = fixture();
        let ctx = ExecutionContext::new(&dag, &rc);
        let mut b = DagBuilder::new();
        b.add_task(15.0);
        b.add_task(15.0);
        let dag2 = b.build().unwrap();
        let ctx2 = ExecutionContext::new(&dag2, &rc);
        let s = Schedule {
            host: vec![0, 0],
            start: vec![0.0, 10.0],
            finish: vec![15.0, 25.0],
        };
        assert!(matches!(
            s.validate(&ctx2),
            Err(ScheduleError::HostOverlap(_, _))
        ));
        let _ = ctx;
    }

    #[test]
    fn duration_mismatch_detected() {
        let (dag, rc) = fixture();
        let ctx = ExecutionContext::new(&dag, &rc);
        let s = Schedule {
            host: vec![0, 0],
            start: vec![0.0, 15.0],
            finish: vec![14.0, 30.0],
        };
        assert_eq!(
            s.validate(&ctx),
            Err(ScheduleError::DurationMismatch(TaskId(0)))
        );
    }

    #[test]
    fn unassigned_detected() {
        let (dag, rc) = fixture();
        let ctx = ExecutionContext::new(&dag, &rc);
        let s = Schedule::with_capacity(2);
        assert!(matches!(
            s.validate(&ctx),
            Err(ScheduleError::UnassignedTask(_))
        ));
    }

    #[test]
    fn hosts_used_counts_distinct() {
        let s = Schedule {
            host: vec![0, 1, 0, 3],
            start: vec![0.0; 4],
            finish: vec![1.0; 4],
        };
        assert_eq!(s.hosts_used(), 3);
    }
}
