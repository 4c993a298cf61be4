//! Platform deltas: the unit of change a live platform emits.
//!
//! The paper's universe is a static snapshot; a long-lived service
//! tracks a platform that moves underneath it — hosts join and leave,
//! clock rates and bandwidths drift, prices change. Each observed
//! change is one [`PlatformDelta`], serialized as a single TSV record
//! inside a checksummed delta journal (see `rsg-core`'s push module)
//! and applied transactionally to a [`Platform`] + [`CostModel`] pair.
//!
//! Deltas carry *absolute* target values, not increments, wherever the
//! quantity is continuous (`ClockDrift`, `BandwidthDrift`,
//! `PriceChange`): re-applying the same record is then idempotent by
//! construction, which is what lets the journal replay path tolerate
//! duplicates without bookkeeping. Host arithmetic (`HostJoin` /
//! `HostLeave`) is incremental and therefore guarded by sequence
//! numbers upstream.
//!
//! That upstream guard is [`DeltaSequencer`]: the one state machine
//! that orders a stream of [`DeltaRecord`]s onto a platform —
//! duplicates, reorderings, gaps, conflicting redeliveries and
//! transactional batch refusal. The push engine drives it live and
//! `rsg audit` drives it offline, so the two agree by construction.

use crate::cluster::ClusterId;
use crate::cost::CostModel;
use crate::generator::{MAX_CLOCK_MHZ, MIN_CLOCK_MHZ};
use crate::platform::Platform;
use std::collections::BTreeMap;
use std::fmt;

/// Largest host count a single delta may leave a cluster with. The
/// generator never produces clusters remotely this large; anything
/// bigger is a corrupt or hostile record, not a real grid.
pub const MAX_CLUSTER_HOSTS: u32 = 1_000_000;

/// Largest bandwidth scale factor a drift record may carry (uplinks do
/// get upgraded, but not 1000×, and a huge factor is how a bit-flipped
/// float usually presents).
pub const MAX_BANDWIDTH_FACTOR: f64 = 1000.0;

/// One observed change to the live platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlatformDelta {
    /// `hosts` additional hosts came up in `cluster`.
    HostJoin {
        /// Cluster gaining hosts.
        cluster: ClusterId,
        /// Number of hosts joining (≥ 1).
        hosts: u32,
    },
    /// `hosts` hosts left `cluster` (at least one must remain).
    HostLeave {
        /// Cluster losing hosts.
        cluster: ClusterId,
        /// Number of hosts leaving (≥ 1).
        hosts: u32,
    },
    /// `cluster` now runs at `clock_mhz` (DVFS step, hardware refresh).
    ClockDrift {
        /// Cluster whose clock moved.
        cluster: ClusterId,
        /// New clock rate, MHz (absolute, not a ratio).
        clock_mhz: f64,
    },
    /// `cluster`'s connectivity now delivers `factor` × its provisioned
    /// bandwidth (absolute scale, 1.0 = nominal).
    BandwidthDrift {
        /// Cluster whose links drifted.
        cluster: ClusterId,
        /// New bandwidth scale (absolute, in `(0, MAX_BANDWIDTH_FACTOR]`).
        factor: f64,
    },
    /// The provider repriced: dollars per host-hour at the reference
    /// clock (absolute).
    PriceChange {
        /// New price, $/host-hour at the reference clock.
        dollars_per_hour: f64,
    },
}

/// Why a delta was refused: either it cannot be parsed, or it names a
/// platform state no real grid reaches (the validation bounds double as
/// corruption detectors — a bit-flipped float lands outside them).
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaError {
    /// The TSV record did not decode as any delta kind.
    Parse(String),
    /// The delta names a cluster outside the platform.
    UnknownCluster(u32),
    /// A host count was zero or would exceed [`MAX_CLUSTER_HOSTS`].
    BadHostCount(String),
    /// `HostLeave` would empty (or underflow) the cluster.
    HostUnderflow {
        /// Cluster that would underflow.
        cluster: u32,
        /// Hosts currently in the cluster.
        have: u32,
        /// Hosts the delta tries to remove.
        remove: u32,
    },
    /// A clock rate outside the generator's physical envelope.
    BadClock(f64),
    /// A bandwidth factor that is non-finite, non-positive, or absurd.
    BadFactor(f64),
    /// A price that is non-finite or non-positive.
    BadPrice(f64),
    /// A redelivered sequence number carries a different payload than
    /// the record already accepted under it — the source is
    /// contradicting itself, and first-write-wins would silently pick
    /// one side.
    ConflictingSeq(u64),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Parse(s) => write!(f, "unparseable delta record: {s}"),
            DeltaError::UnknownCluster(c) => write!(f, "unknown cluster {c}"),
            DeltaError::BadHostCount(s) => write!(f, "bad host count: {s}"),
            DeltaError::HostUnderflow {
                cluster,
                have,
                remove,
            } => write!(
                f,
                "cluster {cluster} holds {have} hosts; removing {remove} would empty it"
            ),
            DeltaError::BadClock(c) => write!(
                f,
                "clock {c} MHz outside [{MIN_CLOCK_MHZ}, {MAX_CLOCK_MHZ}]"
            ),
            DeltaError::BadFactor(x) => write!(
                f,
                "bandwidth factor {x} outside (0, {MAX_BANDWIDTH_FACTOR}]"
            ),
            DeltaError::BadPrice(p) => write!(f, "price {p} $/h is not positive and finite"),
            DeltaError::ConflictingSeq(seq) => write!(
                f,
                "seq {seq} redelivered with a different payload than the record already accepted under it"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

impl PlatformDelta {
    /// Serializes the delta as a tab-separated record (no newline). The
    /// exact bytes are checksummed into the delta journal, so this
    /// format is append-only: new kinds may be added, existing fields
    /// never reordered.
    pub fn to_tsv(&self) -> String {
        match *self {
            PlatformDelta::HostJoin { cluster, hosts } => {
                format!("host-join\t{}\t{hosts}", cluster.index())
            }
            PlatformDelta::HostLeave { cluster, hosts } => {
                format!("host-leave\t{}\t{hosts}", cluster.index())
            }
            PlatformDelta::ClockDrift { cluster, clock_mhz } => {
                format!("clock-drift\t{}\t{clock_mhz}", cluster.index())
            }
            PlatformDelta::BandwidthDrift { cluster, factor } => {
                format!("bw-drift\t{}\t{factor}", cluster.index())
            }
            PlatformDelta::PriceChange { dollars_per_hour } => {
                format!("price\t{dollars_per_hour}")
            }
        }
    }

    /// Decodes one TSV record produced by [`to_tsv`](Self::to_tsv).
    /// Structural decode only — range validation happens in
    /// [`validate`](Self::validate) against a concrete platform.
    pub fn from_tsv(s: &str) -> Result<PlatformDelta, DeltaError> {
        let fields: Vec<&str> = s.split('\t').collect();
        let bad = || DeltaError::Parse(s.to_string());
        let cluster = |f: &str| -> Result<ClusterId, DeltaError> {
            f.parse::<u32>().map(ClusterId).map_err(|_| bad())
        };
        let float = |f: &str| -> Result<f64, DeltaError> { f.parse::<f64>().map_err(|_| bad()) };
        match fields.as_slice() {
            ["host-join", c, h] => Ok(PlatformDelta::HostJoin {
                cluster: cluster(c)?,
                hosts: h.parse().map_err(|_| bad())?,
            }),
            ["host-leave", c, h] => Ok(PlatformDelta::HostLeave {
                cluster: cluster(c)?,
                hosts: h.parse().map_err(|_| bad())?,
            }),
            ["clock-drift", c, m] => Ok(PlatformDelta::ClockDrift {
                cluster: cluster(c)?,
                clock_mhz: float(m)?,
            }),
            ["bw-drift", c, x] => Ok(PlatformDelta::BandwidthDrift {
                cluster: cluster(c)?,
                factor: float(x)?,
            }),
            ["price", p] => Ok(PlatformDelta::PriceChange {
                dollars_per_hour: float(p)?,
            }),
            _ => Err(bad()),
        }
    }

    /// Checks the delta against a concrete platform without mutating
    /// anything: cluster in range, resulting host counts sane, floats
    /// inside the generator's physical envelope. A delta that fails
    /// here is refused *before* any member of its batch is applied.
    pub fn validate(&self, platform: &Platform) -> Result<(), DeltaError> {
        let check_cluster = |id: ClusterId| -> Result<(), DeltaError> {
            if id.index() < platform.clusters().len() {
                Ok(())
            } else {
                Err(DeltaError::UnknownCluster(id.0))
            }
        };
        match *self {
            PlatformDelta::HostJoin { cluster, hosts } => {
                check_cluster(cluster)?;
                let have = platform.clusters()[cluster.index()].hosts;
                if hosts == 0 || have.saturating_add(hosts) > MAX_CLUSTER_HOSTS {
                    return Err(DeltaError::BadHostCount(format!(
                        "join of {hosts} onto {have}"
                    )));
                }
                Ok(())
            }
            PlatformDelta::HostLeave { cluster, hosts } => {
                check_cluster(cluster)?;
                let have = platform.clusters()[cluster.index()].hosts;
                if hosts == 0 {
                    return Err(DeltaError::BadHostCount("leave of 0".to_string()));
                }
                if hosts >= have {
                    return Err(DeltaError::HostUnderflow {
                        cluster: cluster.0,
                        have,
                        remove: hosts,
                    });
                }
                Ok(())
            }
            PlatformDelta::ClockDrift { cluster, clock_mhz } => {
                check_cluster(cluster)?;
                if !clock_mhz.is_finite() || !(MIN_CLOCK_MHZ..=MAX_CLOCK_MHZ).contains(&clock_mhz) {
                    return Err(DeltaError::BadClock(clock_mhz));
                }
                Ok(())
            }
            PlatformDelta::BandwidthDrift { cluster, factor } => {
                check_cluster(cluster)?;
                if !factor.is_finite() || factor <= 0.0 || factor > MAX_BANDWIDTH_FACTOR {
                    return Err(DeltaError::BadFactor(factor));
                }
                Ok(())
            }
            PlatformDelta::PriceChange { dollars_per_hour } => {
                if !dollars_per_hour.is_finite() || dollars_per_hour <= 0.0 {
                    return Err(DeltaError::BadPrice(dollars_per_hour));
                }
                Ok(())
            }
        }
    }

    /// Applies the (pre-validated) delta to the platform/cost pair.
    /// Call [`validate`](Self::validate) first; this re-checks the same
    /// bounds and returns the same errors, so a racing mutation can
    /// never smuggle an invalid state in between the two calls.
    pub fn apply(&self, platform: &mut Platform, cost: &mut CostModel) -> Result<(), DeltaError> {
        self.validate(platform)?;
        match *self {
            PlatformDelta::HostJoin { cluster, hosts } => {
                let have = platform.clusters()[cluster.index()].hosts;
                platform.set_cluster_hosts(cluster, have + hosts);
            }
            PlatformDelta::HostLeave { cluster, hosts } => {
                let have = platform.clusters()[cluster.index()].hosts;
                platform.set_cluster_hosts(cluster, have - hosts);
            }
            PlatformDelta::ClockDrift { cluster, clock_mhz } => {
                platform.set_cluster_clock(cluster, clock_mhz);
            }
            PlatformDelta::BandwidthDrift { cluster, factor } => {
                platform.set_bw_scale(cluster, factor);
            }
            PlatformDelta::PriceChange { dollars_per_hour } => {
                cost.dollars_per_hour = dollars_per_hour;
            }
        }
        Ok(())
    }

    /// Whether the delta lands exactly on a physical clamp boundary
    /// (`MIN_CLOCK_MHZ` / `MAX_CLOCK_MHZ`). Such a record is *valid*,
    /// but a source that reports a clock pinned to the envelope edge is
    /// usually clamping an out-of-range reading upstream — worth a
    /// warning from an offline audit, never a runtime refusal.
    pub fn saturates_clock_clamp(&self) -> bool {
        match *self {
            PlatformDelta::ClockDrift { clock_mhz, .. } => {
                clock_mhz == MIN_CLOCK_MHZ || clock_mhz == MAX_CLOCK_MHZ
            }
            _ => false,
        }
    }
}

/// Out-of-order records the sequencer will park before refusing more.
/// A hostile stream of far-future sequence numbers fills this buffer
/// and then gets rejected record-by-record — it can never exhaust
/// memory.
pub const MAX_PARKED: usize = 4096;

/// One sequenced platform delta, as carried by the delta journal and
/// the admin endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaRecord {
    /// Position in the delta stream; starts at 1, strictly increasing
    /// at the source.
    pub seq: u64,
    /// The platform change itself.
    pub delta: PlatformDelta,
}

/// What one [`DeltaSequencer::submit_batch`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SequenceOutcome {
    /// Records applied to the platform (batch + drained parked).
    pub applied: usize,
    /// Records skipped as duplicates.
    pub duplicates: usize,
    /// Records parked awaiting a gap fill.
    pub parked: usize,
    /// Previously parked records dropped at drain time (invalid against
    /// the state the gap fill produced), plus records refused by
    /// parked-buffer overflow.
    pub rejected: usize,
    /// Whether this batch closed a pre-existing sequence gap.
    pub resynced: bool,
}

/// The delta-sequencing state machine over a `Platform + CostModel`
/// pair: which records apply, in what order, and which are skipped,
/// parked or refused. Pure — no I/O, no clock, no model recompute — so
/// the live engine and the offline audit share it.
#[derive(Debug, Clone)]
pub struct DeltaSequencer {
    platform: Platform,
    cost: CostModel,
    pending: BTreeMap<u64, DeltaRecord>,
    applied_seq: u64,
    highest_seen: u64,
}

impl DeltaSequencer {
    /// Starts at sequence zero over a base platform and cost model.
    pub fn new(platform: Platform, cost: CostModel) -> DeltaSequencer {
        DeltaSequencer {
            platform,
            cost,
            pending: BTreeMap::new(),
            applied_seq: 0,
            highest_seen: 0,
        }
    }

    /// The platform with every applied delta folded in.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The cost model with every applied delta folded in.
    pub fn cost(&self) -> CostModel {
        self.cost
    }

    /// Highest contiguously applied sequence number.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// Highest sequence number ever *accepted* — applied or parked.
    /// Records refused by parked-buffer overflow do not count: the
    /// caller was told they were refused, so they must not inflate the
    /// lag until they are actually redelivered.
    pub fn highest_seen(&self) -> u64 {
        self.highest_seen
    }

    /// The lowest missing sequence number, when a gap is open.
    pub fn gap(&self) -> Option<u64> {
        if self.pending.is_empty() {
            None
        } else {
            Some(self.applied_seq + 1)
        }
    }

    /// `highest_seen - applied_seq`: 0 means fully current.
    pub fn lag(&self) -> u64 {
        self.highest_seen - self.applied_seq
    }

    /// Sequences a batch of delta records transactionally.
    ///
    /// Classification per record, in `seq` order: `seq ≤ applied`, or
    /// already parked with the *same* payload → duplicate, skipped
    /// idempotently; already parked with a *different* payload → the
    /// source is contradicting itself, and the whole batch is refused
    /// with [`DeltaError::ConflictingSeq`] rather than silently picking
    /// a side; contiguous with the applied prefix → applied (possibly
    /// draining parked records behind it); future → parked (bounded by
    /// [`MAX_PARKED`]; overflow rejects the record, never grows memory,
    /// and does not advance `highest_seen`).
    ///
    /// Validation is all-or-nothing for the *incoming* records: every
    /// delta that would apply is applied to a scratch copy of the
    /// state, and any failure returns `Err` with no state change at
    /// all. A *previously parked* record that turns out invalid when
    /// its gap finally fills is dropped and its sequence number skipped
    /// — a poisoned record must not wedge the stream forever.
    pub fn submit_batch(&mut self, records: &[DeltaRecord]) -> Result<SequenceOutcome, DeltaError> {
        let mut out = SequenceOutcome::default();
        let gap_was_open = !self.pending.is_empty();

        // Stage everything on scratch copies; commit only on success.
        let mut platform = self.platform.clone();
        let mut cost = self.cost;
        let mut pending = self.pending.clone();
        let mut applied_seq = self.applied_seq;
        let mut highest_seen = self.highest_seen;

        let mut incoming: Vec<DeltaRecord> = records.to_vec();
        incoming.sort_by_key(|r| r.seq);

        for rec in &incoming {
            if rec.seq <= applied_seq {
                out.duplicates += 1;
                continue;
            }
            if let Some(parked) = pending.get(&rec.seq) {
                if parked.delta == rec.delta {
                    out.duplicates += 1;
                    continue;
                }
                return Err(DeltaError::ConflictingSeq(rec.seq));
            }
            if rec.seq == applied_seq + 1 {
                rec.delta.apply(&mut platform, &mut cost)?;
                applied_seq = rec.seq;
                highest_seen = highest_seen.max(rec.seq);
                out.applied += 1;
                // Drain parked records now contiguous. These were
                // accepted in an earlier batch; one the gap fill made
                // invalid is dropped rather than wedging the stream.
                while let Some(next) = pending.remove(&(applied_seq + 1)) {
                    match next.delta.apply(&mut platform, &mut cost) {
                        Ok(()) => out.applied += 1,
                        Err(_) => out.rejected += 1,
                    }
                    applied_seq = next.seq;
                    highest_seen = highest_seen.max(next.seq);
                }
            } else if pending.len() >= MAX_PARKED {
                out.rejected += 1;
            } else {
                // Structural validation only — range checks against
                // the platform happen at drain time, once the
                // intervening records have shaped the state.
                pending.insert(rec.seq, *rec);
                out.parked += 1;
                highest_seen = highest_seen.max(rec.seq);
            }
        }

        self.platform = platform;
        self.cost = cost;
        self.pending = pending;
        self.applied_seq = applied_seq;
        self.highest_seen = highest_seen;
        // A resync completes when a batch drains a previously parked
        // buffer: the gap that forced the quarantine is closed.
        out.resynced = gap_was_open && out.applied > 0 && self.pending.is_empty();
        Ok(out)
    }

    /// Sequences a recovered journal with the boot-replay discipline:
    /// one record per batch, in file order, each refusal dropped and
    /// collected as `(seq, error)` instead of poisoning the rest of the
    /// stream.
    pub fn replay(&mut self, records: &[DeltaRecord]) -> Vec<(u64, DeltaError)> {
        records
            .iter()
            .filter_map(|rec| {
                self.submit_batch(std::slice::from_ref(rec))
                    .err()
                    .map(|e| (rec.seq, e))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ResourceGenSpec;
    use crate::topology::TopologySpec;

    fn platform() -> Platform {
        Platform::generate(
            ResourceGenSpec {
                clusters: 10,
                year: 2006,
                target_hosts: Some(300),
            },
            TopologySpec::default(),
            3,
        )
    }

    #[test]
    fn tsv_round_trips_every_kind() {
        let deltas = [
            PlatformDelta::HostJoin {
                cluster: ClusterId(3),
                hosts: 17,
            },
            PlatformDelta::HostLeave {
                cluster: ClusterId(0),
                hosts: 1,
            },
            PlatformDelta::ClockDrift {
                cluster: ClusterId(9),
                clock_mhz: 2312.5,
            },
            PlatformDelta::BandwidthDrift {
                cluster: ClusterId(2),
                factor: 0.25,
            },
            PlatformDelta::PriceChange {
                dollars_per_hour: 0.12,
            },
        ];
        for d in deltas {
            let tsv = d.to_tsv();
            assert_eq!(PlatformDelta::from_tsv(&tsv).unwrap(), d, "{tsv}");
        }
    }

    #[test]
    fn from_tsv_rejects_garbage() {
        for bad in [
            "",
            "host-join",
            "host-join\tx\t3",
            "host-join\t1\t-2",
            "clock-drift\t1",
            "price\tNaNo",
            "teleport\t1\t2",
            "host-join\t1\t2\t3",
        ] {
            assert!(
                matches!(PlatformDelta::from_tsv(bad), Err(DeltaError::Parse(_))),
                "{bad:?} should fail to parse"
            );
        }
    }

    #[test]
    fn validate_bounds() {
        let p = platform();
        let n = p.clusters().len() as u32;
        assert!(matches!(
            PlatformDelta::HostJoin {
                cluster: ClusterId(n),
                hosts: 1
            }
            .validate(&p),
            Err(DeltaError::UnknownCluster(_))
        ));
        let have = p.clusters()[0].hosts;
        assert!(matches!(
            PlatformDelta::HostLeave {
                cluster: ClusterId(0),
                hosts: have
            }
            .validate(&p),
            Err(DeltaError::HostUnderflow { .. })
        ));
        assert!(matches!(
            PlatformDelta::ClockDrift {
                cluster: ClusterId(0),
                clock_mhz: f64::NAN
            }
            .validate(&p),
            Err(DeltaError::BadClock(_))
        ));
        assert!(matches!(
            PlatformDelta::BandwidthDrift {
                cluster: ClusterId(0),
                factor: 0.0
            }
            .validate(&p),
            Err(DeltaError::BadFactor(_))
        ));
        assert!(matches!(
            PlatformDelta::PriceChange {
                dollars_per_hour: -1.0
            }
            .validate(&p),
            Err(DeltaError::BadPrice(_))
        ));
    }

    #[test]
    fn apply_mutates_platform_and_cost() {
        let mut p = platform();
        let mut cost = CostModel::default();
        let c = p.clusters()[4].id;
        let before = p.clusters()[4].hosts;
        PlatformDelta::HostJoin {
            cluster: c,
            hosts: 5,
        }
        .apply(&mut p, &mut cost)
        .unwrap();
        assert_eq!(p.clusters()[4].hosts, before + 5);
        PlatformDelta::ClockDrift {
            cluster: c,
            clock_mhz: 2000.0,
        }
        .apply(&mut p, &mut cost)
        .unwrap();
        assert_eq!(p.clusters()[4].clock_mhz, 2000.0);
        PlatformDelta::PriceChange {
            dollars_per_hour: 0.42,
        }
        .apply(&mut p, &mut cost)
        .unwrap();
        assert_eq!(cost.dollars_per_hour, 0.42);
    }

    #[test]
    fn bandwidth_drift_shrinks_bandwidth_and_grows_comm_factor() {
        let mut p = platform();
        let mut cost = CostModel::default();
        let a = p.clusters()[0].id;
        let b = p.clusters()[1].id;
        let bw0 = p.bandwidth_bps(a, b);
        let cf0 = p.comm_factor(a, b);
        PlatformDelta::BandwidthDrift {
            cluster: a,
            factor: 0.1,
        }
        .apply(&mut p, &mut cost)
        .unwrap();
        assert!(p.bandwidth_bps(a, b) < bw0);
        assert!(p.comm_factor(a, b) > cf0);
        // Intra-cluster stays at the reference regardless of drift.
        assert_eq!(p.comm_factor(a, a), 1.0);
        // Restoring the nominal factor restores the original numbers
        // bit-for-bit (absolute scale, not compounding).
        PlatformDelta::BandwidthDrift {
            cluster: a,
            factor: 1.0,
        }
        .apply(&mut p, &mut cost)
        .unwrap();
        assert_eq!(p.bandwidth_bps(a, b), bw0);
        assert_eq!(p.comm_factor(a, b), cf0);
    }
}
