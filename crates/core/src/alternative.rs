//! Alternative resource specifications (Section VII.4).
//!
//! When the best resource request cannot be fulfilled — not enough
//! 3.5 GHz hosts, say — the generator degrades the specification along
//! an ordered ladder instead of failing: (1) a slower clock tier with a
//! compensating size increase (the Figure VII-6/VII-7 trade-off), (2) a
//! wider heterogeneity tolerance, (3) the smaller RC size of a more
//! permissive knee threshold. A negotiation loop walks the ladder
//! against an actual selector until something binds.
//!
//! Two negotiators are provided. [`negotiate`] is the simple walk: one
//! ask per rung, first bind wins. [`negotiate_with_retry`] is the
//! robust variant for flaky selectors (see `rsg_select::flaky`): it
//! distinguishes *transient* failures (injected rejections, timeouts —
//! retried on the same rung with capped exponential backoff) from
//! *permanent* ones (the platform genuinely lacks the resources —
//! descend immediately, re-asking is futile), enforces a per-attempt
//! deadline and a total negotiation deadline, and terminates in an
//! explicit [`Unfulfillable`] outcome instead of looping forever. All
//! time is simulated: latencies and backoffs accumulate on a virtual
//! clock, so experiments are fast and deterministic.

use crate::curve::{mean_turnaround, CurveConfig, CurveEvaluator, RcFamily};
use crate::specgen::ResourceSpec;
use rsg_dag::Dag;
use rsg_obs::{Counter, TimingHistogram};
use rsg_platform::ResourceCollection;
use rsg_select::flaky::SelectionOutcome;

/// How a spec was degraded relative to the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Degradation {
    /// The original request.
    None,
    /// Moved to a slower clock tier with a compensating size increase.
    SlowerClock,
    /// Widened the tolerated clock range.
    WiderHeterogeneity,
    /// Accepted a smaller collection (more permissive threshold).
    SmallerSize,
}

/// An alternative specification with its provenance and its predicted
/// turnaround (for ordering).
#[derive(Debug, Clone, PartialEq)]
pub struct Alternative {
    /// The degraded spec.
    pub spec: ResourceSpec,
    /// What was degraded.
    pub degradation: Degradation,
    /// Predicted turnaround of the degraded request, seconds.
    pub predicted_turnaround_s: f64,
}

/// The size multiplier needed when moving from `clock_hi` to `clock_lo`
/// so the slower tier matches the faster tier's turnaround, measured
/// empirically on the DAG (Figure VII-7's "relative RC size
/// threshold"). Returns `None` when no size on the slower tier matches
/// within the DAG width.
pub fn tier_size_threshold(
    dags: &[Dag],
    size_hi: usize,
    clock_hi_mhz: f64,
    clock_lo_mhz: f64,
    cfg: &CurveConfig,
) -> Option<f64> {
    assert!(clock_lo_mhz < clock_hi_mhz);
    let at_clock = |clock_mhz: f64| CurveConfig {
        rc_family: RcFamily {
            clock_mhz,
            ..cfg.rc_family
        },
        ..*cfg
    };
    let width = max_width(dags);
    let target = mean_turnaround(dags, size_hi, &at_clock(clock_hi_mhz));
    let mut lo = CurveEvaluator::new(dags, &at_clock(clock_lo_mhz), width);
    size_ratio_matching(target, size_hi, width, |s| lo.mean_turnaround(s))
}

/// Walks sizes upward from `size_hi` until `turnaround` matches
/// `target` (2% slack) or `width` is exhausted; returns the matching
/// size relative to `size_hi`.
fn size_ratio_matching(
    target: f64,
    size_hi: usize,
    width: usize,
    mut turnaround: impl FnMut(usize) -> f64,
) -> Option<f64> {
    let mut s = size_hi.max(1);
    while s <= width {
        if turnaround(s) <= target * 1.02 {
            return Some(s as f64 / size_hi.max(1) as f64);
        }
        s = ((s as f64) * 1.25).ceil() as usize;
    }
    None
}

fn max_width(dags: &[Dag]) -> usize {
    dags.iter().map(|d| d.width() as usize).max().unwrap_or(1)
}

/// Builds the ordered alternative ladder for a spec.
///
/// `clock_tiers` must be descending (e.g. `[3500, 3000, 2500]` MHz);
/// `dags` ground the turnaround predictions.
pub fn alternatives(
    original: &ResourceSpec,
    dags: &[Dag],
    clock_tiers: &[f64],
    cfg: &CurveConfig,
) -> Vec<Alternative> {
    let mut out = Vec::new();
    let width = max_width(dags);
    // One memoizing evaluator per RC family (clock, heterogeneity): the
    // original size is also every tier search's target, and a tier's
    // chosen size was already scheduled by its search. Each is
    // scheduled once, with the numbers of `mean_turnaround`.
    let capacity = width.max(original.rc_size as usize);
    let mut families: Vec<CurveEvaluator<'_>> = Vec::new();
    let mut eval = |size: usize, clock: f64, het: f64| -> f64 {
        let rc_family = RcFamily {
            clock_mhz: clock,
            heterogeneity: het,
            ..cfg.rc_family
        };
        let i = match families.iter().position(|e| e.cfg().rc_family == rc_family) {
            Some(i) => i,
            None => {
                let family_cfg = CurveConfig { rc_family, ..*cfg };
                families.push(CurveEvaluator::new(dags, &family_cfg, capacity));
                families.len() - 1
            }
        };
        families[i].mean_turnaround(size.max(1))
    };

    // 0. The original.
    out.push(Alternative {
        spec: original.clone(),
        degradation: Degradation::None,
        predicted_turnaround_s: eval(original.rc_size as usize, original.clock_mhz.1, 0.0),
    });

    // 1. Slower clock tiers with compensating size. Tiers are deduped
    // and ordered descending so repeated inputs cannot produce
    // duplicate rungs.
    let mut tiers: Vec<f64> = clock_tiers
        .iter()
        .copied()
        .filter(|&t| t.is_finite() && t > 0.0 && t < original.clock_mhz.1)
        .collect();
    tiers.sort_by(|a, b| b.total_cmp(a));
    tiers.dedup();
    let size_hi = original.rc_size as usize;
    let search_het = cfg.rc_family.heterogeneity;
    for tier in tiers {
        // tier_size_threshold, with its evaluations served by the
        // shared evaluators.
        let target = eval(size_hi, original.clock_mhz.1, search_het);
        let ratio = size_ratio_matching(target, size_hi, width, |s| eval(s, tier, search_het))
            .unwrap_or(original.clock_mhz.1 / tier);
        let new_size = (((original.rc_size as f64) * ratio).round() as usize).clamp(1, width);
        let mut spec = original.clone();
        spec.clock_mhz = (tier * (1.0 - het_of(original)), tier);
        spec.rc_size = new_size as u32;
        spec.min_size = spec.min_size.min(spec.rc_size);
        out.push(Alternative {
            spec,
            degradation: Degradation::SlowerClock,
            predicted_turnaround_s: eval(new_size, tier, 0.0),
        });
    }

    // 2. Wider heterogeneity at the original tier — only when the range
    // actually widens (a request already at the 0.6 cap would otherwise
    // repeat rung 0 verbatim).
    {
        let wider = (het_of(original) + 0.3).min(0.6);
        if wider > het_of(original) + 1e-9 {
            let mut spec = original.clone();
            spec.clock_mhz = (original.clock_mhz.1 * (1.0 - wider), original.clock_mhz.1);
            out.push(Alternative {
                spec,
                degradation: Degradation::WiderHeterogeneity,
                predicted_turnaround_s: eval(
                    original.rc_size as usize,
                    original.clock_mhz.1,
                    wider,
                ),
            });
        }
    }

    // 3. Smaller size (the spec's own min_size floor).
    if original.min_size < original.rc_size {
        let mut spec = original.clone();
        spec.rc_size = original.min_size;
        out.push(Alternative {
            spec,
            degradation: Degradation::SmallerSize,
            predicted_turnaround_s: eval(original.min_size as usize, original.clock_mhz.1, 0.0),
        });
    }

    // Keep the original first; order the degraded tail by predicted
    // turnaround.
    out[1..].sort_by(|a, b| {
        a.predicted_turnaround_s
            .total_cmp(&b.predicted_turnaround_s)
    });
    debug_assert!(
        ladder_violations(&out).is_empty(),
        "alternatives() built an inconsistent ladder: {:?}",
        ladder_violations(&out)
    );
    out
}

/// Checks the structural invariants of a degradation ladder and
/// describes every violated one (empty for a healthy ladder): the first
/// rung is the undegraded original, every later rung is strictly weaker
/// than it along its declared degradation axis, the tail is ordered by
/// predicted turnaround, no rung repeats another's spec, and all
/// predictions are finite. `alternatives()` asserts this in debug
/// builds; `rsg-analyze` maps violations onto the SPEC007 diagnostic.
pub fn ladder_violations(ladder: &[Alternative]) -> Vec<String> {
    let mut out = Vec::new();
    let Some(first) = ladder.first() else {
        out.push("ladder is empty".to_string());
        return out;
    };
    if first.degradation != Degradation::None {
        out.push(format!(
            "rung 0 must be the undegraded original, got {:?}",
            first.degradation
        ));
    }
    let orig = &first.spec;
    for (i, alt) in ladder.iter().enumerate() {
        if !alt.predicted_turnaround_s.is_finite() {
            out.push(format!("rung {i}: non-finite predicted turnaround"));
        }
        if i == 0 {
            continue;
        }
        let weaker = match alt.degradation {
            Degradation::None => {
                out.push(format!("rung {i}: duplicate undegraded rung"));
                continue;
            }
            Degradation::SlowerClock => alt.spec.clock_mhz.1 < orig.clock_mhz.1,
            Degradation::WiderHeterogeneity => het_of(&alt.spec) > het_of(orig) + 1e-12,
            Degradation::SmallerSize => alt.spec.rc_size < orig.rc_size,
        };
        if !weaker {
            out.push(format!(
                "rung {i} ({:?}) is not strictly weaker than the original",
                alt.degradation
            ));
        }
    }
    for w in ladder.windows(2).enumerate().skip(1) {
        let (i, pair) = w;
        if pair[0].predicted_turnaround_s > pair[1].predicted_turnaround_s + 1e-9 {
            out.push(format!("degraded tail unordered at rungs {i}..{}", i + 1));
        }
    }
    for (i, a) in ladder.iter().enumerate() {
        for (j, b) in ladder.iter().enumerate().skip(i + 1) {
            if a.spec == b.spec {
                out.push(format!("rungs {i} and {j} carry identical specs"));
            }
        }
    }
    out
}

fn het_of(spec: &ResourceSpec) -> f64 {
    if spec.clock_mhz.1 > 0.0 {
        1.0 - spec.clock_mhz.0 / spec.clock_mhz.1
    } else {
        0.0
    }
}

/// Walks the alternative ladder against a selector callback until one
/// binds; returns the bound index and whatever the selector produced.
///
/// Each rung is asked exactly once (try-once-then-descend), so a
/// selector that always rejects terminates after `ladder.len()` asks.
pub fn negotiate<T>(
    ladder: &[Alternative],
    mut try_bind: impl FnMut(&ResourceSpec) -> Option<T>,
) -> Option<(usize, T)> {
    let policy = RetryPolicy {
        max_attempts_per_rung: 1,
        ..RetryPolicy::default()
    };
    negotiate_with_retry(ladder, &policy, |spec| match try_bind(spec) {
        Some(v) => BindAttempt::Bound {
            value: v,
            latency_s: 0.0,
        },
        None => BindAttempt::Rejected { latency_s: 0.0 },
    })
    .ok()
    .map(|n| (n.rung, n.value))
}

/// Negotiation attempts, by the rung's degradation kind.
fn attempts_counter(d: Degradation) -> &'static Counter {
    static NONE: Counter = Counter::new("core.negotiate.attempts.original");
    static CLOCK: Counter = Counter::new("core.negotiate.attempts.slower_clock");
    static HET: Counter = Counter::new("core.negotiate.attempts.wider_het");
    static SIZE: Counter = Counter::new("core.negotiate.attempts.smaller_size");
    match d {
        Degradation::None => &NONE,
        Degradation::SlowerClock => &CLOCK,
        Degradation::WiderHeterogeneity => &HET,
        Degradation::SmallerSize => &SIZE,
    }
}

/// Negotiations that bound a spec.
static OBS_BOUND: Counter = Counter::new("core.negotiate.bound");
/// Negotiations that terminated unfulfillable.
static OBS_UNFULFILLABLE: Counter = Counter::new("core.negotiate.unfulfillable");
/// Simulated backoff waits.
static OBS_BACKOFF: TimingHistogram = TimingHistogram::new("core.negotiate.backoff");

/// Retry/backoff/deadline knobs for [`negotiate_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Asks per rung before descending on transient failures (permanent
    /// rejections descend after one ask regardless). At least 1.
    pub max_attempts_per_rung: u32,
    /// First backoff wait, seconds; attempt `k` waits
    /// `base · 2^(k−1)`, capped.
    pub backoff_base_s: f64,
    /// Upper bound on a single backoff wait, seconds.
    pub backoff_cap_s: f64,
    /// Per-attempt response deadline: a reply slower than this is
    /// treated as a transient timeout (even a successful bind — the
    /// client already gave up), seconds.
    pub attempt_deadline_s: f64,
    /// Total simulated-time budget for the whole negotiation, seconds.
    pub total_deadline_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts_per_rung: 3,
            backoff_base_s: 0.5,
            backoff_cap_s: 8.0,
            attempt_deadline_s: 30.0,
            total_deadline_s: 300.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based count of failures
    /// so far): capped exponential.
    fn backoff_s(&self, attempt: u32) -> f64 {
        let exp = self.backoff_base_s * 2f64.powi(attempt.saturating_sub(1) as i32);
        exp.min(self.backoff_cap_s)
    }
}

/// One selector response, as the negotiator sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum BindAttempt<T> {
    /// The spec was bound.
    Bound {
        /// What the selector produced.
        value: T,
        /// Simulated response latency, seconds.
        latency_s: f64,
    },
    /// A transient failure (injected rejection, timeout, overload):
    /// retrying the *same* spec may succeed.
    Transient {
        /// Seconds burned on the failed ask.
        latency_s: f64,
    },
    /// A permanent rejection (the platform genuinely lacks matching
    /// resources): descend the ladder, re-asking is futile.
    Rejected {
        /// Seconds burned on the failed ask.
        latency_s: f64,
    },
}

/// Converts a flaky-selector outcome into a negotiator attempt:
/// full fulfillment binds; partial fulfillment binds iff at least
/// `min_size` hosts were delivered; injected rejections and timeouts
/// are transient; an unmatched platform is a permanent rejection.
pub fn attempt_from_outcome(
    outcome: SelectionOutcome,
    min_size: u32,
) -> BindAttempt<ResourceCollection> {
    match outcome {
        SelectionOutcome::Fulfilled { rc, latency_s } => BindAttempt::Bound {
            value: rc,
            latency_s,
        },
        SelectionOutcome::Partial { rc, latency_s, .. } => {
            if rc.len() >= min_size as usize {
                BindAttempt::Bound {
                    value: rc,
                    latency_s,
                }
            } else {
                BindAttempt::Transient { latency_s }
            }
        }
        SelectionOutcome::Rejected { latency_s } | SelectionOutcome::TimedOut { latency_s } => {
            BindAttempt::Transient { latency_s }
        }
        SelectionOutcome::Unmatched { latency_s } => BindAttempt::Rejected { latency_s },
    }
}

/// What a negotiation run did, whichever way it ended.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NegotiationStats {
    /// Selector asks issued.
    pub attempts: u64,
    /// Transient failures seen (including over-deadline replies).
    pub transient_failures: u64,
    /// Permanent rejections seen.
    pub permanent_rejections: u64,
    /// Ladder rungs visited.
    pub rungs_visited: usize,
    /// Simulated seconds spent waiting in backoff.
    pub backoff_total_s: f64,
    /// Total simulated negotiation time: latencies + backoffs, seconds.
    pub elapsed_s: f64,
}

/// A successful negotiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Negotiated<T> {
    /// Index of the rung that bound.
    pub rung: usize,
    /// What the selector produced.
    pub value: T,
    /// How much negotiating it took.
    pub stats: NegotiationStats,
}

/// Terminal failure: the ladder is exhausted or the deadline is spent.
/// No further negotiation can succeed under this policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unfulfillable {
    /// How much negotiating was done before giving up.
    pub stats: NegotiationStats,
    /// True when the total deadline, not ladder exhaustion, ended the
    /// negotiation.
    pub deadline_hit: bool,
}

impl std::fmt::Display for Unfulfillable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unfulfillable after {} attempts over {} rungs ({:.1}s simulated{})",
            self.stats.attempts,
            self.stats.rungs_visited,
            self.stats.elapsed_s,
            if self.deadline_hit {
                ", total deadline hit"
            } else {
                ", ladder exhausted"
            }
        )
    }
}

impl std::error::Error for Unfulfillable {}

/// Walks the ladder against a fallible selector with bounded retries.
///
/// Per rung: up to [`RetryPolicy::max_attempts_per_rung`] asks, with
/// capped exponential backoff between transient failures; a permanent
/// [`BindAttempt::Rejected`] descends immediately. A reply slower than
/// the per-attempt deadline counts as transient (latency clamped to the
/// deadline — the client stopped waiting). The negotiation is bounded:
/// at most `rungs × max_attempts` asks, and the simulated clock
/// (latencies + backoffs) must stay under
/// [`RetryPolicy::total_deadline_s`]. Always terminates with either a
/// [`Negotiated`] bind or an explicit [`Unfulfillable`].
pub fn negotiate_with_retry<T>(
    ladder: &[Alternative],
    policy: &RetryPolicy,
    mut try_bind: impl FnMut(&ResourceSpec) -> BindAttempt<T>,
) -> Result<Negotiated<T>, Unfulfillable> {
    let max_attempts = policy.max_attempts_per_rung.max(1);
    let mut stats = NegotiationStats::default();
    let mut clock_s = 0.0f64;

    for (rung, alt) in ladder.iter().enumerate() {
        stats.rungs_visited = rung + 1;
        let mut failures_on_rung = 0u32;
        for attempt in 1..=max_attempts {
            if clock_s >= policy.total_deadline_s {
                stats.elapsed_s = clock_s;
                OBS_UNFULFILLABLE.incr();
                return Err(Unfulfillable {
                    stats,
                    deadline_hit: true,
                });
            }
            stats.attempts += 1;
            attempts_counter(alt.degradation).incr();
            let reply = try_bind(&alt.spec);
            let (outcome, latency_s) = match reply {
                BindAttempt::Bound { value, latency_s } => {
                    if latency_s <= policy.attempt_deadline_s {
                        clock_s += latency_s;
                        stats.elapsed_s = clock_s;
                        OBS_BOUND.incr();
                        return Ok(Negotiated { rung, value, stats });
                    }
                    // The bind arrived after the client gave up.
                    (BindKind::Transient, policy.attempt_deadline_s)
                }
                BindAttempt::Transient { latency_s } => (
                    BindKind::Transient,
                    latency_s.min(policy.attempt_deadline_s),
                ),
                BindAttempt::Rejected { latency_s } => {
                    (BindKind::Rejected, latency_s.min(policy.attempt_deadline_s))
                }
            };
            clock_s += latency_s;
            match outcome {
                BindKind::Rejected => {
                    stats.permanent_rejections += 1;
                    break; // descend: re-asking this rung is futile
                }
                BindKind::Transient => {
                    stats.transient_failures += 1;
                    failures_on_rung += 1;
                    if attempt < max_attempts {
                        let wait = policy.backoff_s(failures_on_rung);
                        clock_s += wait;
                        stats.backoff_total_s += wait;
                        if rsg_obs::enabled() {
                            OBS_BACKOFF.record_secs(wait);
                        }
                    }
                }
            }
        }
    }
    stats.elapsed_s = clock_s;
    OBS_UNFULFILLABLE.incr();
    Err(Unfulfillable {
        stats,
        deadline_hit: false,
    })
}

/// Internal failure classification after deadline clamping.
enum BindKind {
    Transient,
    Rejected,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_sched::HeuristicKind;
    use rsg_select::vgdl::AggregateKind;

    fn spec(size: u32, clock: f64) -> ResourceSpec {
        ResourceSpec {
            rc_size: size,
            min_size: size / 2,
            clock_mhz: (clock, clock),
            heuristic: HeuristicKind::Mcp,
            aggregate: AggregateKind::TightBagOf,
            threshold: 0.001,
            memory_mb: 512,
        }
    }

    fn dags() -> Vec<Dag> {
        vec![rsg_dag::workflows::fork_join(4, 40, 10.0, 0.05)]
    }

    #[test]
    fn tier_threshold_requires_more_slow_hosts() {
        let ds = dags();
        let cfg = CurveConfig::default();
        // From 3.5 GHz to 3.0 GHz, matching turnaround needs >= 1 x as
        // many hosts (Figure VII-7 reports ratios above 1).
        if let Some(r) = tier_size_threshold(&ds, 10, 3500.0, 3000.0, &cfg) {
            assert!(r >= 1.0, "ratio {r}");
        }
    }

    #[test]
    fn rung_predictions_equal_fresh_mean_turnaround() {
        let ds = vec![
            rsg_dag::workflows::fork_join(4, 40, 10.0, 0.05),
            rsg_dag::workflows::fork_join(3, 25, 6.0, 0.2),
        ];
        for cfg in [
            CurveConfig::default(),
            CurveConfig {
                rc_family: RcFamily {
                    heterogeneity: 0.2,
                    seed: 3,
                    ..RcFamily::homogeneous(3500.0)
                },
                ..CurveConfig::default()
            },
        ] {
            let original = spec(10, 3500.0);
            let alts = alternatives(&original, &ds, &[3000.0, 2500.0, 2000.0], &cfg);
            assert!(alts.len() >= 5, "{alts:?}");
            for alt in &alts {
                // The heterogeneity each rung is predicted under.
                let het = match alt.degradation {
                    Degradation::WiderHeterogeneity => (het_of(&original) + 0.3).min(0.6),
                    _ => 0.0,
                };
                let rung_cfg = CurveConfig {
                    rc_family: RcFamily {
                        clock_mhz: alt.spec.clock_mhz.1,
                        heterogeneity: het,
                        ..cfg.rc_family
                    },
                    ..cfg
                };
                let fresh = mean_turnaround(&ds, alt.spec.rc_size as usize, &rung_cfg);
                assert_eq!(
                    alt.predicted_turnaround_s.to_bits(),
                    fresh.to_bits(),
                    "{:?} at {} hosts",
                    alt.degradation,
                    alt.spec.rc_size
                );
                // A slower tier's size is the public tier search's.
                if alt.degradation == Degradation::SlowerClock {
                    let ratio = tier_size_threshold(&ds, 10, 3500.0, alt.spec.clock_mhz.1, &cfg)
                        .unwrap_or(3500.0 / alt.spec.clock_mhz.1);
                    let width = max_width(&ds);
                    let size = ((10.0 * ratio).round() as usize).clamp(1, width);
                    assert_eq!(alt.spec.rc_size as usize, size);
                }
            }
        }
    }

    #[test]
    fn ladder_contains_all_degradations() {
        let ds = dags();
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3500.0, 3000.0],
            &CurveConfig::default(),
        );
        assert_eq!(alts[0].degradation, Degradation::None);
        let kinds: Vec<_> = alts.iter().map(|a| a.degradation).collect();
        assert!(kinds.contains(&Degradation::SlowerClock));
        assert!(kinds.contains(&Degradation::WiderHeterogeneity));
        assert!(kinds.contains(&Degradation::SmallerSize));
        // Degraded tail sorted by predicted turnaround.
        for w in alts[1..].windows(2) {
            assert!(w[0].predicted_turnaround_s <= w[1].predicted_turnaround_s + 1e-9);
        }
    }

    #[test]
    fn ladder_survives_duplicate_tiers_and_capped_het() {
        let ds = dags();
        // Duplicate and unordered tier inputs must not produce
        // duplicate rungs.
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3000.0, 3500.0, 3000.0, 3000.0],
            &CurveConfig::default(),
        );
        assert_eq!(
            alts.iter()
                .filter(|a| a.degradation == Degradation::SlowerClock)
                .count(),
            1
        );
        assert!(ladder_violations(&alts).is_empty());
        // A request already at the 0.6 heterogeneity cap gets no
        // wider-heterogeneity rung (it would repeat the original).
        let mut capped = spec(10, 3500.0);
        capped.clock_mhz = (3500.0 * 0.4, 3500.0);
        let alts = alternatives(&capped, &ds, &[3000.0], &CurveConfig::default());
        assert!(!alts
            .iter()
            .any(|a| a.degradation == Degradation::WiderHeterogeneity));
        assert!(ladder_violations(&alts).is_empty());
    }

    #[test]
    fn ladder_violations_flag_each_defect() {
        let ds = dags();
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3500.0, 3000.0],
            &CurveConfig::default(),
        );
        assert!(ladder_violations(&alts).is_empty());
        assert_eq!(ladder_violations(&[]), vec!["ladder is empty"]);

        // First rung degraded.
        let mut bad = alts.clone();
        bad[0].degradation = Degradation::SmallerSize;
        assert!(ladder_violations(&bad)
            .iter()
            .any(|v| v.contains("undegraded original")));

        // A rung that is not weaker than the original.
        let mut bad = alts.clone();
        if let Some(r) = bad
            .iter_mut()
            .find(|a| a.degradation == Degradation::SlowerClock)
        {
            r.spec.clock_mhz = (3500.0, 3600.0);
        }
        assert!(ladder_violations(&bad)
            .iter()
            .any(|v| v.contains("not strictly weaker")));

        // Unordered tail.
        let mut bad = alts.clone();
        let n = bad.len();
        bad[1].predicted_turnaround_s = bad[n - 1].predicted_turnaround_s + 100.0;
        assert!(ladder_violations(&bad)
            .iter()
            .any(|v| v.contains("unordered")));

        // Duplicate specs.
        let mut bad = alts;
        let clone = bad[0].spec.clone();
        bad[1].spec = clone;
        assert!(ladder_violations(&bad)
            .iter()
            .any(|v| v.contains("identical specs")));
    }

    #[test]
    fn negotiate_walks_until_bind() {
        let ds = dags();
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3500.0, 3000.0],
            &CurveConfig::default(),
        );
        // Selector that rejects everything at 3.5 GHz.
        let result = negotiate(&alts, |s| {
            if s.clock_mhz.1 < 3500.0 {
                Some(s.rc_size)
            } else {
                None
            }
        });
        let (idx, size) = result.unwrap();
        assert!(idx > 0);
        assert!(size >= 1);
        // Selector that always fails.
        assert!(negotiate(&alts, |_| Option::<u32>::None).is_none());
    }

    #[test]
    fn always_reject_selector_terminates_unfulfillable() {
        let ds = dags();
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3500.0, 3000.0],
            &CurveConfig::default(),
        );
        // Permanent rejections: exactly one ask per rung, then descend.
        let mut asks = 0u64;
        let err = negotiate_with_retry(&alts, &RetryPolicy::default(), |_| {
            asks += 1;
            BindAttempt::<u32>::Rejected { latency_s: 0.1 }
        })
        .unwrap_err();
        assert_eq!(asks, alts.len() as u64, "permanent rejects must not re-ask");
        assert_eq!(err.stats.attempts, asks);
        assert_eq!(err.stats.permanent_rejections, asks);
        assert_eq!(err.stats.rungs_visited, alts.len());
        assert!(!err.deadline_hit);

        // Transient failures: bounded by max_attempts_per_rung per rung.
        let policy = RetryPolicy {
            max_attempts_per_rung: 3,
            ..Default::default()
        };
        let mut asks = 0u64;
        let err = negotiate_with_retry(&alts, &policy, |_| {
            asks += 1;
            BindAttempt::<u32>::Transient { latency_s: 0.1 }
        })
        .unwrap_err();
        assert_eq!(asks, 3 * alts.len() as u64);
        assert_eq!(err.stats.transient_failures, asks);
        assert!(err.stats.backoff_total_s > 0.0);
        assert!(!err.deadline_hit);
    }

    #[test]
    fn transient_then_bind_retries_same_rung_with_backoff() {
        let ds = dags();
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3500.0, 3000.0],
            &CurveConfig::default(),
        );
        let mut calls = 0u32;
        let n = negotiate_with_retry(&alts, &RetryPolicy::default(), |s| {
            calls += 1;
            if calls < 3 {
                BindAttempt::Transient { latency_s: 1.0 }
            } else {
                BindAttempt::Bound {
                    value: s.rc_size,
                    latency_s: 1.0,
                }
            }
        })
        .unwrap();
        // Two transient failures then a bind — all on the original rung.
        assert_eq!(n.rung, 0);
        assert_eq!(n.stats.attempts, 3);
        assert_eq!(n.stats.transient_failures, 2);
        // Backoff: 0.5 + 1.0; elapsed: 3 x 1.0s latency + 1.5s backoff.
        assert!((n.stats.backoff_total_s - 1.5).abs() < 1e-12);
        assert!((n.stats.elapsed_s - 4.5).abs() < 1e-12);
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            backoff_base_s: 0.5,
            backoff_cap_s: 4.0,
            ..Default::default()
        };
        assert_eq!(p.backoff_s(1), 0.5);
        assert_eq!(p.backoff_s(2), 1.0);
        assert_eq!(p.backoff_s(3), 2.0);
        assert_eq!(p.backoff_s(4), 4.0);
        assert_eq!(p.backoff_s(10), 4.0, "cap must hold");
    }

    #[test]
    fn slow_bind_counts_as_transient_timeout() {
        let ds = dags();
        let alts = alternatives(&spec(10, 3500.0), &ds, &[3500.0], &CurveConfig::default());
        let policy = RetryPolicy {
            max_attempts_per_rung: 1,
            attempt_deadline_s: 5.0,
            ..Default::default()
        };
        // Every reply "succeeds" but takes 60s > 5s deadline: the
        // client never sees a bind.
        let err = negotiate_with_retry(&alts, &policy, |s| BindAttempt::Bound {
            value: s.rc_size,
            latency_s: 60.0,
        })
        .unwrap_err();
        assert_eq!(err.stats.transient_failures, err.stats.attempts);
        // Each ask burned only the deadline, not the full latency.
        assert!((err.stats.elapsed_s - 5.0 * err.stats.attempts as f64).abs() < 1e-9);
    }

    #[test]
    fn total_deadline_terminates_negotiation() {
        let ds = dags();
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3500.0, 3000.0],
            &CurveConfig::default(),
        );
        let policy = RetryPolicy {
            max_attempts_per_rung: 100,
            backoff_base_s: 10.0,
            backoff_cap_s: 10.0,
            total_deadline_s: 35.0,
            ..Default::default()
        };
        let err = negotiate_with_retry(&alts, &policy, |_| BindAttempt::<u32>::Transient {
            latency_s: 1.0,
        })
        .unwrap_err();
        assert!(err.deadline_hit);
        // 1s ask + 10s backoff per attempt: the 35s budget allows ~4
        // asks, far below 100 per rung.
        assert!(err.stats.attempts <= 5, "attempts {}", err.stats.attempts);
    }

    #[test]
    fn attempt_mapping_from_selector_outcomes() {
        let rc = |n: usize| rsg_platform::ResourceCollection::homogeneous(n, 1500.0);
        assert!(matches!(
            attempt_from_outcome(
                SelectionOutcome::Fulfilled {
                    rc: rc(10),
                    latency_s: 0.5
                },
                5
            ),
            BindAttempt::Bound { .. }
        ));
        // Partial above the floor binds; below it is transient.
        assert!(matches!(
            attempt_from_outcome(
                SelectionOutcome::Partial {
                    rc: rc(6),
                    found: 10,
                    latency_s: 0.5
                },
                5
            ),
            BindAttempt::Bound { .. }
        ));
        assert!(matches!(
            attempt_from_outcome(
                SelectionOutcome::Partial {
                    rc: rc(3),
                    found: 10,
                    latency_s: 0.5
                },
                5
            ),
            BindAttempt::Transient { .. }
        ));
        assert!(matches!(
            attempt_from_outcome(SelectionOutcome::Rejected { latency_s: 0.5 }, 5),
            BindAttempt::Transient { .. }
        ));
        assert!(matches!(
            attempt_from_outcome(SelectionOutcome::TimedOut { latency_s: 60.0 }, 5),
            BindAttempt::Transient { .. }
        ));
        assert!(matches!(
            attempt_from_outcome(SelectionOutcome::Unmatched { latency_s: 0.5 }, 5),
            BindAttempt::Rejected { .. }
        ));
    }

    #[test]
    fn legacy_negotiate_still_walks_once_per_rung() {
        let ds = dags();
        let alts = alternatives(
            &spec(10, 3500.0),
            &ds,
            &[3500.0, 3000.0],
            &CurveConfig::default(),
        );
        let mut asks = 0usize;
        let result = negotiate(&alts, |s| {
            asks += 1;
            (s.clock_mhz.1 < 3500.0).then_some(s.rc_size)
        });
        let (idx, _) = result.unwrap();
        assert!(idx > 0);
        assert_eq!(asks, idx + 1, "one ask per rung up to the bind");
    }

    #[test]
    fn slower_tier_size_never_exceeds_width() {
        let ds = dags();
        let width = ds[0].width();
        let alts = alternatives(
            &spec(width, 3500.0),
            &ds,
            &[3500.0, 1750.0],
            &CurveConfig::default(),
        );
        for a in &alts {
            assert!(a.spec.rc_size <= width);
        }
    }
}
