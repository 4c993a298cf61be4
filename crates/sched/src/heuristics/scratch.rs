//! Per-thread kernel scratch: reusable buffers for the placement hot
//! path, so a sweep's thousands of kernel invocations reach zero
//! steady-state allocation in the inner loop.
//!
//! A sweep evaluates the same RC at the same ladder of prefix sizes for
//! every DAG instance of a cell, so host-dimension state (ready-time
//! arrays, per-class segment trees, DLS candidate buckets) is taken
//! from a thread-local pool at schedule start and returned on drop. Buffers are *reset on take* via a
//! touched-host list recorded by the previous run — O(writes), not
//! O(hosts) — which also makes the pool panic-safe: a schedule that
//! unwinds leaves its touched list populated, and the next take resets
//! it. Writers push to the touched list *before* writing.
//!
//! Cache keys include [`ResourceCollection::uid`], the stable identity
//! of an RC's (immutable) clock vector, so a pool never serves state
//! built for different clocks.
//!
//! [`ResourceCollection::uid`]: rsg_platform::ResourceCollection::uid

use std::cell::RefCell;
use std::mem::take;
use std::ops::Deref;

use super::placement::TreeBank;
use crate::context::ExecutionContext;

/// Pool takes served by resetting a cached buffer.
static OBS_HITS: rsg_obs::Counter = rsg_obs::Counter::new("sched.kernel.scratch_hits");
/// Pool takes that had to build state from scratch.
static OBS_BUILDS: rsg_obs::Counter = rsg_obs::Counter::new("sched.kernel.scratch_builds");
/// Wall time spent resetting pooled class-tree banks on take.
static OBS_RESET: rsg_obs::TimingHistogram =
    rsg_obs::TimingHistogram::new("sched.kernel.bank_reset");

#[derive(Default)]
struct Pool {
    ready: Option<ReadyBuf>,
    flat: Option<Vec<f64>>,
    dls: Option<DlsBuf>,
    /// `((rc uid, hosts), bank)` — class segment trees per prefix size.
    banks: Vec<((u64, usize), TreeBank)>,
    /// `((rc uid, refclk bits, hosts), median speed)`.
    medians: Vec<((u64, u64, usize), f64)>,
    sort_buf: Vec<f64>,
}

/// A sweep ladder visits O(log P) prefix sizes plus refinement probes;
/// the cap is a leak guard for long multi-RC runs, not a working-set
/// bound.
const BANK_CAP: usize = 24;

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

#[derive(Default)]
struct ReadyBuf {
    vals: Vec<f64>,
    touched: Vec<u32>,
}

/// Pooled host-ready array: flat `f64` per host, all zero at take,
/// touched-list reset. Dereferences to the `hosts`-long slice for
/// branch-free scans.
pub struct PooledReady {
    inner: ReadyBuf,
    hosts: usize,
}

impl PooledReady {
    /// Records a new ready time for `host`.
    #[inline]
    pub fn set(&mut self, host: usize, ready: f64) {
        self.inner.touched.push(host as u32);
        self.inner.vals[host] = ready;
    }
}

impl Deref for PooledReady {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.inner.vals[..self.hosts]
    }
}

impl Drop for PooledReady {
    fn drop(&mut self) {
        let inner = take(&mut self.inner);
        POOL.with(|p| p.borrow_mut().ready = Some(inner));
    }
}

/// Takes the host-ready buffer from the pool (or builds one), zeroed.
pub fn take_ready(hosts: usize) -> PooledReady {
    let inner = POOL.with(|p| p.borrow_mut().ready.take());
    let mut inner = match inner {
        Some(b) => {
            OBS_HITS.incr();
            b
        }
        None => {
            OBS_BUILDS.incr();
            ReadyBuf::default()
        }
    };
    for &h in &inner.touched {
        if let Some(v) = inner.vals.get_mut(h as usize) {
            *v = 0.0;
        }
    }
    inner.touched.clear();
    if inner.vals.len() < hosts {
        inner.vals.resize(hosts, 0.0);
    }
    PooledReady { inner, hosts }
}

/// Pooled flat data-ready array for the loop-swapped naive scan; fully
/// rewritten per task, so takes need no reset.
pub struct PooledFlat {
    inner: Vec<f64>,
}

impl PooledFlat {
    /// The flat buffer, resized to `hosts`.
    #[inline]
    pub fn get(&mut self, hosts: usize) -> &mut Vec<f64> {
        self.inner.resize(hosts, 0.0);
        &mut self.inner
    }
}

impl Drop for PooledFlat {
    fn drop(&mut self) {
        let inner = take(&mut self.inner);
        POOL.with(|p| p.borrow_mut().flat = Some(inner));
    }
}

/// Takes the flat scan buffer.
pub fn take_flat() -> PooledFlat {
    let inner = POOL
        .with(|p| p.borrow_mut().flat.take())
        .unwrap_or_default();
    PooledFlat { inner }
}

/// Takes the class-tree bank for `(rc uid, hosts)` if one is pooled,
/// reset to all-hosts-ready-at-0.
pub fn take_bank(key: (u64, usize)) -> Option<TreeBank> {
    let bank = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let i = p.banks.iter().position(|(k, _)| *k == key)?;
        Some(p.banks.swap_remove(i).1)
    });
    match bank {
        Some(mut b) => {
            OBS_HITS.incr();
            let timed = rsg_obs::enabled().then(std::time::Instant::now);
            b.reset();
            if let Some(t0) = timed {
                OBS_RESET.record(t0.elapsed());
            }
            Some(b)
        }
        None => {
            OBS_BUILDS.incr();
            None
        }
    }
}

/// Returns a class-tree bank to the pool.
pub fn put_bank(key: (u64, usize), bank: TreeBank) {
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.banks.len() >= BANK_CAP {
            p.banks.remove(0);
        }
        p.banks.push((key, bank));
    });
}

/// Median speed factor of the context's hosts, computed exactly as the
/// historical inline code (`sort_by(f64::total_cmp)`, element at
/// `len/2`) and cached per `(rc uid, reference clock, hosts)`.
pub fn median_speed(ctx: &ExecutionContext<'_>) -> f64 {
    let key = (
        ctx.rc.uid(),
        ctx.dag.reference_clock_mhz().to_bits(),
        ctx.hosts(),
    );
    POOL.with(|p| {
        let p = &mut *p.borrow_mut();
        if let Some((_, m)) = p.medians.iter().find(|(k, _)| *k == key) {
            OBS_HITS.incr();
            return *m;
        }
        OBS_BUILDS.incr();
        p.sort_buf.clear();
        p.sort_buf.extend_from_slice(ctx.speeds());
        p.sort_buf.sort_by(f64::total_cmp);
        let m = p.sort_buf[p.sort_buf.len() / 2];
        if p.medians.len() >= 64 {
            p.medians.clear();
        }
        p.medians.push((key, m));
        m
    })
}

/// Per-host DLS bookkeeping: the weight sums and candidate buckets the
/// incremental dynamic-level maintenance keys by best host. All state
/// is touched-list reset, so takes cost O(previous run's activity).
#[derive(Default)]
struct DlsBuf {
    /// Σ `(2 + parents)` over ready candidates whose best host is `h`.
    sh: Vec<u64>,
    /// Ready candidates whose cached best host is `h`.
    buckets: Vec<Vec<u32>>,
    touched: Vec<u32>,
    rescan: Vec<u32>,
}

/// Pooled DLS per-host state, returned on drop.
pub struct PooledDls {
    inner: DlsBuf,
}

impl PooledDls {
    /// Current weight sum of bucket `h`.
    #[inline]
    pub fn sh(&self, h: usize) -> u64 {
        self.inner.sh[h]
    }

    /// Adds a candidate's weight to bucket `h`'s sum.
    #[inline]
    pub fn sh_add(&mut self, h: usize, w: u64) {
        self.inner.touched.push(h as u32);
        self.inner.sh[h] += w;
    }

    /// Removes a candidate's weight from bucket `h`'s sum.
    #[inline]
    pub fn sh_sub(&mut self, h: usize, w: u64) {
        self.inner.sh[h] -= w;
    }

    /// Appends task `t` to bucket `h`, returning its position.
    #[inline]
    pub fn bucket_push(&mut self, h: usize, t: u32) -> u32 {
        self.inner.touched.push(h as u32);
        let b = &mut self.inner.buckets[h];
        b.push(t);
        (b.len() - 1) as u32
    }

    /// Returns bucket `h`'s members (test-only inspection).
    #[cfg(test)]
    pub fn bucket(&self, h: usize) -> &[u32] {
        &self.inner.buckets[h]
    }

    /// Swap-removes the candidate at `pos` from bucket `h`; returns the
    /// task that moved into `pos`, if any.
    #[inline]
    pub fn bucket_swap_remove(&mut self, h: usize, pos: u32) -> Option<u32> {
        let b = &mut self.inner.buckets[h];
        b.swap_remove(pos as usize);
        b.get(pos as usize).copied()
    }

    /// Snapshots bucket `h` into the reusable rescan buffer (members
    /// move buckets during the rescan itself).
    pub fn snapshot_bucket(&mut self, h: usize) -> Vec<u32> {
        let mut buf = take(&mut self.inner.rescan);
        buf.clear();
        buf.extend_from_slice(&self.inner.buckets[h]);
        buf
    }

    /// Returns the rescan buffer taken by
    /// [`snapshot_bucket`](Self::snapshot_bucket).
    pub fn return_snapshot(&mut self, buf: Vec<u32>) {
        self.inner.rescan = buf;
    }
}

impl Drop for PooledDls {
    fn drop(&mut self) {
        let inner = take(&mut self.inner);
        POOL.with(|p| p.borrow_mut().dls = Some(inner));
    }
}

/// Takes the DLS per-host state, zeroed, sized for `hosts`.
pub fn take_dls(hosts: usize) -> PooledDls {
    let inner = POOL.with(|p| p.borrow_mut().dls.take());
    let mut inner = match inner {
        Some(b) => {
            OBS_HITS.incr();
            b
        }
        None => {
            OBS_BUILDS.incr();
            DlsBuf::default()
        }
    };
    for &h in &inner.touched {
        let h = h as usize;
        if let Some(v) = inner.sh.get_mut(h) {
            *v = 0;
        }
        if let Some(b) = inner.buckets.get_mut(h) {
            b.clear();
        }
    }
    inner.touched.clear();
    if inner.sh.len() < hosts {
        inner.sh.resize(hosts, 0);
        inner.buckets.resize_with(hosts, Vec::new);
    }
    PooledDls { inner }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_buf_resets_between_takes() {
        let mut r = take_ready(8);
        r.set(3, 5.0);
        r.set(7, 2.0);
        assert_eq!(r[3], 5.0);
        drop(r);
        let r = take_ready(8);
        assert!(r.iter().all(|&v| v == 0.0));
        // Growing the request is fine too.
        drop(r);
        let r = take_ready(32);
        assert_eq!(r.len(), 32);
        assert!(r.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dls_buf_resets_between_takes() {
        let mut d = take_dls(4);
        d.sh_add(2, 7);
        let pos = d.bucket_push(2, 9);
        assert_eq!(pos, 0);
        assert_eq!(d.sh(2), 7);
        assert_eq!(d.bucket(2), &[9]);
        drop(d);
        let d = take_dls(4);
        assert_eq!(d.sh(2), 0);
        assert!(d.bucket(2).is_empty());
    }

    #[test]
    fn median_speed_cached_and_exact() {
        let dag = rsg_dag::workflows::chain(3, 10.0, 0.0);
        let rc = rsg_platform::ResourceCollection::new(
            vec![3000.0, 1500.0, 750.0, 2800.0, 2800.0],
            rsg_platform::CommModel::Uniform,
        );
        let ctx = ExecutionContext::new(&dag, &rc);
        let expect = {
            let mut sp: Vec<f64> = (0..ctx.hosts()).map(|h| ctx.speed(h)).collect();
            sp.sort_by(f64::total_cmp);
            sp[sp.len() / 2]
        };
        assert_eq!(median_speed(&ctx).to_bits(), expect.to_bits());
        assert_eq!(median_speed(&ctx).to_bits(), expect.to_bits());
        // A prefix context has its own median.
        let ctx3 = ExecutionContext::with_host_limit(&dag, &rc, 3);
        let expect3 = {
            let mut sp: Vec<f64> = (0..3).map(|h| ctx3.speed(h)).collect();
            sp.sort_by(f64::total_cmp);
            sp[sp.len() / 2]
        };
        assert_eq!(median_speed(&ctx3).to_bits(), expect3.to_bits());
    }
}
