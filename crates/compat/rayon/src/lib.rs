//! Offline shim for the subset of the `rayon` API this workspace uses:
//! `par_iter()` / `into_par_iter()` with `map(...).collect::<Vec<_>>()`.
//!
//! The build container has no crates.io access, so the real rayon
//! cannot be fetched. This shim runs closures on scoped OS threads with
//! a shared atomic work counter — dynamic load balancing (each thread
//! pulls the next unclaimed index), which is what the observation sweep
//! needs: cell costs vary by orders of magnitude across the grid.
//! There is no work-stealing of *nested* parallelism: a `par_iter`
//! inside a `par_iter` runs its body sequentially on the calling
//! thread, which matches how the workspace is structured (one flat
//! parallel stage at a time).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum worker threads (actual = min(items, this)). Queried once per
/// process, as upstream rayon sizes its pool once: the query reads
/// cgroup files on Linux.
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

thread_local! {
    static INSIDE_POOL: AtomicBool = const { AtomicBool::new(false) };
}

/// Runs `f(i)` for every index in `0..n`, collecting results in index
/// order. Dynamic scheduling over scoped threads; panics propagate.
fn run_indexed<T: Send, F: Fn(usize) -> T + Sync>(n: usize, f: F) -> Vec<T> {
    // A trivial or nested stage runs on the calling thread, without
    // looking up the thread count.
    let sequential = n <= 1 || INSIDE_POOL.with(|b| b.load(Ordering::Relaxed));
    let threads = if sequential {
        1
    } else {
        current_num_threads().min(n)
    };
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    INSIDE_POOL.with(|b| b.store(true, Ordering::Relaxed));
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    results.lock().unwrap().append(&mut local);
                    INSIDE_POOL.with(|b| b.store(false, Ordering::Relaxed));
                })
            })
            .collect();
        // The scope alone waits only for the closures to return; joining
        // waits for the OS threads to exit, so the next parallel stage's
        // threads reuse the finished ones' malloc arenas instead of
        // opening new ones. The first worker panic is re-raised with its
        // own payload once every worker is joined.
        let mut panicked = None;
        for w in workers {
            if let Err(payload) = w.join() {
                panicked.get_or_insert(payload);
            }
        }
        if let Some(payload) = panicked {
            std::panic::resume_unwind(payload);
        }
    });
    let mut collected = results.into_inner().unwrap();
    collected.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(collected.len(), n);
    collected.into_iter().map(|(_, v)| v).collect()
}

/// A pending parallel map over a slice.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T: Sync, R: Send, F: Fn(&'a T) -> R + Sync> ParMap<'a, T, F> {
    /// Executes the map and gathers results in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_vec(run_indexed(self.items.len(), |i| (self.f)(&self.items[i])))
    }
}

/// A pending parallel map over owned items.
pub struct ParMapOwned<T, F> {
    items: Vec<T>,
    f: F,
}

impl<T: Send, R: Send, F: Fn(T) -> R + Sync> ParMapOwned<T, F> {
    /// Executes the map and gathers results in input order.
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        let slots: Vec<Mutex<Option<T>>> = self
            .items
            .into_iter()
            .map(|x| Mutex::new(Some(x)))
            .collect();
        let f = &self.f;
        C::from_vec(run_indexed(slots.len(), |i| {
            let item = slots[i].lock().unwrap().take().expect("item taken once");
            f(item)
        }))
    }
}

/// Collection targets for parallel maps (Vec only in this shim).
pub trait FromParallelIterator<R> {
    /// Builds the collection from in-order results.
    fn from_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallelIterator<R> for Vec<R> {
    fn from_vec(v: Vec<R>) -> Self {
        v
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Parallel map.
    pub fn map<R: Send, F: Fn(&'a T) -> R + Sync>(self, f: F) -> ParMap<'a, T, F> {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Parallel for-each.
    pub fn for_each<F: Fn(&'a T) + Sync>(self, f: F) {
        run_indexed(self.items.len(), |i| f(&self.items[i]));
    }
}

/// Owning parallel iterator.
pub struct IntoParIter<T> {
    items: Vec<T>,
}

impl<T: Send> IntoParIter<T> {
    /// Parallel map over owned items.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParMapOwned<T, F> {
        ParMapOwned {
            items: self.items,
            f,
        }
    }
}

/// `.par_iter()` on borrowable collections.
pub trait IntoParallelRefIterator<'a> {
    /// Borrowed item type.
    type Item: Sync + 'a;
    /// Borrowed parallel iterator.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// `.into_par_iter()` on owning collections and ranges.
pub trait IntoParallelIterator {
    /// Owned item type.
    type Item: Send;
    /// Owning parallel iterator.
    fn into_par_iter(self) -> IntoParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> IntoParIter<T> {
        IntoParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> IntoParIter<usize> {
        IntoParIter {
            items: self.collect(),
        }
    }
}

/// `rayon::prelude` subset.
pub mod prelude {
    pub use crate::{FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<usize> = (0..1000).collect();
        let ys: Vec<usize> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(ys, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn into_par_iter_owned() {
        let xs: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let ys: Vec<usize> = xs.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(ys.len(), 100);
        assert_eq!(ys[7], 1);
        assert_eq!(ys[42], 2);
    }

    #[test]
    fn range_par_iter() {
        let ys: Vec<usize> = (0..257usize).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(ys.len(), 257);
        assert_eq!(ys[256], 257);
    }

    #[test]
    fn nested_parallelism_does_not_explode() {
        let ys: Vec<usize> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                let inner: Vec<usize> = (0..8usize).into_par_iter().map(|j| i * 8 + j).collect();
                inner.into_iter().sum()
            })
            .collect();
        assert_eq!(ys.iter().sum::<usize>(), (0..64usize).sum());
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        let caught = std::panic::catch_unwind(|| {
            (0..64usize)
                .into_par_iter()
                .map(|i| {
                    assert!(i != 37, "item {i} failed");
                    i
                })
                .collect::<Vec<_>>()
        });
        let payload = caught.expect_err("the worker's panic reaches the caller");
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert_eq!(msg, "item 37 failed");
        // The shim still works, in order, after a panicked stage.
        let ys: Vec<usize> = (0..300usize).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(ys, (0..300).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete.
        let ys: Vec<u64> = (0..64usize)
            .into_par_iter()
            .map(|i| {
                let n = if i % 7 == 0 { 200_000 } else { 100 };
                (0..n).map(|x| x as u64 % 13).sum()
            })
            .collect();
        assert_eq!(ys.len(), 64);
    }
}
