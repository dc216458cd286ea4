//! A thread-local pool of reusable `Vec<f64>` scratch buffers.
//!
//! The GA loop calls [`crate::trajectories_from_dictionary`] thousands
//! of times per run, and each call used to allocate a fresh dB buffer
//! per fault entry. [`DbScratch::acquire`] hands out a cleared buffer
//! from a small per-thread free list instead; dropping the guard
//! returns the buffer for the next caller. Hits and fresh allocations
//! are counted in process-wide atomics so the serving layer's metrics
//! registry ([`scratch_pool_stats`]) can report pool effectiveness
//! without any dependency from this crate on the observability code.
//!
//! The pool is purely an allocation-reuse device: buffers are always
//! cleared before reuse, so results are byte-identical with or without
//! pooling.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-thread cap on pooled buffers; anything beyond this is dropped
/// rather than retained, bounding idle memory to a few KiB per thread.
const MAX_POOLED: usize = 16;

static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static FREE: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
}

/// `(hits, allocs)` counted across every thread since process start:
/// acquisitions served from a pooled buffer vs. fresh allocations.
pub fn scratch_pool_stats() -> (u64, u64) {
    (
        POOL_HITS.load(Ordering::Relaxed),
        POOL_ALLOCS.load(Ordering::Relaxed),
    )
}

/// An RAII guard over a pooled `Vec<f64>`. Derefs to the vector;
/// dropping it returns the buffer to this thread's free list (up to
/// `MAX_POOLED` retained buffers).
#[derive(Debug)]
pub struct DbScratch {
    buf: Vec<f64>,
}

impl DbScratch {
    /// Takes a cleared buffer from this thread's pool, or allocates a
    /// fresh one when the pool is empty.
    pub fn acquire() -> DbScratch {
        let pooled = FREE.with(|free| free.borrow_mut().pop());
        match pooled {
            Some(mut buf) => {
                POOL_HITS.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                DbScratch { buf }
            }
            None => {
                POOL_ALLOCS.fetch_add(1, Ordering::Relaxed);
                DbScratch { buf: Vec::new() }
            }
        }
    }
}

impl std::ops::Deref for DbScratch {
    type Target = Vec<f64>;

    fn deref(&self) -> &Vec<f64> {
        &self.buf
    }
}

impl std::ops::DerefMut for DbScratch {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        &mut self.buf
    }
}

impl Drop for DbScratch {
    fn drop(&mut self) {
        FREE.with(|free| {
            let mut free = free.borrow_mut();
            if free.len() < MAX_POOLED {
                free.push(std::mem::take(&mut self.buf));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reacquired_buffer_reuses_capacity_and_counts_a_hit() {
        let (hits0, _) = scratch_pool_stats();
        let capacity = {
            let mut scratch = DbScratch::acquire();
            scratch.extend([1.0, 2.0, 3.0]);
            scratch.capacity()
        };
        // The buffer went back to this thread's pool; the next acquire
        // must reuse it (cleared, same backing capacity).
        let scratch = DbScratch::acquire();
        assert!(scratch.is_empty(), "pooled buffers come back cleared");
        assert!(scratch.capacity() >= capacity, "capacity is retained");
        let (hits1, _) = scratch_pool_stats();
        assert!(hits1 > hits0, "the reacquisition counts as a hit");
    }

    #[test]
    fn empty_pool_counts_an_alloc() {
        // Hold enough guards to drain this thread's pool completely,
        // then one more acquisition must be a fresh allocation.
        let held: Vec<DbScratch> = (0..MAX_POOLED + 1).map(|_| DbScratch::acquire()).collect();
        let (_, allocs0) = scratch_pool_stats();
        let extra = DbScratch::acquire();
        let (_, allocs1) = scratch_pool_stats();
        assert!(allocs1 > allocs0, "an empty pool allocates");
        drop(extra);
        drop(held);
    }

    #[test]
    fn pool_retention_is_bounded() {
        // Dropping far more guards than MAX_POOLED must not grow the
        // free list beyond the cap.
        let held: Vec<DbScratch> = (0..MAX_POOLED * 3).map(|_| DbScratch::acquire()).collect();
        drop(held);
        FREE.with(|free| assert!(free.borrow().len() <= MAX_POOLED));
    }
}
