//! # csp-runtime
//!
//! A from-scratch, offline-safe (no crates.io) deterministic parallel
//! runtime for the CSP reproduction. Every hot loop in the workspace —
//! the cache-blocked GEMM micro-kernel, batched layer forward/backward,
//! and the accelerator simulation sweeps — parallelizes through the
//! [`Pool`] in this crate, which dispatches onto a **supervised
//! persistent worker pool** (see [`pool`](crate::pool_stats) for the
//! counters it maintains): long-lived parked workers, `catch_unwind`
//! containment around every chunk closure, a supervisor that respawns
//! dead workers, a per-dispatch stall watchdog, and graceful degradation
//! down to the exact inline serial path.
//!
//! ## Determinism contract
//!
//! Parallel results must be **bit-identical** to the serial results for
//! any thread count, because `csp-io` checkpoints guarantee bit-identical
//! kill-and-resume. Two rules make that hold:
//!
//! 1. **Fixed chunk partitioning** — work is split into chunks whose
//!    boundaries depend only on the problem size (caller-chosen chunk
//!    length), never on the thread count. Which worker executes a chunk
//!    is irrelevant: chunk outputs are disjoint, or are combined by
//!    rule 2.
//! 2. **Ordered reduction** — when chunk results must be combined (e.g.
//!    gradient accumulation, energy sums), the fold happens on the
//!    calling thread in ascending chunk order, reproducing the serial
//!    floating-point association exactly.
//!
//! The contract survives faults: a lost worker's claimed-but-untouched
//! chunk is re-executed by the dispatcher, restarts never change chunk
//! boundaries, and a dispatch that cannot get workers runs every chunk
//! inline — the serial code path.
//!
//! ## Failure containment
//!
//! The infallible APIs ([`Pool::map_collect`] and friends) keep their
//! historical semantics: a panicking chunk closure is re-raised on the
//! caller after the dispatch quiesces. [`Pool::try_map_collect`] instead
//! returns typed [`RuntimeError`]s: [`RuntimeError::ChunkPanicked`]
//! carries the **lowest** panicking chunk index (width-invariant, because
//! chunks are claimed in ascending order), and [`RuntimeError::Stalled`]
//! reports a dispatch that exceeded its watchdog deadline
//! ([`Pool::with_stall_deadline`]; none by default).
//!
//! ## Granularity cutoff
//!
//! The `*_weighted` APIs take an approximate per-item cost in abstract
//! units; when `items × unit_cost` falls below [`DEFAULT_GRAIN`] the
//! dispatch takes the inline serial path instead of paying fork-join
//! overhead for tiny work — the fix for sub-1× speedups on small
//! batches. The unweighted APIs never apply the cutoff.
//!
//! ## Pool discovery
//!
//! [`Pool::current`] resolves, in order: the innermost active
//! [`with_threads`] override on this thread, then the process-wide
//! default — the `CSP_THREADS` environment variable if set and positive,
//! otherwise [`std::thread::available_parallelism`].
//!
//! Worker closures run with an implicit `with_threads(1)` so nested data
//! parallelism (e.g. a per-sample convolution calling the parallel GEMM)
//! degrades to serial instead of oversubscribing the machine.
//!
//! ## Chaos
//!
//! [`RuntimeChaosSession`] injects seeded ChunkPanic / WorkerStall /
//! WorkerLoss faults into dispatches made under
//! [`RuntimeChaosSession::run`], deterministically per
//! `(seed, dispatch, chunk)`; the `runtime_resilience` study gates on
//! the containment invariants holding under storms.
//!
//! ## Example
//!
//! ```
//! use csp_runtime::{with_threads, Pool};
//!
//! let serial = with_threads(1, || Pool::current().map_collect(8, |i| i * i));
//! let parallel = with_threads(4, || Pool::current().map_collect(8, |i| i * i));
//! assert_eq!(serial, parallel);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod chaos;
mod error;
mod pool;
pub mod supervise;

pub use chaos::{
    silence_injected_panics, RuntimeChaosReport, RuntimeChaosSession, RuntimeFaultClass,
};
pub use error::RuntimeError;
pub use pool::{
    pool_stats, pool_supervisor, supervise_workers, workers_alive, PoolStats, MAX_WORKERS,
};
pub use supervise::Supervisor;

use pool::{lock, DispatchFailure};
use std::cell::Cell;
use std::sync::{OnceLock, PoisonError};
use std::time::Duration;

/// Granularity cutoff for the `*_weighted` APIs, in abstract work units
/// (≈ one multiply-accumulate each): below this much total work a
/// dispatch runs inline serial.
pub const DEFAULT_GRAIN: u64 = 32_768;

/// Process-wide default thread count, resolved once.
static GLOBAL_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    /// Innermost `with_threads` override on this thread (`None` = use the
    /// global default).
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

fn resolve_global() -> usize {
    if let Ok(v) = std::env::var("CSP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f` with the current thread's pool size overridden to `threads`
/// (clamped to at least 1). Restores the previous override on exit, also
/// on panic. Overrides nest; the innermost wins.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _guard = OverrideGuard::set(threads.max(1));
    f()
}

/// RAII guard restoring the previous thread-count override.
struct OverrideGuard {
    prev: Option<usize>,
}

impl OverrideGuard {
    fn set(threads: usize) -> Self {
        let prev = OVERRIDE.with(|c| c.replace(Some(threads)));
        OverrideGuard { prev }
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        OVERRIDE.with(|c| c.set(prev));
    }
}

/// A deterministic dispatch handle: a width and a watchdog deadline plus
/// the partitioning, ordered-reduction and granularity rules documented
/// at the crate root.
///
/// `Pool` is `Copy` — it carries no OS resources. Dispatches borrow
/// workers from the process-wide persistent pool and release them at
/// quiescence, so borrowed data flows into workers without `'static`
/// bounds and every dispatch joins (logically) before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
    stall: Option<Duration>,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1) and
    /// no stall deadline.
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
            stall: None,
        }
    }

    /// The serial pool: every operation runs inline on the caller.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// The pool the current thread should use: the innermost
    /// [`with_threads`] override, else the process-wide default
    /// (`CSP_THREADS` env var, falling back to the machine parallelism).
    pub fn current() -> Self {
        let t = OVERRIDE
            .with(Cell::get)
            .unwrap_or_else(|| *GLOBAL_THREADS.get_or_init(resolve_global));
        Pool::new(t)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool runs everything inline on the caller.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// The stall-watchdog deadline, if any. The watchdog applies to the
    /// `try_*` APIs only: the infallible APIs have no typed channel to
    /// report slowness on, and escalating an honestly slow kernel to a
    /// panic would be worse than the stall.
    pub fn stall_deadline(&self) -> Option<Duration> {
        self.stall
    }

    /// Replace the stall-watchdog deadline. `None` disables the
    /// watchdog (the default).
    pub fn with_stall_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.stall = deadline;
        self
    }

    /// Effective dispatch width for `n_items` of `unit_cost` each:
    /// 1 when the total work falls below [`DEFAULT_GRAIN`], else the
    /// thread count clamped to the item count.
    fn width_for(&self, n_items: usize, unit_cost: u64) -> usize {
        let work = (n_items as u64).saturating_mul(unit_cost.max(1));
        if work < DEFAULT_GRAIN {
            1
        } else {
            self.threads.min(n_items).max(1)
        }
    }

    // -- map ---------------------------------------------------------------

    /// Compute `f(0..n)` and return the results **in index order**.
    ///
    /// Items are claimed dynamically by the caller and the pool workers;
    /// assignment never affects results, because each item is a pure
    /// function of its index and results are reassembled in index order.
    ///
    /// Panics in `f` are contained, then re-raised on the caller after
    /// the dispatch quiesces; use [`Pool::try_map_collect`] for a typed
    /// error instead.
    pub fn map_collect<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_engine(n, u64::MAX, &f, false)
            .unwrap_or_else(|e| e.raise("runtime.map_collect"))
    }

    /// [`Pool::map_collect`] with a granularity cutoff: when
    /// `n × unit_cost` (abstract units, ≈ one MAC each) falls below
    /// [`DEFAULT_GRAIN`], runs inline serial instead of dispatching.
    pub fn map_collect_weighted<R, F>(&self, n: usize, unit_cost: u64, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_engine(n, unit_cost, &f, false)
            .unwrap_or_else(|e| e.raise("runtime.map_collect"))
    }

    /// Fallible [`Pool::map_collect`]: a panicking chunk closure yields
    /// [`RuntimeError::ChunkPanicked`] (lowest panicking index), a
    /// missed watchdog deadline yields [`RuntimeError::Stalled`]. Always
    /// routes through the containment engine, even at width 1.
    pub fn try_map_collect<R, F>(&self, n: usize, f: F) -> Result<Vec<R>, RuntimeError>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.map_engine(n, u64::MAX, &f, true)
            .map_err(|e| e.into_error("runtime.map_collect"))
    }

    fn map_engine<R, F>(
        &self,
        n: usize,
        unit_cost: u64,
        f: &F,
        typed: bool,
    ) -> Result<Vec<R>, DispatchFailure>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let nt = self.width_for(n, unit_cost);
        let _region = region_telemetry("runtime.map_collect", n, nt);
        if nt == 1 && !typed && !chaos::active() {
            // Exact serial code path: no engine, no containment.
            return Ok((0..n).map(f).collect());
        }
        let out: Vec<std::sync::Mutex<Option<R>>> =
            (0..n).map(|_| std::sync::Mutex::new(None)).collect();
        let runner = |c: usize| {
            *lock(&out[c]) = Some(f(c));
        };
        pool::run_dispatch(nt, if typed { self.stall } else { None }, n, &runner)?;
        Ok(out
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("dispatch Ok implies every chunk executed")
            })
            .collect())
    }

    // -- fold --------------------------------------------------------------

    /// Compute `f(0..n)` chunk results and fold them into `init` **in
    /// ascending index order** on the calling thread — the ordered
    /// reduction used for gradient accumulation and energy sums — with
    /// the granularity cutoff of [`Pool::map_collect_weighted`].
    pub fn fold_ordered_weighted<R, A, F, G>(
        &self,
        n: usize,
        unit_cost: u64,
        f: F,
        init: A,
        fold: G,
    ) -> A
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        self.fold_engine(n, unit_cost, f, init, fold)
            .unwrap_or_else(|e| e.raise("runtime.fold_ordered"))
    }

    fn fold_engine<R, A, F, G>(
        &self,
        n: usize,
        unit_cost: u64,
        f: F,
        init: A,
        mut fold: G,
    ) -> Result<A, DispatchFailure>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
        G: FnMut(A, R) -> A,
    {
        if self.width_for(n, unit_cost) == 1 && !chaos::active() {
            // Exact serial code path: map and fold interleaved, as a
            // plain serial loop would.
            let mut acc = init;
            for i in 0..n {
                acc = fold(acc, f(i));
            }
            return Ok(acc);
        }
        let parts = self.map_engine(n, unit_cost, &f, false)?;
        Ok(parts.into_iter().fold(init, &mut fold))
    }

    // -- chunks ------------------------------------------------------------

    /// Split `data` into fixed chunks of `chunk_len` elements (the last
    /// chunk may be shorter) and run `f(chunk_index, element_offset,
    /// chunk)` over them. Chunk boundaries depend only on `data.len()`
    /// and `chunk_len`, never on the thread count; chunks are disjoint
    /// `&mut` slices, so any worker assignment yields identical memory.
    /// When `data.len() × unit_cost` falls below [`DEFAULT_GRAIN`], runs
    /// inline serial instead of dispatching.
    ///
    /// Panics in `f` are contained, then re-raised on the caller after
    /// the dispatch quiesces.
    pub fn for_each_chunk_mut_weighted<T, F>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        unit_cost: u64,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        self.chunks_engine(data, chunk_len, unit_cost, &f)
            .unwrap_or_else(|e| e.raise("runtime.chunks"))
    }

    fn chunks_engine<T, F>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        unit_cost: u64,
        f: &F,
    ) -> Result<(), DispatchFailure>
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        let chunk_len = chunk_len.max(1);
        let n_chunks = data.len().div_ceil(chunk_len);
        let work = (data.len() as u64).saturating_mul(unit_cost.max(1));
        let nt = if work < DEFAULT_GRAIN {
            1
        } else {
            self.threads.min(n_chunks).max(1)
        };
        let _region = region_telemetry("runtime.chunks", n_chunks, nt);
        if nt == 1 && !chaos::active() {
            // Exact serial code path.
            for (ci, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(ci, ci * chunk_len, chunk);
            }
            return Ok(());
        }
        let len = data.len();
        let base = SendPtr(data.as_mut_ptr());
        let runner = move |ci: usize| {
            let off = ci * chunk_len;
            let end = (off + chunk_len).min(len);
            // SAFETY: chunk ranges `[off, end)` are disjoint per chunk
            // index, the engine executes every chunk index at most once
            // (atomic claim, or exclusive orphan hand-off of a chunk its
            // claimant never touched), and `data` outlives the dispatch
            // because `run_dispatch` does not return before quiescence.
            let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(off), end - off) };
            f(ci, off, chunk);
        };
        pool::run_dispatch(nt, None, n_chunks, &runner)
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::current()
    }
}

/// A raw pointer that may cross threads; the dispatch engine guarantees
/// the disjointness and lifetime invariants documented at its one use.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the whole
    /// wrapper — and with it the `Send`/`Sync` impls — not the raw field.
    fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: `SendPtr` is only used to hand disjoint sub-slices of one
// exclusively-borrowed slice to dispatch participants, which the engine
// joins before the borrow ends.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: as above — shared access is only ever to disjoint ranges.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// When telemetry is on, record one fork-join region under `name`:
/// `<name>.regions` / `<name>.dispatched` counters (independent of the
/// thread count — chunking is fixed, so every width reports the same
/// dispatch totals), the `runtime.pool_width` high-water gauge, and a
/// [`csp_telemetry::Span`] timing the region end to end (workers never
/// steal across dispatches, so the caller's scope covers the whole
/// fork-join).
fn region_telemetry(
    name: &'static str,
    dispatched: usize,
    width: usize,
) -> Option<csp_telemetry::Span> {
    if !csp_telemetry::enabled() {
        return None;
    }
    csp_telemetry::counter_add(&format!("{name}.regions"), "", 1);
    csp_telemetry::counter_add(&format!("{name}.dispatched"), "", dispatched as u64);
    csp_telemetry::max_gauge("runtime.pool_width", "", width as u64);
    Some(csp_telemetry::span(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_clamps_to_one() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert!(Pool::serial().is_serial());
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = Pool::current().threads();
        with_threads(3, || {
            assert_eq!(Pool::current().threads(), 3);
            with_threads(7, || assert_eq!(Pool::current().threads(), 7));
            assert_eq!(Pool::current().threads(), 3);
        });
        assert_eq!(Pool::current().threads(), outer);
    }

    #[test]
    fn map_collect_returns_index_order() {
        for t in [1, 2, 3, 4, 8] {
            let got = Pool::new(t).map_collect(13, |i| 2 * i + 1);
            let want: Vec<usize> = (0..13).map(|i| 2 * i + 1).collect();
            assert_eq!(got, want, "threads={t}");
        }
        assert!(Pool::new(4).map_collect(0, |i| i).is_empty());
    }

    #[test]
    fn workers_run_nested_calls_serially() {
        let inner: Vec<usize> = Pool::new(4).map_collect(8, |_| Pool::current().threads());
        assert!(inner.iter().all(|&t| t == 1));
    }

    #[test]
    fn fold_ordered_matches_serial_association() {
        // Sum of f32 values in strictly ascending chunk order: every
        // thread count must produce the same bits.
        let vals: Vec<f32> = (0..97).map(|i| (i as f32 * 0.731).sin() * 1e3).collect();
        let sum = |t: usize| {
            Pool::new(t).fold_ordered_weighted(
                vals.len(),
                u64::MAX,
                |i| vals[i],
                0.0f32,
                |a, v| a + v,
            )
        };
        let serial = sum(1);
        for t in [2, 4, 8] {
            let par = sum(t);
            assert_eq!(serial.to_bits(), par.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_disjoint_chunks() {
        for t in [1, 2, 4, 8] {
            let mut data = vec![0u32; 37];
            Pool::new(t).for_each_chunk_mut_weighted(&mut data, 5, u64::MAX, |ci, off, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = (ci * 100 + off + k) as u32;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                let ci = i / 5;
                assert_eq!(v, (ci * 100 + i) as u32, "threads={t}, index {i}");
            }
        }
    }

    #[test]
    fn chunk_boundaries_ignore_thread_count() {
        // Record (chunk_index, offset, len) per chunk; the partition must
        // be identical for every pool size.
        let describe = |t: usize| -> Vec<(usize, usize, usize)> {
            let mut data = vec![0u8; 23];
            let pool = Pool::new(t);
            let log = std::sync::Mutex::new(Vec::new());
            pool.for_each_chunk_mut_weighted(&mut data, 4, u64::MAX, |ci, off, chunk| {
                log.lock().unwrap().push((ci, off, chunk.len()));
            });
            let mut v = log.into_inner().unwrap();
            v.sort_unstable();
            v
        };
        let want = describe(1);
        for t in [2, 4, 8] {
            assert_eq!(describe(t), want, "threads={t}");
        }
    }

    #[test]
    fn map_collect_propagates_panics() {
        let res = std::panic::catch_unwind(|| {
            Pool::new(4).map_collect(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn try_map_collect_reports_lowest_panicking_chunk() {
        silence_injected_panics();
        for t in [1, 2, 4, 8] {
            let err = Pool::new(t)
                .try_map_collect(16, |i| {
                    if i == 6 || i == 11 {
                        panic!("csp-chaos: typed test panic");
                    }
                    i
                })
                .unwrap_err();
            match err {
                RuntimeError::ChunkPanicked { chunk, region, .. } => {
                    assert_eq!(chunk, 6, "threads={t}");
                    assert_eq!(region, "runtime.map_collect");
                }
                other => panic!("threads={t}: unexpected {other}"),
            }
        }
    }

    #[test]
    fn try_apis_match_infallible_results() {
        for t in [1, 4] {
            let pool = Pool::new(t);
            assert_eq!(
                pool.try_map_collect(9, |i| i * 3).unwrap(),
                pool.map_collect(9, |i| i * 3),
                "threads={t}"
            );
        }
    }

    #[test]
    fn weighted_cutoff_serializes_small_work() {
        let pool = Pool::new(8);
        let (small, big) = (1, DEFAULT_GRAIN);
        assert_eq!(pool.width_for(10, small), 1, "10 units < grain");
        assert_eq!(pool.width_for(10, big), 8, "10 × grain units >= grain");
        assert_eq!(pool.width_for(0, u64::MAX), 1, "empty work is serial");
        // Results are identical either side of the cutoff.
        let sm = pool.map_collect_weighted(10, small, |i| i * i);
        let bm = pool.map_collect_weighted(10, big, |i| i * i);
        assert_eq!(sm, bm);
        let mut sd = vec![0u8; 64];
        let mut bd = vec![0u8; 64];
        pool.for_each_chunk_mut_weighted(&mut sd, 8, small, |ci, _, c| c.fill(ci as u8));
        pool.for_each_chunk_mut_weighted(&mut bd, 8, big, |ci, _, c| c.fill(ci as u8));
        assert_eq!(sd, bd);
        let fs = pool.fold_ordered_weighted(20, small, |i| i as f32, 0.0, |a, v| a + v);
        let fb = pool.fold_ordered_weighted(20, big, |i| i as f32, 0.0, |a, v| a + v);
        assert_eq!(fs.to_bits(), fb.to_bits());
    }

    #[test]
    fn builders_round_trip() {
        assert_eq!(Pool::new(2).stall_deadline(), None);
        let p = Pool::new(2).with_stall_deadline(Some(Duration::from_millis(9)));
        assert_eq!(p.stall_deadline(), Some(Duration::from_millis(9)));
        assert_eq!(p.with_stall_deadline(None).stall_deadline(), None);
    }
}
