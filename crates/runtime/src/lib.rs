//! # ceres-runtime
//!
//! Deterministic parallel execution for the CERES workspace.
//!
//! The paper runs CERES over 440k+ CommonCrawl pages across hundreds of
//! sites; every unit of that work (page parse, cluster job, site run) is
//! independent. This crate provides the one primitive all of them share: an
//! **index-ordered parallel map** over a slice, executed on a persistent
//! **worker pool** (spawn-per-call dominates at micro scale) with
//! chunk-size autotuning.
//!
//! ## The determinism contract
//!
//! For a pure `f`, `Runtime::par_map(items, f)` returns **exactly** the
//! vector the sequential loop `items.iter().map(f).collect()` returns, for
//! every thread count and every chunk size:
//!
//! * each `f(&items[i])` is invoked exactly once, with nothing shared
//!   between invocations;
//! * results are merged by **item index**, never by completion order;
//! * `threads = 1` short-circuits to the plain sequential loop (no pool,
//!   no threads), so the fallback is byte-identical by construction and
//!   the parallel path is byte-identical by the indexed merge.
//!
//! Worker panics propagate to the caller: the payload of the
//! lowest-indexed panicking item is re-raised (deterministic even when
//! several items panic), and remaining work is abandoned promptly.
//!
//! ## Fault isolation
//!
//! The fail-fast contract above is right for pure pipeline stages, where a
//! panic means a bug and the whole run is suspect. Ingest and serve paths
//! face the opposite regime: one poisoned page must not take down the
//! batch. [`Runtime::par_map_isolated`] wraps every item invocation in
//! [`std::panic::catch_unwind`], so a panicking item yields a typed
//! [`JobFault`] *in its slot* while every other item still runs and
//! returns its result. Outcomes come back in item order (same indexed
//! merge), so fault ordering is deterministic — scanning the returned
//! vector finds the lowest-indexed fault first at any thread count — and
//! fault-free inputs produce byte-identical results to [`Runtime::par_map`].
//!
//! ## The worker pool
//!
//! Parallel calls execute on a process-wide pool that is created lazily
//! and grown on demand (never shrunk). A call's work is a *chunk-claiming
//! job*: the calling thread pushes the job on the pool's queue, then
//! **participates itself**, claiming chunks until none remain; idle pool
//! workers join in (up to `threads - 1` helpers). Because the caller
//! always drains its own job, a `par_map` issued from *inside* a pool
//! worker (nested parallelism, e.g. per-row feature collection inside a
//! per-cluster training job) makes progress even when every other worker
//! is busy — the pool cannot deadlock and never oversubscribes beyond its
//! fixed worker set.
//!
//! The original spawn-scoped-threads-per-call execution path survives
//! only as a reference inside this crate's tests, which pin pool output
//! to it byte-for-byte.
//!
//! ## Choosing the thread count
//!
//! [`Runtime::with_threads`] resolves, in order: an explicit programmatic
//! override (e.g. `CeresConfig::threads`), the `CERES_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. `0` or an
//! unparsable value means "not set" at either level.

#![deny(unsafe_op_in_unsafe_fn)]

use std::panic;

mod pool;

/// A contained panic from one item of an isolated parallel map
/// ([`Runtime::par_map_isolated`]).
///
/// Carries the index of the item whose closure panicked and the raw panic
/// payload, exactly as `catch_unwind` delivered it. Because isolated maps
/// return outcomes in item order, faults are deterministically ordered:
/// the first `Err` found when scanning the result vector is the
/// lowest-indexed fault at any thread count.
pub struct JobFault {
    /// Index of the item whose invocation panicked.
    pub index: usize,
    /// The raw panic payload (what `panic!` carried).
    pub payload: Box<dyn std::any::Any + Send>,
}

impl JobFault {
    /// The panic message, when the payload is a string (the overwhelmingly
    /// common case: `panic!("…")` carries `String` or `&'static str`).
    /// Non-string payloads yield a fixed placeholder.
    pub fn message(&self) -> &str {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            s
        } else if let Some(s) = self.payload.downcast_ref::<String>() {
            s
        } else {
            "<non-string panic payload>"
        }
    }
}

impl std::fmt::Debug for JobFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobFault")
            .field("index", &self.index)
            .field("message", &self.message())
            .finish()
    }
}

impl std::fmt::Display for JobFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} panicked: {}", self.index, self.message())
    }
}

/// Environment variable consulted when no programmatic thread count is
/// given. `0`, empty, or unparsable values fall through to the machine's
/// available parallelism.
pub const THREADS_ENV: &str = "CERES_THREADS";

/// A handle describing how parallel stages execute.
///
/// Construction is free: the backing worker pool is process-wide, created
/// lazily by the first parallel call and shared by every `Runtime`, so a
/// `Runtime` can be rebuilt per call site without cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runtime {
    threads: usize,
}

impl Default for Runtime {
    /// Equivalent to [`Runtime::from_env`].
    fn default() -> Self {
        Runtime::from_env()
    }
}

impl Runtime {
    /// A runtime with exactly `threads` workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Runtime {
        Runtime { threads: threads.max(1) }
    }

    /// The sequential runtime: `par_map` degenerates to a plain loop.
    pub fn sequential() -> Runtime {
        Runtime::new(1)
    }

    /// Thread count from `CERES_THREADS`, else available parallelism.
    pub fn from_env() -> Runtime {
        Runtime::with_threads(None)
    }

    /// Resolve a thread count: explicit override → `CERES_THREADS` env →
    /// available parallelism. `Some(0)` counts as "no override".
    pub fn with_threads(threads: Option<usize>) -> Runtime {
        let resolved =
            threads.filter(|&t| t > 0).or_else(env_threads).unwrap_or_else(available_threads);
        Runtime::new(resolved)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items` on up to `threads` workers; results come back
    /// in item order (see the crate-level determinism contract). The chunk
    /// size is autotuned from `items.len()` (see [`auto_chunk`]); output is
    /// identical for every chunk size.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_chunked(items, auto_chunk(items.len(), self.threads), f)
    }

    /// [`Runtime::par_map`] with workers claiming `chunk` consecutive items
    /// at a time — fewer claim operations for many small items. Output is
    /// identical to `par_map` for every `chunk` value. Runs on the
    /// persistent worker pool; the calling thread participates, so nesting
    /// `par_map` inside a parallel task is safe and productive.
    pub fn par_map_chunked<T, R, F>(&self, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let chunk = chunk.max(1);
        // No more workers than there are chunks to claim.
        let threads = self.threads.min(n.div_ceil(chunk));
        if threads <= 1 {
            // The byte-identical sequential fallback: same calls, same order.
            return items.iter().map(f).collect();
        }
        pool::run(items, chunk, threads, &f)
    }

    /// Panic-isolated [`Runtime::par_map`]: every item is attempted, and an
    /// item whose closure panics yields `Err(`[`JobFault`]`)` in its slot
    /// instead of unwinding the whole call. Outcomes come back in item
    /// order, so fault ordering is deterministic (the lowest-indexed fault
    /// is found first when scanning), and on fault-free input the unwrapped
    /// results are byte-identical to `par_map` at any thread count.
    ///
    /// The pool itself is untouched by contained panics: the unwind is
    /// caught *inside* the item closure, below the pool's own fail-fast
    /// panic plumbing, so no job poisoning occurs and later calls see a
    /// clean pool.
    pub fn par_map_isolated<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, JobFault>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // AssertUnwindSafe: `f` is `&F + Sync` and items are `&T`; a caught
        // unwind cannot leave either in a broken state visible elsewhere
        // (the same assertion the pool's per-item catch makes).
        let caught =
            self.par_map(items, |item| panic::catch_unwind(panic::AssertUnwindSafe(|| f(item))));
        caught
            .into_iter()
            .enumerate()
            .map(|(index, r)| r.map_err(|payload| JobFault { index, payload }))
            .collect()
    }
}

/// Chunk-size autotuning for [`Runtime::par_map`]: aim for several chunks
/// per worker (load balance for uneven items) without letting one-item
/// chunks drown in claim traffic. Chunk size never affects output, only
/// scheduling granularity.
pub fn auto_chunk(n: usize, threads: usize) -> usize {
    if n == 0 {
        return 1;
    }
    (n / (threads.max(1) * 8)).clamp(1, 64)
}

/// [`auto_chunk`] for **coarse** tasks — items that each carry substantial,
/// possibly uneven work (a gradient block, an interning shard, a per-cluster
/// training job). Claim traffic is negligible next to the per-item cost, so
/// the tuning goes the other way: chunks stay tiny (≤ 4 items) to maximize
/// load balance, reaching 1-item chunks as soon as there are fewer than
/// ~32 items per worker. Like `auto_chunk`, the value never affects output,
/// only scheduling granularity.
pub fn auto_chunk_coarse(n: usize, threads: usize) -> usize {
    if n == 0 {
        return 1;
    }
    (n / (threads.max(1) * 32)).clamp(1, 4)
}

/// Snapshot of the pool's scheduling counters. Counters are process-wide
/// and monotonic since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs pushed onto the pool queue: one per parallel call that reached
    /// the pool.
    pub jobs_executed: u64,
    /// Pool workers that won a helper slot and joined a job.
    pub helper_joins: u64,
    /// Pool workers that woke for a job but lost the claim race.
    pub steal_misses: u64,
}

/// Read the pool's scheduling counters. Counting costs one relaxed atomic
/// increment per scheduling event, in every build.
pub fn pool_stats() -> PoolStats {
    use std::sync::atomic::Ordering;
    PoolStats {
        jobs_executed: pool::stats::JOBS_EXECUTED.load(Ordering::Relaxed),
        helper_joins: pool::stats::HELPER_JOINS.load(Ordering::Relaxed),
        steal_misses: pool::stats::STEAL_MISSES.load(Ordering::Relaxed),
    }
}

fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV).ok()?.trim().parse::<usize>().ok().filter(|&t| t > 0)
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;

    /// The original spawn-scoped-threads-per-call execution path: the
    /// reference implementation the pool is tested against. Output must be
    /// byte-identical to [`Runtime::par_map_chunked`].
    fn par_map_spawn_chunked<T, R, F>(rt: &Runtime, items: &[T], chunk: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        use std::sync::Mutex;

        let n = items.len();
        let chunk = chunk.max(1);
        let threads = rt.threads.min(n.div_ceil(chunk));
        if threads <= 1 {
            return items.iter().map(f).collect();
        }

        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        // Lowest-indexed panic payload wins; only touched on the panic path.
        let panicked: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
        let mut parts: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);

        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        while !stop.load(Ordering::Relaxed) {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            let end = (start + chunk).min(n);
                            for (i, item) in items[start..end].iter().enumerate() {
                                let i = start + i;
                                match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
                                    Ok(r) => local.push((i, r)),
                                    Err(payload) => {
                                        stop.store(true, Ordering::Relaxed);
                                        let mut slot = panicked.lock().unwrap();
                                        match &*slot {
                                            Some((j, _)) if *j <= i => {}
                                            _ => *slot = Some((i, payload)),
                                        }
                                        return local;
                                    }
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                // Worker closures never unwind (panics are caught above);
                // a join error would be a runtime bug, not a user panic.
                parts.push(h.join().expect("ceres-runtime worker did not unwind"));
            }
        });

        if let Some((_, payload)) = panicked.into_inner().unwrap() {
            panic::resume_unwind(payload);
        }

        // Ordered merge: scatter completion-ordered parts back by index.
        let mut out: Vec<Option<R>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for (i, r) in parts.into_iter().flatten() {
            out[i] = Some(r);
        }
        out.into_iter().map(|r| r.expect("every index was claimed exactly once")).collect()
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8] {
            let rt = Runtime::new(threads);
            assert_eq!(rt.par_map(&items, |&x| x * 3), expect, "threads={threads}");
            for chunk in [1, 4, 1000] {
                assert_eq!(
                    rt.par_map_chunked(&items, chunk, |&x| x * 3),
                    expect,
                    "threads={threads} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn parallel_path_matches_sequential_fallback_exactly() {
        // Non-trivial per-item output: formatting exercises byte identity.
        let items: Vec<u64> = (0..100).map(|i| i * 7919).collect();
        let f = |&x: &u64| format!("{:x}:{}", x.wrapping_mul(0x9E3779B97F4A7C15), x % 13);
        let serial = Runtime::sequential().par_map(&items, f);
        let parallel = Runtime::new(8).par_map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn pool_path_matches_spawn_path_exactly() {
        // The persistent pool and the spawn-per-call reference must agree
        // byte-for-byte at every thread count and chunk size.
        let items: Vec<u64> = (0..311u64).map(|i| i.wrapping_mul(2654435761)).collect();
        let f = |&x: &u64| format!("{:x}|{}", x.rotate_left(17), x % 101);
        for threads in [1, 2, 8] {
            let rt = Runtime::new(threads);
            for chunk in [1, 3, 64, 1000] {
                assert_eq!(
                    rt.par_map_chunked(&items, chunk, f),
                    par_map_spawn_chunked(&rt, &items, chunk, f),
                    "threads={threads} chunk={chunk}"
                );
            }
        }
    }

    #[test]
    fn nested_par_map_completes_and_is_deterministic() {
        // A parallel task that itself fans out on the pool: the inner call
        // must make progress even when every worker is busy with the outer
        // job (the caller-participates guarantee).
        let outer: Vec<usize> = (0..16).collect();
        let rt = Runtime::new(4);
        let expect: Vec<usize> = outer.iter().map(|&i| (0..50).map(|j| i * j).sum()).collect();
        let got = rt.par_map(&outer, |&i| {
            let inner: Vec<usize> = (0..50).collect();
            rt.par_map(&inner, |&j| i * j).into_iter().sum::<usize>()
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn auto_chunk_is_sane() {
        assert_eq!(auto_chunk(0, 4), 1);
        assert_eq!(auto_chunk(1, 4), 1);
        assert_eq!(auto_chunk(10, 4), 1);
        assert!(auto_chunk(10_000, 4) > 1);
        assert!(auto_chunk(usize::MAX, 1) <= 64);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let items: Vec<u32> = Vec::new();
        assert!(Runtime::new(4).par_map(&items, |&x| x).is_empty());
        assert!(Runtime::sequential().par_map_chunked(&items, 16, |&x| x).is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        assert_eq!(Runtime::new(8).par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<usize> = (0..64).collect();
        let rt = Runtime::new(4);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            rt.par_map(&items, |&x| {
                if x == 37 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "boom at 37");
    }

    #[test]
    fn lowest_index_panic_wins_when_all_items_panic() {
        let items: Vec<usize> = (0..32).collect();
        // chunk=1 so index 0 is its own claim unit: whichever participant
        // claims it records it, and lower indexes always win the slot.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            Runtime::new(2).par_map_chunked(&items, 1, |&x| -> usize { panic!("item {x}") })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert_eq!(msg, "item 0");
    }

    #[test]
    fn pool_panic_then_reuse_is_clean() {
        // A panicking job must not poison the pool for later jobs.
        let items: Vec<usize> = (0..64).collect();
        let rt = Runtime::new(4);
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            rt.par_map(&items, |&x| -> usize { panic!("die {x}") })
        }))
        .expect_err("must panic");
        let expect: Vec<usize> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(rt.par_map(&items, |&x| x + 1), expect);
    }

    #[test]
    fn sequential_panic_propagates_too() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            Runtime::sequential().par_map(&[1u8], |_| -> u8 { panic!("serial boom") })
        }));
        assert!(result.is_err());
    }

    #[test]
    fn thread_count_resolution_clamps_and_overrides() {
        // Env-independent resolution only; env-reading assertions live in
        // env_variable_sets_the_default_thread_count, the single test
        // allowed to touch the (process-global) environment.
        assert_eq!(Runtime::new(0).threads(), 1);
        assert_eq!(Runtime::new(6).threads(), 6);
        assert_eq!(Runtime::with_threads(Some(3)).threads(), 3);
    }

    #[test]
    fn env_variable_sets_the_default_thread_count() {
        // The ONLY test that reads or writes CERES_THREADS: concurrent
        // getenv during setenv is a data race on glibc, so env access must
        // not span test threads. The original value is restored at the end
        // (the CI matrix pins CERES_THREADS process-wide).
        let saved = std::env::var(THREADS_ENV).ok();
        // Some(0) is "no override": resolution falls through to env/machine,
        // which is always ≥ 1.
        assert!(Runtime::with_threads(Some(0)).threads() >= 1);
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(Runtime::from_env().threads(), 3);
        assert_eq!(Runtime::with_threads(None).threads(), 3);
        // Programmatic override beats the env var.
        assert_eq!(Runtime::with_threads(Some(2)).threads(), 2);
        std::env::set_var(THREADS_ENV, "0");
        assert!(Runtime::from_env().threads() >= 1);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert!(Runtime::from_env().threads() >= 1);
        match saved {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
    }

    #[test]
    fn isolated_map_contains_panics_per_item() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 8] {
            let rt = Runtime::new(threads);
            let out = rt.par_map_isolated(&items, |&x| {
                if x % 13 == 5 {
                    panic!("poison {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len(), "threads={threads}");
            for (i, slot) in out.iter().enumerate() {
                if i % 13 == 5 {
                    let fault = slot.as_ref().expect_err("poisoned item must fault");
                    assert_eq!(fault.index, i, "threads={threads}");
                    assert_eq!(fault.message(), format!("poison {i}"), "threads={threads}");
                } else {
                    assert_eq!(*slot.as_ref().expect("clean item must succeed"), i * 2);
                }
            }
            // Deterministic fault ordering: scanning finds index 5 first.
            let first = out.iter().find_map(|s| s.as_ref().err()).expect("faults exist");
            assert_eq!(first.index, 5, "threads={threads}");
        }
    }

    #[test]
    fn isolated_map_is_byte_identical_on_fault_free_input() {
        let items: Vec<u64> = (0..211u64).map(|i| i.wrapping_mul(48271)).collect();
        let f = |&x: &u64| format!("{:x}~{}", x.rotate_right(9), x % 17);
        let plain = Runtime::sequential().par_map(&items, f);
        for threads in [1, 2, 8] {
            let isolated: Vec<String> = Runtime::new(threads)
                .par_map_isolated(&items, f)
                .into_iter()
                .map(|r| r.expect("fault-free input"))
                .collect();
            assert_eq!(isolated, plain, "threads={threads}");
        }
    }

    #[test]
    fn isolated_map_leaves_the_pool_clean_for_later_jobs() {
        let items: Vec<usize> = (0..32).collect();
        let rt = Runtime::new(4);
        let all_faults = rt.par_map_isolated(&items, |&x| -> usize { panic!("die {x}") });
        assert!(all_faults.iter().all(|r| r.is_err()));
        // Every index carries its own fault (no job-level poisoning).
        for (i, r) in all_faults.iter().enumerate() {
            assert_eq!(r.as_ref().unwrap_err().index, i);
        }
        let expect: Vec<usize> = items.iter().map(|&x| x + 1).collect();
        assert_eq!(rt.par_map(&items, |&x| x + 1), expect);
    }

    #[test]
    fn job_fault_formats_usefully() {
        let fault = Runtime::sequential()
            .par_map_isolated(&[0u8], |_| -> u8 { panic!("static message") })
            .remove(0)
            .expect_err("must fault");
        assert_eq!(fault.message(), "static message");
        assert_eq!(format!("{fault}"), "item 0 panicked: static message");
        assert!(format!("{fault:?}").contains("static message"));
        // Non-string payloads degrade to a placeholder, never a panic.
        let odd = Runtime::sequential()
            .par_map_isolated(&[0u8], |_| -> u8 { std::panic::panic_any(42usize) })
            .remove(0)
            .expect_err("must fault");
        assert_eq!(odd.message(), "<non-string panic payload>");
    }

    #[test]
    fn borrowed_state_is_shared_not_cloned() {
        // par_map must work with closures that only borrow (&Fn + Sync):
        // a lookup table shared by reference across all workers.
        let table: Vec<u64> = (0..1000).map(|i| i * i).collect();
        let idx: Vec<usize> = (0..1000).rev().collect();
        let out = Runtime::new(4).par_map(&idx, |&i| table[i]);
        assert_eq!(out[0], 999 * 999);
        assert_eq!(out[999], 0);
    }
}
