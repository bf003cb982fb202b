//! The persistent worker pool behind `Runtime::par_map*`.
//!
//! One process-wide pool, created lazily by the first parallel call and
//! grown on demand (never shrunk, never torn down — workers park on a
//! condvar and cost nothing while idle). A parallel call is a
//! **chunk-claiming job**:
//!
//! 1. the caller pushes the job onto the pool queue and wakes workers;
//! 2. the caller itself claims and runs chunks until none remain
//!    (*caller participates* — this is what makes nested `par_map` from
//!    inside a pool worker deadlock-free: the nested caller drains its own
//!    job even when every other worker is busy);
//! 3. idle workers join as helpers, up to `threads - 1` of them;
//! 4. the caller waits until every participant has left the job, then
//!    collects the per-index result slots.
//!
//! ## Safety argument
//!
//! The job's borrowed state (`items`, `f`, the result slots) lives on the
//! caller's stack and is reached through a type-erased pointer, so the
//! whole design reduces to one invariant: **no participant dereferences
//! the context except between a successful chunk claim and the
//! participant-count decrement the caller waits on.**
//!
//! * Claims come from a monotonic `fetch_add` counter stored in the
//!   heap-allocated job header (`Arc<Job>`), never on the stack. Once the
//!   counter passes `n_chunks`, every future claim fails — and the caller
//!   only stops participating when its own claim fails, so after the
//!   caller moves on, a late helper can touch nothing but the `Arc`.
//! * Each successful claimant is counted in `active` (a mutex so the
//!   caller can condvar-wait on it). The caller returns only after
//!   `active == 0`, i.e. after every dereferencing participant is gone.
//! * Panics poison the claim counter *first* (`fetch_max(n_chunks)`), so
//!   a stopped job can never hand out another chunk, then record the
//!   lowest-indexed payload for deterministic re-raise.
//!
//! Each result slot `out[i]` is written by exactly one claimant (chunks
//! partition the index space), and those writes happen-before the caller's
//! reads via the `active` mutex.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Upper bound on pool workers, a guard against absurd `CERES_THREADS`
/// values; the pool grows to `threads - 1` as runtimes request capacity.
const MAX_POOL_WORKERS: usize = 128;

/// Scheduling counters, always compiled: one relaxed atomic increment per
/// scheduling event. Read through [`crate::pool_stats`].
pub(crate) mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Jobs pushed onto the pool queue (one per parallel call), whether
    /// or not a helper ever joined them.
    pub(crate) static JOBS_EXECUTED: AtomicU64 = AtomicU64::new(0);
    /// Pool workers that won a helper slot and participated in a job.
    pub(crate) static HELPER_JOINS: AtomicU64 = AtomicU64::new(0);
    /// Pool workers that woke for a job but lost the claim race (the job
    /// was exhausted or its helper slots were already taken).
    pub(crate) static STEAL_MISSES: AtomicU64 = AtomicU64::new(0);

    /// Record the outcome of one worker's `try_help` attempt.
    pub(crate) fn note_help_attempt(helped: bool) {
        if helped {
            HELPER_JOINS.fetch_add(1, Ordering::Relaxed);
        } else {
            STEAL_MISSES.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Poison-tolerant lock, used for every mutex in this module. The critical
/// sections here are tiny integer-and-pointer regions that cannot panic, so
/// a poisoned mutex can only mean a panic *elsewhere* unwound past a guard;
/// the protected state (monotonic counters, a panic slot, the job queue) is
/// still coherent, and continuing is strictly better than converting
/// someone else's fault into a second panic on the serve path.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Type-erased view of one `par_map_chunked` call, valid only while the
/// submitting caller is inside [`run`].
struct JobCtx<T, R, F> {
    items: *const T,
    n: usize,
    chunk: usize,
    f: *const F,
    slots: *mut Option<R>,
}

/// Heap-shared job header. Everything a participant touches *before*
/// winning a claim lives here; `ctx` is only dereferenced after one.
struct Job {
    /// Next chunk index to claim (monotonic; `>= n_chunks` = exhausted).
    next: AtomicUsize,
    n_chunks: usize,
    /// Helpers admitted so far (the caller is not counted).
    helpers: AtomicUsize,
    helper_limit: usize,
    /// Lowest-indexed panic payload (deterministic re-raise).
    panic_slot: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    /// Participants currently inside [`Job::participate`]; guarded by a
    /// mutex (not an atomic) so the caller can condvar-wait for zero.
    active: Mutex<usize>,
    idle_cv: Condvar,
    /// Monomorphized chunk runner + its stack context.
    // SAFETY: the `unsafe fn` pointer is only invoked between a successful
    // chunk claim and the participant-count decrement (module-level
    // protocol), which is exactly the contract its pointee requires.
    run_chunk: unsafe fn(*const (), &Job, usize),
    ctx: *const (),
}

// SAFETY: `ctx` and the pointers inside it are only dereferenced under the
// claim protocol documented at module level; the pointee types are
// constrained by `run` to `T: Sync`, `R: Send`, `F: Sync`.
unsafe impl Send for Job {}
// SAFETY: same argument as `Send` above — shared access never touches
// `ctx` outside the claim protocol.
unsafe impl Sync for Job {}

impl Job {
    /// Claim and run chunks until none remain. Never blocks.
    fn participate(&self) {
        *lock(&self.active) += 1;
        loop {
            let c = self.next.fetch_add(1, Ordering::SeqCst);
            if c >= self.n_chunks {
                break;
            }
            // SAFETY: successful claim; see the module-level argument.
            unsafe { (self.run_chunk)(self.ctx, self, c) };
        }
        let mut active = lock(&self.active);
        *active -= 1;
        if *active == 0 {
            self.idle_cv.notify_all();
        }
    }

    /// Block until every participant has left the job.
    fn wait_idle(&self) {
        let mut active = lock(&self.active);
        while *active > 0 {
            active = self.idle_cv.wait(active).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Would a fresh helper find work here?
    fn wants_help(&self) -> bool {
        self.next.load(Ordering::SeqCst) < self.n_chunks
            && self.helpers.load(Ordering::SeqCst) < self.helper_limit
    }

    /// Reserve a helper slot; a lost race returns `false`.
    fn try_help(&self) -> bool {
        if self.next.load(Ordering::SeqCst) >= self.n_chunks {
            return false;
        }
        if self.helpers.fetch_add(1, Ordering::SeqCst) >= self.helper_limit {
            self.helpers.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        true
    }

    /// Poison further claims, then record the lowest-indexed panic.
    ///
    /// This is the pool's **fail-fast** containment layer: one panic
    /// abandons the job's remaining chunks and re-raises on the caller.
    /// The **isolating** layer ([`crate::Runtime::par_map_isolated`])
    /// catches unwinds inside the item closure, *below* this one, so a
    /// contained fault never reaches `record_panic` and the job runs to
    /// completion with per-item [`crate::JobFault`]s instead.
    fn record_panic(&self, item: usize, payload: Box<dyn Any + Send>) {
        self.next.fetch_max(self.n_chunks, Ordering::SeqCst);
        let mut slot = lock(&self.panic_slot);
        match &*slot {
            Some((j, _)) if *j <= item => {}
            _ => *slot = Some((item, payload)),
        }
    }
}

/// Run chunk `c` of the job: `f` over `items[c*chunk .. min(+chunk, n)]`,
/// results written to the per-index slots.
///
/// # Safety
/// Caller holds a successful claim on `c`, and the submitting thread is
/// still inside [`run`] (guaranteed by the claim protocol).
unsafe fn run_chunk<T, R, F>(ctx: *const (), job: &Job, c: usize)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // SAFETY: the submitting thread is still inside `run` (this fn's
    // contract), so `ctx` points at its live stack-allocated `JobCtx`, and
    // the `items`/`f` pointers inside it borrow arguments of that same
    // still-active `run` call.
    let ctx = unsafe { &*(ctx as *const JobCtx<T, R, F>) };
    // SAFETY: `items`/`n` came verbatim from a `&[T]` in `run`.
    let items = unsafe { std::slice::from_raw_parts(ctx.items, ctx.n) };
    // SAFETY: `f` borrows `run`'s `&F` argument, live for the same reason.
    let f = unsafe { &*ctx.f };
    let start = c * ctx.chunk;
    let end = (start + ctx.chunk).min(ctx.n);
    for (i, item) in items[start..end].iter().enumerate() {
        let i = start + i;
        match panic::catch_unwind(AssertUnwindSafe(|| f(item))) {
            // SAFETY: each index belongs to exactly one claimed chunk.
            Ok(r) => unsafe { *ctx.slots.add(i) = Some(r) },
            Err(payload) => {
                job.record_panic(i, payload);
                return;
            }
        }
    }
}

/// Execute one parallel map on the pool. `threads >= 2` (the sequential
/// fallback short-circuits in `Runtime::par_map_chunked`).
pub(crate) fn run<T, R, F>(items: &[T], chunk: usize, threads: usize, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let ctx = JobCtx::<T, R, F> {
        items: items.as_ptr(),
        n,
        chunk,
        f: f as *const F,
        slots: slots.as_mut_ptr(),
    };
    let job = Arc::new(Job {
        next: AtomicUsize::new(0),
        n_chunks: n.div_ceil(chunk),
        helpers: AtomicUsize::new(0),
        helper_limit: threads - 1,
        panic_slot: Mutex::new(None),
        active: Mutex::new(0),
        idle_cv: Condvar::new(),
        run_chunk: run_chunk::<T, R, F>,
        ctx: &ctx as *const JobCtx<T, R, F> as *const (),
    });

    let pool = Pool::global();
    pool.ensure_workers(threads - 1);
    stats::JOBS_EXECUTED.fetch_add(1, Ordering::Relaxed);
    pool.submit(Arc::clone(&job));
    job.participate();
    pool.retire(&job);
    job.wait_idle();

    if let Some((_, payload)) = lock(&job.panic_slot).take() {
        panic::resume_unwind(payload);
    }
    // lint: allow(CL003) reason="chunks partition 0..n and wait_idle returned with no recorded panic, so every slot was written exactly once; an empty slot here is a broken claim protocol, not a recoverable state"
    slots.into_iter().map(|r| r.expect("every index was claimed exactly once")).collect()
}

/// The process-wide pool: a queue of in-flight jobs plus parked workers.
struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    work_cv: Condvar,
    n_workers: Mutex<usize>,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            n_workers: Mutex::new(0),
        })
    }

    /// Grow the pool to at least `want` workers (capped, never shrunk).
    /// Spawn failure (thread exhaustion) is not fatal: the pool keeps the
    /// workers it has, and jobs still complete because the submitting
    /// caller always participates in its own job.
    fn ensure_workers(&'static self, want: usize) {
        let want = want.min(MAX_POOL_WORKERS);
        let mut n = lock(&self.n_workers);
        while *n < want {
            let spawned = std::thread::Builder::new()
                .name(format!("ceres-pool-{}", *n + 1))
                .spawn(move || self.worker_loop());
            match spawned {
                Ok(_) => *n += 1,
                Err(_) => break,
            }
        }
    }

    fn submit(&self, job: Arc<Job>) {
        lock(&self.queue).push_back(job);
        self.work_cv.notify_all();
    }

    /// Remove a finished job from the queue (late helpers already holding
    /// the `Arc` fail their claims harmlessly).
    fn retire(&self, job: &Arc<Job>) {
        let mut q = lock(&self.queue);
        if let Some(pos) = q.iter().position(|j| Arc::ptr_eq(j, job)) {
            q.remove(pos);
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = lock(&self.queue);
                loop {
                    if let Some(j) = q.iter().find(|j| j.wants_help()).cloned() {
                        break j;
                    }
                    q = self.work_cv.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
            };
            let helped = job.try_help();
            stats::note_help_attempt(helped);
            if helped {
                job.participate();
            }
            // Exhausted or full jobs stop matching `wants_help`, so the
            // next loop iteration parks instead of spinning.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Never called: the tests below race for claims but run no chunks.
    ///
    /// # Safety
    /// Trivially safe — it dereferences nothing (and aborts the test run
    /// if a claim race ever reaches it).
    unsafe fn unreachable_chunk(_: *const (), _: &Job, _: usize) {
        unreachable!("claim-race tests never participate in a job");
    }

    fn job(next: usize, n_chunks: usize, helper_limit: usize) -> Job {
        Job {
            next: AtomicUsize::new(next),
            n_chunks,
            helpers: AtomicUsize::new(0),
            helper_limit,
            panic_slot: Mutex::new(None),
            active: Mutex::new(0),
            idle_cv: Condvar::new(),
            run_chunk: unreachable_chunk,
            ctx: std::ptr::null(),
        }
    }

    /// The `pool_steal_misses` counter read 0 in every committed bench
    /// record — true (a 2-thread run has one pool worker, so nobody ever
    /// races it), but indistinguishable from the counter being dead code.
    /// A scheduler-driven provocation is hopeless to pin down on an
    /// arbitrary CI box (on a 1-core machine the losing window is a few
    /// instructions wide), so
    /// these tests drive the worker's exact sequence —
    /// `wants_help` → `try_help` → `note_help_attempt` (the
    /// [`Pool::worker_loop`] body) — through both losing interleavings
    /// directly, proving the counter moves whenever a worker loses.
    ///
    /// Counters are process-global and other tests in this binary also run
    /// pool work, so every assertion is a monotonic "moved past the before
    /// value" check, never an exact equality.
    #[test]
    fn losing_the_helper_slot_race_records_a_steal_miss() {
        let j = job(0, 100, 1);
        assert!(j.wants_help(), "both racers saw claimable work under the queue lock");

        let joins0 = stats::HELPER_JOINS.load(Ordering::Relaxed);
        let misses0 = stats::STEAL_MISSES.load(Ordering::Relaxed);

        // Two workers woke for the same one-helper job; the slot admits one.
        let first = j.try_help();
        stats::note_help_attempt(first);
        let second = j.try_help();
        stats::note_help_attempt(second);

        assert!(first, "the first racer wins the only helper slot");
        assert!(!second, "the second racer must lose the slot race");
        assert!(stats::HELPER_JOINS.load(Ordering::Relaxed) > joins0);
        assert!(
            stats::STEAL_MISSES.load(Ordering::Relaxed) > misses0,
            "a lost helper-slot race must move the steal-miss counter"
        );
    }

    #[test]
    fn waking_for_an_exhausted_job_records_a_steal_miss() {
        // The worker passed `wants_help` under the queue lock, then the
        // caller (or another helper) claimed the last chunk before its
        // `try_help` landed: `next` has reached `n_chunks`.
        let j = job(1, 1, 1);
        let misses0 = stats::STEAL_MISSES.load(Ordering::Relaxed);

        let helped = j.try_help();
        stats::note_help_attempt(helped);

        assert!(!helped, "an exhausted job admits no helpers");
        assert!(
            stats::STEAL_MISSES.load(Ordering::Relaxed) > misses0,
            "waking for an exhausted job must move the steal-miss counter"
        );
    }
}
