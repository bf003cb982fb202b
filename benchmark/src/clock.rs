//! The benchmark's one wall clock.
//!
//! Every timing in the benchmark goes through [`now`], so the single
//! wall-clock read in the crate is easy to audit: times are measurements,
//! never inputs to the pipeline output the benchmark checks.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    // lint: allow(CL002) reason="benchmark timer: wall time is the measurement itself and never feeds the pipeline output the benchmark checks"
    Instant::now()
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Run `f`, returning its result and its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = now();
    let out = f();
    (ms_since(t0), out)
}
