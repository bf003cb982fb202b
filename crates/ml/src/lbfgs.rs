//! Limited-memory BFGS.
//!
//! The paper trains its extractor with scikit-learn's LBFGS solver; this is
//! a from-scratch implementation of the same method: the two-loop recursion
//! over an `m`-deep history of (s, y) pairs, safeguarded by a backtracking
//! Armijo line search, falling back to steepest descent whenever the
//! curvature condition would be violated.
//!
//! The objective is an opaque `FnMut(&[f64], &mut [f64]) -> f64` and is
//! evaluated once per iteration *plus* once per line-search probe — in
//! CERES it is the duplicate-folded training objective
//! (`ceres_ml::logreg`), which is why the caller keeps any scratch state
//! (score buffers) inside the closure rather than allocating per call.

use std::collections::VecDeque;

/// L-BFGS hyperparameters.
#[derive(Debug, Clone)]
pub struct LbfgsConfig {
    /// History depth `m`.
    pub history: usize,
    pub max_iters: usize,
    /// Convergence: ‖∇f‖∞ ≤ tol · max(1, |f|).
    pub tol: f64,
    /// Armijo sufficient-decrease constant.
    pub armijo_c1: f64,
    /// Line-search backtracking factor.
    pub backtrack: f64,
    /// Max line-search steps per iteration.
    pub max_line_search: usize,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            history: 7,
            max_iters: 100,
            tol: 1e-5,
            armijo_c1: 1e-4,
            backtrack: 0.5,
            max_line_search: 30,
        }
    }
}

/// Result of a minimization run.
#[derive(Debug, Clone)]
pub struct LbfgsOutcome {
    pub x: Vec<f64>,
    pub f: f64,
    pub iterations: usize,
    pub converged: bool,
}

/// One stored correction pair: the step `s = x₊ − x`, the gradient change
/// `y = ∇f₊ − ∇f`, and the products the two-loop recursion reads, taken
/// once when the pair is stored.
#[derive(Debug)]
struct Correction {
    s: Vec<f64>,
    y: Vec<f64>,
    /// sᵀy, accumulated in index order while `s` and `y` are written.
    sy: f64,
    /// yᵀy, accumulated the same way.
    yy: f64,
}

/// Minimize `objective` starting at `x0`.
///
/// `objective(x, grad)` must fill `grad` with ∇f(x) and return f(x).
///
/// The iteration allocates nothing after its first `history + 1` accepted
/// steps: the current and previous points and gradients swap buffers, and
/// a pair evicted from the full history lends its buffers to the next one.
pub fn lbfgs_minimize<F>(x0: Vec<f64>, mut objective: F, cfg: &LbfgsConfig) -> LbfgsOutcome
where
    F: FnMut(&[f64], &mut [f64]) -> f64,
{
    let n = x0.len();
    let mut x = x0;
    let mut grad = vec![0.0; n];
    let mut f = objective(&x, &mut grad);
    let mut x_prev = vec![0.0; n];
    let mut grad_prev = vec![0.0; n];

    // The correction history, oldest first, and a spare pair's buffers.
    let mut history: VecDeque<Correction> = VecDeque::with_capacity(cfg.history);
    let mut spare: Option<Correction> = None;
    let mut alpha = Vec::with_capacity(cfg.history);

    let mut direction = vec![0.0; n];
    let mut iterations = 0;

    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        let gnorm = grad.iter().fold(0.0f64, |a, g| a.max(g.abs()));
        if gnorm <= cfg.tol * f.abs().max(1.0) {
            return LbfgsOutcome { x, f, iterations: iter, converged: true };
        }

        two_loop(&grad, &history, &mut alpha, &mut direction);

        // Ensure a descent direction; fall back to -grad otherwise.
        let mut descent: f64 = direction.iter().zip(&grad).map(|(d, g)| d * g).sum();
        if descent >= 0.0 || !descent.is_finite() {
            for (d, g) in direction.iter_mut().zip(&grad) {
                *d = -g;
            }
            descent = direction.iter().zip(&grad).map(|(d, g)| d * g).sum();
        }

        // Backtracking Armijo line search.
        let mut step = if history.is_empty() {
            // First step: scale to a unit-ish move.
            1.0 / grad.iter().map(|g| g * g).sum::<f64>().sqrt().max(1.0)
        } else {
            1.0
        };
        // The accepted point and gradient become the previous ones; the
        // line search overwrites every entry of the other buffers.
        std::mem::swap(&mut x, &mut x_prev);
        std::mem::swap(&mut grad, &mut grad_prev);
        let f_prev = f;
        let mut accepted = false;
        for _ in 0..cfg.max_line_search {
            for i in 0..n {
                x[i] = x_prev[i] + step * direction[i];
            }
            let f_new = objective(&x, &mut grad);
            if f_new.is_finite() && f_new <= f_prev + cfg.armijo_c1 * step * descent {
                f = f_new;
                accepted = true;
                break;
            }
            step *= cfg.backtrack;
        }
        if !accepted {
            // Line search failed: return the last accepted point.
            return LbfgsOutcome { x: x_prev, f: f_prev, iterations, converged: false };
        }

        // Update history with the accepted step.
        let (mut s, mut y) = match spare.take() {
            Some(old) => (old.s, old.y),
            None => (vec![0.0; n], vec![0.0; n]),
        };
        let (mut sy, mut yy) = (0.0, 0.0);
        for i in 0..n {
            s[i] = x[i] - x_prev[i];
            y[i] = grad[i] - grad_prev[i];
            sy += s[i] * y[i];
            yy += y[i] * y[i];
        }
        let pair = Correction { s, y, sy, yy };
        // Skip the pair if curvature is not positive (keeps H ≻ 0).
        if sy > 1e-10 && cfg.history > 0 {
            if history.len() == cfg.history {
                spare = history.pop_front();
            }
            history.push_back(pair);
        } else {
            spare = Some(pair);
        }
    }

    LbfgsOutcome { x, f, iterations, converged: false }
}

/// The classic two-loop recursion: writes `-H·grad` into `direction`.
/// `alpha` is scratch for the first loop's coefficients.
///
/// `sᵀy` and `yᵀy` come from the stored pair. Each was summed in index
/// order from 0.0, as the `Iterator::sum` over the same products here
/// would; the two starts (0.0 and −0.0) differ only while every product
/// so far is zero, and `sᵀy > 1e-10` and `yᵀy`'s non-negative terms close
/// that gap, so the stored values are the recomputed ones to the bit.
fn two_loop(
    grad: &[f64],
    history: &VecDeque<Correction>,
    alpha: &mut Vec<f64>,
    direction: &mut [f64],
) {
    direction.copy_from_slice(grad);
    alpha.clear();
    for pair in history.iter().rev() {
        let rho = 1.0 / pair.sy;
        let a = rho * pair.s.iter().zip(direction.iter()).map(|(s, q)| s * q).sum::<f64>();
        alpha.push(a);
        for (q, y) in direction.iter_mut().zip(&pair.y) {
            *q -= a * y;
        }
    }
    // Initial Hessian scaling γ = sᵀy / yᵀy from the most recent pair.
    if let Some(last) = history.back() {
        if last.yy > 0.0 {
            let gamma = last.sy / last.yy;
            for q in direction.iter_mut() {
                *q *= gamma;
            }
        }
    }
    for (pair, &a) in history.iter().zip(alpha.iter().rev()) {
        let rho = 1.0 / pair.sy;
        let beta = rho * pair.y.iter().zip(direction.iter()).map(|(y, q)| y * q).sum::<f64>();
        for (q, s) in direction.iter_mut().zip(&pair.s) {
            *q += (a - beta) * s;
        }
    }
    for q in direction.iter_mut() {
        *q = -*q;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic_bowl() {
        // f(x) = Σ aᵢ (xᵢ - bᵢ)², minimum at b.
        let a = [1.0, 10.0, 0.5, 3.0];
        let b = [2.0, -1.0, 0.0, 4.0];
        let obj = |x: &[f64], g: &mut [f64]| {
            let mut f = 0.0;
            for i in 0..4 {
                let d = x[i] - b[i];
                f += a[i] * d * d;
                g[i] = 2.0 * a[i] * d;
            }
            f
        };
        let out = lbfgs_minimize(vec![0.0; 4], obj, &LbfgsConfig::default());
        assert!(out.converged, "should converge on a quadratic");
        for (i, (xi, bi)) in out.x.iter().zip(&b).enumerate() {
            assert!((xi - bi).abs() < 1e-4, "x[{i}] = {xi}");
        }
    }

    #[test]
    fn minimizes_rosenbrock() {
        // The classic banana function, minimum at (1, 1).
        let obj = |x: &[f64], g: &mut [f64]| {
            let (a, b) = (x[0], x[1]);
            g[0] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a);
            g[1] = 200.0 * (b - a * a);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        };
        let cfg = LbfgsConfig { max_iters: 500, ..LbfgsConfig::default() };
        let out = lbfgs_minimize(vec![-1.2, 1.0], obj, &cfg);
        assert!(
            (out.x[0] - 1.0).abs() < 1e-3 && (out.x[1] - 1.0).abs() < 1e-3,
            "got {:?} after {} iters",
            out.x,
            out.iterations
        );
    }

    #[test]
    fn converges_faster_than_iteration_cap_on_easy_problems() {
        let obj = |x: &[f64], g: &mut [f64]| {
            g[0] = 2.0 * x[0];
            x[0] * x[0]
        };
        let out = lbfgs_minimize(vec![100.0], obj, &LbfgsConfig::default());
        assert!(out.converged);
        assert!(out.iterations < 50);
        assert!(out.x[0].abs() < 1e-3);
    }

    /// The history bookkeeping before buffers were swapped and recycled,
    /// verbatim: clones of the point and gradient per iteration, fresh
    /// `(s, y)` vectors per step, `remove(0)` eviction, and `sᵀy`/`yᵀy`
    /// recomputed in the two-loop recursion.
    fn reference_minimize<F>(x0: Vec<f64>, mut objective: F, cfg: &LbfgsConfig) -> LbfgsOutcome
    where
        F: FnMut(&[f64], &mut [f64]) -> f64,
    {
        let n = x0.len();
        let mut x = x0;
        let mut grad = vec![0.0; n];
        let mut f = objective(&x, &mut grad);
        let mut s_hist: Vec<Vec<f64>> = Vec::new();
        let mut y_hist: Vec<Vec<f64>> = Vec::new();
        let mut rho_hist: Vec<f64> = Vec::new();
        let mut direction = vec![0.0; n];
        let mut iterations = 0;
        for iter in 0..cfg.max_iters {
            iterations = iter + 1;
            let gnorm = grad.iter().fold(0.0f64, |a, g| a.max(g.abs()));
            if gnorm <= cfg.tol * f.abs().max(1.0) {
                return LbfgsOutcome { x, f, iterations: iter, converged: true };
            }
            direction.copy_from_slice(&grad);
            let m = s_hist.len();
            let mut alpha = vec![0.0; m];
            for i in (0..m).rev() {
                let a = rho_hist[i]
                    * s_hist[i].iter().zip(direction.iter()).map(|(s, q)| s * q).sum::<f64>();
                alpha[i] = a;
                for (q, y) in direction.iter_mut().zip(&y_hist[i]) {
                    *q -= a * y;
                }
            }
            if let (Some(s), Some(y)) = (s_hist.last(), y_hist.last()) {
                let sy: f64 = s.iter().zip(y).map(|(a, b)| a * b).sum();
                let yy: f64 = y.iter().map(|v| v * v).sum();
                if yy > 0.0 {
                    let gamma = sy / yy;
                    for q in direction.iter_mut() {
                        *q *= gamma;
                    }
                }
            }
            for i in 0..m {
                let beta = rho_hist[i]
                    * y_hist[i].iter().zip(direction.iter()).map(|(y, q)| y * q).sum::<f64>();
                for (q, s) in direction.iter_mut().zip(&s_hist[i]) {
                    *q += (alpha[i] - beta) * s;
                }
            }
            for q in direction.iter_mut() {
                *q = -*q;
            }
            let descent: f64 = direction.iter().zip(&grad).map(|(d, g)| d * g).sum();
            if descent >= 0.0 || !descent.is_finite() {
                for (d, g) in direction.iter_mut().zip(&grad) {
                    *d = -g;
                }
            }
            let descent: f64 = direction.iter().zip(&grad).map(|(d, g)| d * g).sum();
            let mut step = if s_hist.is_empty() {
                1.0 / grad.iter().map(|g| g * g).sum::<f64>().sqrt().max(1.0)
            } else {
                1.0
            };
            let x_prev = x.clone();
            let grad_prev = grad.clone();
            let f_prev = f;
            let mut accepted = false;
            for _ in 0..cfg.max_line_search {
                for i in 0..n {
                    x[i] = x_prev[i] + step * direction[i];
                }
                let f_new = objective(&x, &mut grad);
                if f_new.is_finite() && f_new <= f_prev + cfg.armijo_c1 * step * descent {
                    f = f_new;
                    accepted = true;
                    break;
                }
                step *= cfg.backtrack;
            }
            if !accepted {
                return LbfgsOutcome { x: x_prev, f: f_prev, iterations, converged: false };
            }
            let mut s = vec![0.0; n];
            let mut y = vec![0.0; n];
            let mut sy = 0.0;
            for i in 0..n {
                s[i] = x[i] - x_prev[i];
                y[i] = grad[i] - grad_prev[i];
                sy += s[i] * y[i];
            }
            if sy > 1e-10 {
                if s_hist.len() == cfg.history {
                    s_hist.remove(0);
                    y_hist.remove(0);
                    rho_hist.remove(0);
                }
                s_hist.push(s);
                y_hist.push(y);
                rho_hist.push(1.0 / sy);
            }
        }
        LbfgsOutcome { x, f, iterations, converged: false }
    }

    #[test]
    fn recycled_history_matches_the_allocating_reference_bit_for_bit() {
        // A non-convex bowl (negative-curvature steps skip their pair) and
        // Rosenbrock, both run long enough to evict from a full history.
        // Every point the objective is asked about must match, in order.
        fn wavy(x: &[f64], g: &mut [f64]) -> f64 {
            let mut f = 0.0;
            for (i, (&xi, gi)) in x.iter().zip(g.iter_mut()).enumerate() {
                let a = 1.0 + i as f64 * 0.3;
                f += a * xi.cos() + 0.05 * xi * xi;
                *gi = -a * xi.sin() + 0.1 * xi;
            }
            f
        }
        fn rosenbrock(x: &[f64], g: &mut [f64]) -> f64 {
            let (a, b) = (x[0], x[1]);
            g[0] = -400.0 * a * (b - a * a) - 2.0 * (1.0 - a);
            g[1] = 200.0 * (b - a * a);
            (1.0 - a).powi(2) + 100.0 * (b - a * a).powi(2)
        }
        let cfg = LbfgsConfig { max_iters: 40, tol: 0.0, ..LbfgsConfig::default() };
        let wavy_x0: Vec<f64> = (0..12).map(|i| (i as f64 * 0.7).sin() * 3.0).collect();
        type Objective = fn(&[f64], &mut [f64]) -> f64;
        let cases: [(Vec<f64>, Objective); 2] = [(wavy_x0, wavy), (vec![-1.2, 1.0], rosenbrock)];
        for (x0, obj) in cases {
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (mut got_trace, mut want_trace) = (Vec::new(), Vec::new());
            let got = lbfgs_minimize(
                x0.clone(),
                |x: &[f64], g: &mut [f64]| {
                    got_trace.push(bits(x));
                    obj(x, g)
                },
                &cfg,
            );
            let want = reference_minimize(
                x0,
                |x: &[f64], g: &mut [f64]| {
                    want_trace.push(bits(x));
                    obj(x, g)
                },
                &cfg,
            );
            assert!(got.iterations > cfg.history, "fixture must fill the history");
            assert!(got_trace == want_trace, "the objective was probed at different points");
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(got.converged, want.converged);
            assert_eq!(got.f.to_bits(), want.f.to_bits());
            assert_eq!(bits(&got.x), bits(&want.x));
        }
    }

    #[test]
    fn zero_gradient_start_converges_immediately() {
        let obj = |x: &[f64], g: &mut [f64]| {
            g.fill(0.0);
            let _ = x;
            7.0
        };
        let out = lbfgs_minimize(vec![1.0, 2.0], obj, &LbfgsConfig::default());
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert_eq!(out.f, 7.0);
    }
}
