//! Empirical verification of Theorem 2's O(1/√K + 1/K) convergence rate
//! on a convex problem.
//!
//! The theorem bounds `L(mean_k w_k) − L(w*)`. We reproduce it with
//! distributed L2-regularized logistic regression: N simulated workers,
//! exact eq. 10/11 update rules (including the 2-bit quantizer with
//! residuals and the k-step correction), learning rate `η ∝ 1/√K` as in
//! the corollary, and we report the suboptimality of the averaged iterate
//! at increasing K.

use cdsgd_compress::{decompress, GradientCompressor, TwoBitQuantizer};
use cdsgd_tensor::SmallRng64;

/// A binary logistic-regression problem instance (convex, smooth).
pub struct LogisticProblem {
    /// Feature rows, `n × d`.
    xs: Vec<Vec<f32>>,
    /// Labels in {0, 1}.
    ys: Vec<f32>,
    dim: usize,
    l2: f32,
}

impl LogisticProblem {
    /// Generate a separable-with-noise instance.
    pub fn generate(n: usize, dim: usize, seed: u64) -> Self {
        let mut rng = SmallRng64::new(seed);
        let mut w_true = vec![0.0f32; dim];
        for w in &mut w_true {
            *w = rng.gauss();
        }
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f32> = (0..dim).map(|_| rng.gauss()).collect();
            let margin: f32 = x.iter().zip(&w_true).map(|(a, b)| a * b).sum();
            let p = 1.0 / (1.0 + (-margin).exp());
            ys.push(if rng.unit_f32() < p { 1.0 } else { 0.0 });
            xs.push(x);
        }
        Self {
            xs,
            ys,
            dim,
            l2: 1e-3,
        }
    }

    /// Dataset size.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Full-batch loss at `w`.
    pub fn loss(&self, w: &[f32]) -> f64 {
        let mut total = 0.0f64;
        for (x, &y) in self.xs.iter().zip(&self.ys) {
            let z: f32 = x.iter().zip(w).map(|(a, b)| a * b).sum();
            // Numerically stable log(1 + e^z) − y·z.
            let log1pe = if z > 0.0 {
                z + (-z).exp().ln_1p()
            } else {
                z.exp().ln_1p()
            };
            total += (log1pe - y * z) as f64;
        }
        total / self.len() as f64
            + 0.5 * self.l2 as f64 * w.iter().map(|&v| (v * v) as f64).sum::<f64>()
    }

    /// Gradient over the sample index range `[lo, hi)`, written to `out`.
    pub fn grad_range(&self, w: &[f32], lo: usize, hi: usize, out: &mut [f32]) {
        out.fill(0.0);
        let m = (hi - lo) as f32;
        for i in lo..hi {
            let x = &self.xs[i];
            let z: f32 = x.iter().zip(w).map(|(a, b)| a * b).sum();
            let p = 1.0 / (1.0 + (-z).exp());
            let c = (p - self.ys[i]) / m;
            for (o, &xi) in out.iter_mut().zip(x) {
                *o += c * xi;
            }
        }
        for (o, &wi) in out.iter_mut().zip(w) {
            *o += self.l2 * wi;
        }
    }

    /// Approximate the optimum by many full-batch GD steps; returns
    /// `(w*, L(w*))`.
    pub fn solve(&self, iters: usize) -> (Vec<f32>, f64) {
        let mut w = vec![0.0f32; self.dim];
        let mut g = vec![0.0f32; self.dim];
        for _ in 0..iters {
            self.grad_range(&w, 0, self.len(), &mut g);
            for (wi, &gi) in w.iter_mut().zip(&g) {
                *wi -= 1.0 * gi;
            }
        }
        let l = self.loss(&w);
        (w, l)
    }
}

/// One point of the convergence experiment.
#[derive(Clone, Copy, Debug)]
pub struct RatePoint {
    /// Total iterations K.
    pub k_iters: usize,
    /// `L(w̄_K) − L(w*)` for the averaged iterate.
    pub suboptimality: f64,
}

/// Run CD-SGD (exact eq. 10/11 rules, N workers simulated in-process,
/// threshold-α 2-bit quantizer with residuals, k-step correction) for `K`
/// iterations with `η = c/√K`, and return the averaged-iterate
/// suboptimality.
pub fn cd_sgd_suboptimality(
    problem: &LogisticProblem,
    n_workers: usize,
    kstep: usize,
    big_k: usize,
    opt_loss: f64,
    seed: u64,
) -> RatePoint {
    let d = problem.dim();
    let eta = 1.0f32 / (big_k as f64).sqrt() as f32;
    let local_lr = eta;
    let threshold = 0.05f32;
    let batch = 16usize;

    let mut rng = SmallRng64::new(seed);
    let mut w_global = vec![0.0f32; d];
    // Per-worker local weights and quantizers.
    let mut w_loc = vec![vec![0.0f32; d]; n_workers];
    let mut quant: Vec<TwoBitQuantizer> = (0..n_workers)
        .map(|_| TwoBitQuantizer::new(threshold))
        .collect();
    let mut w_avg = vec![0.0f64; d];

    let mut grad = vec![0.0f32; d];
    let mut decoded = vec![0.0f32; d];
    for it in 0..big_k {
        let mut agg = vec![0.0f32; d];
        let prev_global = w_global.clone();
        for (g, (wl, q)) in w_loc.iter_mut().zip(quant.iter_mut()).enumerate() {
            let _ = g;
            let (wl, q) = (wl, q);
            let lo = rng.below(problem.len().saturating_sub(batch).max(1));
            problem.grad_range(wl, lo, (lo + batch).min(problem.len()), &mut grad);
            if kstep > 1 && it % kstep != 0 {
                let c = q.compress(0, &grad);
                decompress(&c, &mut decoded);
                for (a, &v) in agg.iter_mut().zip(&decoded) {
                    *a += v;
                }
            } else {
                for (a, &v) in agg.iter_mut().zip(&grad) {
                    *a += v;
                }
            }
            // eq. 11: local weights always use the raw local gradient.
            for ((l, &p), &gv) in wl.iter_mut().zip(&prev_global).zip(&grad) {
                *l = p - local_lr * gv;
            }
        }
        // eq. 10 on the server.
        for (w, &a) in w_global.iter_mut().zip(&agg) {
            *w -= eta / n_workers as f32 * a;
        }
        for (avg, &w) in w_avg.iter_mut().zip(&w_global) {
            *avg += w as f64;
        }
    }
    let w_bar: Vec<f32> = w_avg.iter().map(|&v| (v / big_k as f64) as f32).collect();
    RatePoint {
        k_iters: big_k,
        suboptimality: (problem.loss(&w_bar) - opt_loss).max(0.0),
    }
}

/// The full Theorem-2 experiment: suboptimality at several K.
pub fn rate_sweep(ks: &[usize], n_workers: usize, kstep: usize, seed: u64) -> Vec<RatePoint> {
    let problem = LogisticProblem::generate(2_000, 20, seed);
    let (_, opt) = problem.solve(3_000);
    ks.iter()
        .map(|&k| cd_sgd_suboptimality(&problem, n_workers, kstep, k, opt, seed ^ k as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_is_convex_and_solvable() {
        let p = LogisticProblem::generate(500, 10, 0);
        let (w_star, l_star) = p.solve(2_000);
        assert!(l_star < p.loss(&[0.0; 10]), "optimum beats the origin");
        // Gradient at the optimum is near zero.
        let mut g = vec![0.0f32; 10];
        p.grad_range(&w_star, 0, p.len(), &mut g);
        let gnorm: f32 = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!(gnorm < 1e-3, "grad norm at optimum {gnorm}");
    }

    #[test]
    fn suboptimality_decreases_with_k() {
        let pts = rate_sweep(&[50, 400, 3_200], 4, 2, 7);
        assert!(pts[0].suboptimality > pts[2].suboptimality, "{pts:?}");
    }

    #[test]
    fn rate_is_at_least_one_over_sqrt_k() {
        // Theorem 2: subopt ≤ C(1/√K + 1/K). Fit C at the smallest K and
        // verify the bound holds (with slack 3×) at the largest.
        let pts = rate_sweep(&[100, 6_400], 4, 2, 11);
        let bound = |k: usize| 1.0 / (k as f64).sqrt() + 1.0 / k as f64;
        let c = pts[0].suboptimality / bound(pts[0].k_iters);
        assert!(
            pts[1].suboptimality <= 3.0 * c * bound(pts[1].k_iters) + 1e-9,
            "rate violated: {pts:?}, C={c}"
        );
    }

    #[test]
    fn correction_tightens_convergence() {
        // Smaller kstep (more corrections) should not converge worse.
        let p = LogisticProblem::generate(2_000, 20, 3);
        let (_, opt) = p.solve(3_000);
        let tight = cd_sgd_suboptimality(&p, 4, 2, 2_000, opt, 5);
        let loose = cd_sgd_suboptimality(&p, 4, 50, 2_000, opt, 5);
        assert!(
            tight.suboptimality <= loose.suboptimality * 1.5 + 1e-6,
            "k=2 {tight:?} vs k=50 {loose:?}"
        );
    }
}
