//! Weighted Lasso regression via cyclic coordinate descent.
//!
//! LIME fits a sparse, locally-weighted linear model around the instance
//! being explained; the original uses LARS/Lasso. This is the standard
//! coordinate-descent solver with per-sample weights and soft
//! thresholding, on standardized features.
//!
//! The design matrix is held feature-major (each feature one contiguous
//! row), so the per-feature correlation and residual-update sweeps
//! stream memory through the kernel layer's [`dot`]/[`axpy`] primitives
//! instead of striding by the feature count.

use exathlon_linalg::kernel::{axpy, dot};
use exathlon_linalg::Matrix;

/// Result of a Lasso fit.
#[derive(Debug, Clone)]
pub struct LassoFit {
    /// Intercept in the original feature scale.
    pub intercept: f64,
    /// Coefficients in the original feature scale (sparse: many zeros).
    pub coefficients: Vec<f64>,
    /// Number of coordinate-descent sweeps performed.
    pub iterations: usize,
}

impl LassoFit {
    /// Predict one sample.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.intercept + x.iter().zip(&self.coefficients).map(|(a, b)| a * b).sum::<f64>()
    }

    /// Indices of non-zero coefficients.
    pub fn support(&self) -> Vec<usize> {
        self.coefficients.iter().enumerate().filter(|(_, &c)| c != 0.0).map(|(i, _)| i).collect()
    }
}

/// Fit `y ~ X` with sample weights and an L1 penalty `lambda` (on
/// standardized features). `x` is `n x d`, one sample per row.
///
/// # Panics
/// Panics on shape mismatches or empty input.
pub fn weighted_lasso(
    x: &Matrix,
    y: &[f64],
    weights: &[f64],
    lambda: f64,
    max_iters: usize,
    tol: f64,
) -> LassoFit {
    let (n, d) = x.shape();
    assert!(n > 0, "empty design matrix");
    assert_eq!(y.len(), n, "y length mismatch");
    assert_eq!(weights.len(), n, "weights length mismatch");

    let w_total: f64 = weights.iter().sum();
    assert!(w_total > 0.0, "weights sum to zero");

    // Feature-major design (`d × n`): feature `j` is the contiguous row
    // `xf.row(j)`. Every sweep below walks samples in ascending order,
    // as a row-major loop would.
    let mut xf = x.transpose();

    // Weighted standardization of features and centering of y.
    let mut means = vec![0.0; d];
    let mut stds = vec![0.0; d];
    for j in 0..d {
        let row = xf.row(j);
        let mu = dot(row, weights) / w_total;
        let var: f64 =
            row.iter().zip(weights).map(|(&v, &w)| w * (v - mu) * (v - mu)).sum::<f64>() / w_total;
        means[j] = mu;
        stds[j] = var.sqrt().max(1e-12);
    }
    let y_mean: f64 = y.iter().zip(weights).map(|(&v, &w)| w * v).sum::<f64>() / w_total;

    // Standardize in place (owned copy; LIME problems are small).
    for j in 0..d {
        let (m, s) = (means[j], stds[j]);
        for v in xf.row_mut(j) {
            *v = (*v - m) / s;
        }
    }
    let yc: Vec<f64> = y.iter().map(|&v| v - y_mean).collect();

    let mut beta = vec![0.0; d];
    let mut residual = yc.clone();
    // Per-feature weighted squared norms.
    let norms: Vec<f64> = (0..d)
        .map(|j| xf.row(j).iter().zip(weights).map(|(&v, &w)| w * v * v).sum::<f64>() / w_total)
        .collect();

    let mut iterations = 0;
    for _ in 0..max_iters {
        iterations += 1;
        let mut max_delta = 0.0_f64;
        for j in 0..d {
            if norms[j] <= 1e-14 {
                continue;
            }
            let xj = xf.row(j);
            let bj = beta[j];
            // rho = weighted correlation of feature j with the residual
            // (adding back its own contribution).
            let rho: f64 = xj
                .iter()
                .zip(&residual)
                .zip(weights)
                .map(|((&v, &res), &w)| w * v * (res + v * bj))
                .sum::<f64>()
                / w_total;
            let new_beta = soft_threshold(rho, lambda) / norms[j];
            let delta = new_beta - bj;
            if delta != 0.0 {
                // `res += (−delta)·xj` — IEEE negation is exact, so this
                // matches the old `res -= xj·delta` bit for bit.
                axpy(-delta, xj, &mut residual);
                beta[j] = new_beta;
                max_delta = max_delta.max(delta.abs());
            }
        }
        if max_delta < tol {
            break;
        }
    }

    // De-standardize.
    let coefficients: Vec<f64> = beta.iter().zip(&stds).map(|(b, s)| b / s).collect();
    let intercept = y_mean - coefficients.iter().zip(&means).map(|(c, m)| c * m).sum::<f64>();
    LassoFit { intercept, coefficients, iterations }
}

/// Indices of the `k` largest coefficients by absolute value, descending
/// (ties broken by index for determinism). Zero and non-finite
/// coefficients are excluded: a NaN produced by a degenerate Lasso fit
/// drops out of the explanation instead of poisoning the ranking —
/// `partial_cmp().expect(...)` here used to abort the whole run.
pub fn top_coefficients(coefficients: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..coefficients.len())
        .filter(|&j| coefficients[j] != 0.0 && coefficients[j].is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        coefficients[b].abs().total_cmp(&coefficients[a].abs()).then_with(|| a.cmp(&b))
    });
    order.truncate(k);
    order
}

fn soft_threshold(x: f64, lambda: f64) -> f64 {
    if x > lambda {
        x - lambda
    } else if x < -lambda {
        x + lambda
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(n: usize) -> (Matrix, Vec<f64>) {
        // y = 3 x0 - 2 x1 + 0 * x2 + 1
        let x = Matrix::from_fn(n, 3, |i, j| {
            let t = i as f64;
            match j {
                0 => (t * 0.713).sin(),
                1 => (t * 1.311).cos(),
                _ => (t * 0.237).sin() * (t * 0.119).cos(),
            }
        });
        let y: Vec<f64> = x.iter_rows().map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0).collect();
        (x, y)
    }

    #[test]
    fn recovers_linear_model_with_tiny_lambda() {
        let (x, y) = design(100);
        let w = vec![1.0; 100];
        let fit = weighted_lasso(&x, &y, &w, 1e-6, 500, 1e-10);
        assert!((fit.coefficients[0] - 3.0).abs() < 0.01, "{:?}", fit.coefficients);
        assert!((fit.coefficients[1] + 2.0).abs() < 0.01);
        assert!(fit.coefficients[2].abs() < 0.01);
        assert!((fit.intercept - 1.0).abs() < 0.01);
    }

    #[test]
    fn large_lambda_zeroes_everything() {
        let (x, y) = design(100);
        let w = vec![1.0; 100];
        let fit = weighted_lasso(&x, &y, &w, 100.0, 200, 1e-10);
        assert!(fit.coefficients.iter().all(|&c| c == 0.0));
        assert!(fit.support().is_empty());
    }

    #[test]
    fn moderate_lambda_sparsifies() {
        let (x, y) = design(100);
        let w = vec![1.0; 100];
        let fit = weighted_lasso(&x, &y, &w, 0.5, 500, 1e-10);
        // The irrelevant feature must be dropped; the strong ones survive.
        assert_eq!(fit.coefficients[2], 0.0);
        assert!(fit.coefficients[0] > 1.0);
        assert_eq!(fit.support(), vec![0, 1]);
    }

    #[test]
    fn weights_focus_the_fit() {
        // Two regimes: y = x for the first half, y = -x for the second.
        let x = Matrix::from_fn(100, 1, |i, _| (i as f64 * 0.17).sin());
        let y: Vec<f64> =
            x.iter_rows().enumerate().map(|(i, r)| if i < 50 { r[0] } else { -r[0] }).collect();
        let w_first: Vec<f64> = (0..100).map(|i| if i < 50 { 1.0 } else { 0.001 }).collect();
        let fit = weighted_lasso(&x, &y, &w_first, 1e-4, 500, 1e-10);
        assert!(fit.coefficients[0] > 0.8, "weighted fit should follow the first regime");
    }

    #[test]
    fn predict_matches_training_data() {
        let (x, y) = design(60);
        let w = vec![1.0; 60];
        let fit = weighted_lasso(&x, &y, &w, 1e-6, 500, 1e-10);
        for (r, &target) in x.iter_rows().zip(&y) {
            assert!((fit.predict(r) - target).abs() < 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "empty design")]
    fn empty_input_panics() {
        let _ = weighted_lasso(&Matrix::zeros(0, 3), &[], &[], 0.1, 10, 1e-6);
    }

    #[test]
    fn top_coefficients_ranks_by_magnitude() {
        let c = [0.5, -3.0, 0.0, 2.0, -0.1];
        assert_eq!(top_coefficients(&c, 3), vec![1, 3, 0]);
        assert_eq!(top_coefficients(&c, 10), vec![1, 3, 0, 4]);
        assert_eq!(top_coefficients(&c, 0), Vec::<usize>::new());
    }

    #[test]
    fn top_coefficients_survives_non_finite() {
        // Regression: ranking with the old `partial_cmp(..).expect(
        // "finite coefficients")` comparator panics on this input; the
        // hardened version drops the NaN/inf entries and keeps going.
        let c = [f64::NAN, 1.0, f64::INFINITY, -2.0, f64::NEG_INFINITY];
        assert_eq!(top_coefficients(&c, 5), vec![3, 1]);
        let all_bad = [f64::NAN, f64::NAN];
        assert!(top_coefficients(&all_bad, 2).is_empty());
    }

    #[test]
    fn top_coefficients_breaks_ties_by_index() {
        let c = [1.0, -1.0, 1.0];
        assert_eq!(top_coefficients(&c, 3), vec![0, 1, 2]);
    }
}
