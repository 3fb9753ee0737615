//! LIME in its recurrent-tabular form (Appendix D.3).
//!
//! LIME explains why the AD model assigns a high outlier score to an
//! anomalous window: it samples perturbations of the window, queries the
//! model on each, weighs samples by proximity, fits a weighted
//! [Lasso](crate::lasso), and reports the `k = 5` cells — `(feature,
//! lag)` pairs inside the window — with the largest absolute
//! coefficients. Model-dependent and *not* usable for prediction ("the
//! coefficients ... cannot be applied for prediction", §6.3).

use crate::explanation::{Explanation, ImportanceTerm};
use crate::lasso::weighted_lasso;
use exathlon_linalg::Matrix;
use exathlon_tsdata::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the LIME explainer.
#[derive(Debug, Clone)]
pub struct LimeConfig {
    /// Number of perturbation samples.
    pub n_samples: usize,
    /// Number of features to report (the paper sets `k = 5`).
    pub k: usize,
    /// Perturbation noise scale relative to each cell's standard deviation
    /// across the window (floored for constant cells).
    pub noise_scale: f64,
    /// Proximity-kernel width (on normalized distances).
    pub kernel_width: f64,
    /// Lasso penalty.
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LimeConfig {
    fn default() -> Self {
        Self { n_samples: 300, k: 5, noise_scale: 1.0, kernel_width: 0.75, lambda: 0.01, seed: 41 }
    }
}

/// The LIME explainer (model-dependent).
#[derive(Debug, Clone, Default)]
pub struct LimeExplainer {
    config: LimeConfig,
}

impl LimeExplainer {
    /// Create with the given configuration.
    pub fn new(config: LimeConfig) -> Self {
        Self { config }
    }

    /// Explain the model's outlier score on `window`. `score_batch` maps
    /// a matrix of flattened windows (one per row, record-major,
    /// `window.len() * window.dims()` values) to the model's outlier
    /// score of each row, in row order. It is called once per
    /// explanation, on the instance and all its perturbations together.
    ///
    /// # Panics
    /// Panics if the window is empty or `score_batch` returns the wrong
    /// number of scores.
    pub fn explain(
        &self,
        window: &TimeSeries,
        score_batch: &dyn Fn(&Matrix) -> Vec<f64>,
    ) -> Explanation {
        let _sp = exathlon_linalg::obs::span("ed", "LIME.explain");
        assert!(!window.is_empty(), "empty LIME window");
        let cfg = &self.config;
        let t_len = window.len();
        let m = window.dims();
        let d = t_len * m;

        // Flatten the window; impute NaN cells with 0 for perturbation.
        let mut x0 = Vec::with_capacity(d);
        for rec in window.records() {
            x0.extend(rec.iter().map(|v| if v.is_nan() { 0.0 } else { *v }));
        }

        // Per-cell noise scales: std of the feature across the window.
        let mut scales = vec![0.0; d];
        for j in 0..m {
            let col = window.feature_column(j);
            let std = exathlon_linalg::stats::std_dev(&col).max(0.05);
            for t in 0..t_len {
                scales[t * m + j] = std * cfg.noise_scale;
            }
        }

        // Perturbation matrix: row 0 is the instance, rows 1.. its
        // perturbations, drawn row by row.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut samples = Matrix::zeros(cfg.n_samples + 1, d);
        samples.row_mut(0).copy_from_slice(&x0);
        for i in 1..samples.rows() {
            for ((s, &v), &sc) in samples.row_mut(i).iter_mut().zip(&x0).zip(&scales) {
                *s = v + rng.gen_range(-1.5..1.5) * sc;
            }
        }

        // Model responses and proximity-kernel weights.
        let responses = score_batch(&samples);
        assert_eq!(responses.len(), samples.rows(), "one score per perturbation");
        let weights: Vec<f64> = samples
            .iter_rows()
            .map(|s| {
                let d2: f64 = s
                    .iter()
                    .zip(&x0)
                    .zip(&scales)
                    .map(|((a, b), &sc)| {
                        let z = (a - b) / sc.max(1e-9);
                        z * z
                    })
                    .sum::<f64>()
                    / d as f64;
                (-d2 / (cfg.kernel_width * cfg.kernel_width)).exp()
            })
            .collect();

        let fit = weighted_lasso(&samples, &responses, &weights, cfg.lambda, 300, 1e-8);

        // Top-k cells by |coefficient|; non-finite coefficients from a
        // degenerate fit are dropped rather than aborting the run.
        let order = crate::lasso::top_coefficients(&fit.coefficients, cfg.k);

        let terms: Vec<ImportanceTerm> = order
            .iter()
            .map(|&cell| {
                let t = cell / m;
                let feature = cell % m;
                let lag = t_len - 1 - t;
                let value = x0[cell];
                let weight = fit.coefficients[cell];
                // Human-readable condition in the LIME output style: the
                // direction that increases the outlier score.
                let condition = if weight >= 0.0 {
                    format!("v_{feature}_t-{lag} > {value:.2}")
                } else {
                    format!("v_{feature}_t-{lag} <= {value:.2}")
                };
                ImportanceTerm { feature, lag, weight, condition }
            })
            .collect();
        Explanation::Importance(terms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsdata::series::default_names;

    fn window(records: &[Vec<f64>]) -> TimeSeries {
        TimeSeries::from_records(default_names(records[0].len()), 0, records)
    }

    fn quick() -> LimeExplainer {
        LimeExplainer::new(LimeConfig { n_samples: 200, ..LimeConfig::default() })
    }

    /// A batch scorer applying `f` to each row.
    fn per_row(f: impl Fn(&[f64]) -> f64) -> impl Fn(&Matrix) -> Vec<f64> {
        move |x: &Matrix| x.iter_rows().map(&f).collect()
    }

    #[test]
    fn scores_instance_and_perturbations_in_one_batch() {
        let w = window(&[vec![1.0, f64::NAN], vec![2.0, 4.0]]);
        let calls = std::cell::Cell::new(0);
        let score = |x: &Matrix| {
            calls.set(calls.get() + 1);
            assert_eq!(x.shape(), (201, 4));
            assert_eq!(x.row(0), &[1.0, 0.0, 2.0, 4.0], "row 0 is the NaN-imputed instance");
            x.iter_rows().map(|r| r[0]).collect()
        };
        let _ = quick().explain(&w, &score);
        assert_eq!(calls.get(), 1);
    }

    #[test]
    #[should_panic(expected = "one score per perturbation")]
    fn short_score_batch_panics() {
        let w = window(&[vec![1.0, 2.0]]);
        let _ = quick().explain(&w, &|_: &Matrix| vec![0.0]);
    }

    #[test]
    fn identifies_the_influential_feature() {
        // Model score depends only on feature 0 of the last record.
        let w = window(&[vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]]);
        let m = w.dims();
        let score = move |flat: &[f64]| flat[2 * m] * 10.0; // feature 0 at t=2
        let e = quick().explain(&w, &per_row(score));
        let feats = e.features();
        assert!(feats.contains(&0), "feature 0 must be found: {e}");
        if let Explanation::Importance(terms) = &e {
            assert_eq!(terms[0].feature, 0);
            assert_eq!(terms[0].lag, 0, "influential cell is the last record");
            assert!(terms[0].weight > 0.0);
        }
    }

    #[test]
    fn reports_at_most_k_terms() {
        let w = window(&[vec![1.0; 8], vec![2.0; 8], vec![3.0; 8]]);
        let score = |flat: &[f64]| flat.iter().sum::<f64>();
        let e = quick().explain(&w, &per_row(score));
        if let Explanation::Importance(terms) = &e {
            assert!(terms.len() <= 5);
        } else {
            panic!("LIME must return importance terms");
        }
    }

    #[test]
    fn not_predictive() {
        let w = window(&[vec![1.0]]);
        let e = quick().explain(&w, &per_row(|f| f[0]));
        assert!(e.as_predictive().is_none());
    }

    #[test]
    fn constant_model_yields_no_features() {
        let w = window(&[vec![1.0, 2.0], vec![1.5, 2.5]]);
        let e = quick().explain(&w, &per_row(|_| 7.0));
        assert_eq!(e.size(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let w = window(&[vec![1.0, 2.0], vec![1.5, 2.5]]);
        let score = |flat: &[f64]| flat[0] * 2.0 - flat[3];
        let a = quick().explain(&w, &per_row(score));
        let b = quick().explain(&w, &per_row(score));
        assert_eq!(a, b);
    }

    #[test]
    fn negative_influence_reported_with_sign() {
        let w = window(&[vec![1.0, 5.0]]);
        let score = |flat: &[f64]| -3.0 * flat[1];
        let e = quick().explain(&w, &per_row(score));
        if let Explanation::Importance(terms) = &e {
            let t = terms.iter().find(|t| t.feature == 1).expect("feature 1 found");
            assert!(t.weight < 0.0);
            assert!(t.condition.contains("<="));
        }
    }

    #[test]
    #[should_panic(expected = "empty LIME window")]
    fn empty_window_panics() {
        let w = TimeSeries::empty(default_names(2));
        let _ = quick().explain(&w, &per_row(|_| 0.0));
    }
}
