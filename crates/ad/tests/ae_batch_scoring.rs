//! Pin for the autoencoder's one scoring path: `window_scores` over a
//! `k`-row batch equals `k` single-row `window_score` calls bit for bit.
//!
//! Model-dependent explanation (LIME) scores all its perturbations in one
//! batch while the streaming adapters score one window at a time, so the
//! two must agree exactly. The batch sizes straddle the GEMM's 64-row
//! block and its parallel threshold (two blocks), and the check runs both
//! on the sequential path and on the default worker count.

use exathlon_ad::ae_ad::{AeConfig, AutoencoderDetector};
use exathlon_ad::AnomalyScorer;
use exathlon_linalg::par::THREADS_ENV;
use exathlon_linalg::Matrix;
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Batch sizes around `ROW_BLOCK` = 64 and the two-block parallel
/// threshold, plus LIME's default `n_samples + 1`.
const BATCH_SIZES: [usize; 7] = [1, 63, 64, 65, 127, 128, 301];

/// The quick-budget AE shape on the 19-feature custom set: window 6,
/// so 114 inputs, one hidden layer of 24, code 4.
fn fitted_detector() -> AutoencoderDetector {
    let dims = 19;
    let records: Vec<Vec<f64>> = (0..300)
        .map(|i| (0..dims).map(|j| ((i * (j + 1)) as f64 * 0.07).sin()).collect())
        .collect();
    let train = TimeSeries::from_records(default_names(dims), 0, &records);
    let config =
        AeConfig { window: 6, hidden: vec![24], code: 4, epochs: 3, ..AeConfig::default() };
    let mut det = AutoencoderDetector::new(config);
    det.fit(&[&train]);
    det
}

fn batch(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-3.0..3.0))
}

fn assert_batch_matches_rows(det: &AutoencoderDetector, context: &str) {
    let cols = 6 * 19;
    for (s, &k) in BATCH_SIZES.iter().enumerate() {
        let x = batch(k, cols, s as u64);
        let batched = det.window_scores(&x);
        assert_eq!(batched.len(), k, "{context}: k = {k}");
        for (i, (b, row)) in batched.iter().zip(x.iter_rows()).enumerate() {
            let single = det.window_score(row);
            assert_eq!(
                b.to_bits(),
                single.to_bits(),
                "{context}: k = {k}, row {i}: batched {b} vs single {single}"
            );
        }
    }
}

#[test]
fn batched_scores_equal_single_row_scores_bitwise() {
    let det = fitted_detector();
    std::env::set_var(THREADS_ENV, "1");
    assert_batch_matches_rows(&det, "1 thread");
    std::env::remove_var(THREADS_ENV);
    assert_batch_matches_rows(&det, "default threads");
}
