//! LSTM forecaster scoring pinned to recorded bits.
//!
//! `LstmDetector::score_series` forecasts every record from the window
//! before it. The digest below was recorded when each forecast ran its own
//! input projection; projecting the series in shared blocks must leave
//! every score unchanged to the bit. The series lengths cover the edges of
//! the window arithmetic (one window, two windows, `2w`) and one series
//! long enough to span several 64-window projection blocks.

use exathlon_core::config::{AdMethod, ExperimentConfig};
use exathlon_core::model::{build_scorer, TrainingBudget};
use exathlon_core::partition::partition;
use exathlon_core::transform::FittedTransform;
use exathlon_core::LearningSetting;
use exathlon_sparksim::dataset::DatasetBuilder;

/// The quick-budget LSTM window length.
const W: usize = 6;

/// 64-bit FNV-1a over the little-endian bytes of each value.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn lstm_scores_match_recorded_bits() {
    let ds = DatasetBuilder::tiny(11).build();
    let config = ExperimentConfig::default();
    let parts = partition(&ds, LearningSetting::ls4(), config.peek_fraction);
    let (transform, train) = FittedTransform::fit(&parts.train, &config);
    let mut lstm = build_scorer(AdMethod::Lstm, TrainingBudget::Quick, config.seed);
    lstm.fit(&train.iter().collect::<Vec<_>>());

    let test = transform.apply_test(&parts.test[0]).series;
    let lengths = [W, W + 1, 2 * W, test.len()];
    assert!(test.len() >= 256, "need a long series, got {}", test.len());
    let mut all = Vec::new();
    for &n in &lengths {
        let scores = lstm.score_series(&test.slice(0, n));
        assert_eq!(scores.len(), n);
        all.extend(scores.iter().map(|s| s.to_bits()));
    }
    let digest = fnv1a(all);
    assert_eq!(digest, 0xff63_eb37_fcd2_0d99, "LSTM score digest moved: {digest:#018x}");
}
