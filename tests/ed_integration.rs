//! ED integration: the explainers must find the *right* features for the
//! anomalies the simulator injects, end to end through the pipeline.

use exathlon::ad::ae_ad::AutoencoderDetector;
use exathlon::ad::AnomalyScorer;
use exathlon::core::config::ExperimentConfig;
use exathlon::core::edrun::{
    collect_cases, evaluate_ed, EdCase, EdMethodKind, EdRunner, EdTypeRow,
};
use exathlon::core::model::{ae_config_for, TrainingBudget};
use exathlon::core::partition::partition;
use exathlon::core::transform::FittedTransform;
use exathlon::core::LearningSetting;
use exathlon::ed::{Explanation, ExstreamExplainer};
use exathlon::sparksim::dataset::DatasetBuilder;
use exathlon::sparksim::metrics::custom_feature_names;
use exathlon::sparksim::AnomalyType;

fn cases() -> (Vec<exathlon::core::edrun::EdCase>, ExperimentConfig) {
    let ds = DatasetBuilder::tiny(31).build();
    let config = ExperimentConfig::default();
    let parts = partition(&ds, LearningSetting::ls4(), config.peek_fraction);
    let (transform, _) = FittedTransform::fit(&parts.train, &config);
    let tests: Vec<_> = parts.test.iter().map(|s| transform.apply_test(s)).collect();
    (collect_cases(&tests, 10), config)
}

#[test]
fn exstream_explains_bursty_input_with_rate_features() {
    let (cases, _) = cases();
    let case = cases
        .iter()
        .find(|c| c.atype == AnomalyType::BurstyInput)
        .expect("tiny dataset has a T1 case");
    let e = ExstreamExplainer::default().explain(&case.anomaly, &case.reference);
    let names = custom_feature_names();
    let used: Vec<&str> = e.features().iter().map(|&j| names[j].as_str()).collect();
    // A bursty-input anomaly must be explained by input-rate or delay or
    // memory features — the signals the paper's Figure 7(b) shows.
    let plausible = used.iter().any(|n| {
        n.contains("Received")
            || n.contains("Delay")
            || n.contains("delay")
            || n.contains("mem")
            || n.contains("heap")
    });
    assert!(plausible, "implausible T1 explanation features: {used:?}");
}

#[test]
fn exstream_explains_stalled_input_with_throughput_features() {
    let (cases, _) = cases();
    let case = cases
        .iter()
        .find(|c| c.atype == AnomalyType::StalledInput)
        .expect("tiny dataset has a T3 case");
    let e = ExstreamExplainer::default().explain(&case.anomaly, &case.reference);
    let names = custom_feature_names();
    let used: Vec<&str> = e.features().iter().map(|&j| names[j].as_str()).collect();
    let plausible = used.iter().any(|n| {
        n.contains("Received")
            || n.contains("Processed")
            || n.contains("Batch")
            || n.contains("Delay")
            || n.contains("cpuTime")
            || n.contains("runTime")
    });
    assert!(plausible, "implausible T3 explanation features: {used:?}");
}

#[test]
fn model_free_methods_full_evaluation_is_sane() {
    let (cases, config) = cases();
    assert!(!cases.is_empty());
    for method in [EdMethodKind::Exstream, EdMethodKind::MacroBase] {
        let runner = EdRunner { method, ae_model: None, seed: config.seed };
        let eval = evaluate_ed(&runner, &cases);
        assert_eq!(eval.average.n_cases, cases.len());
        assert!(eval.average.conciseness >= 1.0, "{method:?} produced empty explanations");
        assert!(eval.average.stability >= 0.0);
        assert!(eval.average.concordance >= eval.average.stability - 1.0);
        let p = eval.average.precision.expect("logical methods are predictive");
        assert!(p > 0.3, "{method:?} ED1 precision too low: {p}");
        assert!(eval.average.time_secs < 1.0, "{method:?} too slow per explanation");
    }
}

#[test]
fn explanations_generalize_within_the_anomaly() {
    // ED1 accuracy contract: an explanation built from 80% of an anomaly
    // predicts the held-out 20% much better than chance.
    let (cases, config) = cases();
    let runner = EdRunner { method: EdMethodKind::Exstream, ae_model: None, seed: config.seed };
    let eval = evaluate_ed(&runner, &cases);
    let recall = eval.average.recall.expect("predictive");
    assert!(recall > 0.4, "held-out recall too low: {recall}");
}

/// LIME's cases on `tiny(31)` and the quick-budget AE it explains.
fn lime_setup() -> (Vec<EdCase>, AutoencoderDetector, u64) {
    let ds = DatasetBuilder::tiny(31).build();
    let config = ExperimentConfig::default();
    let parts = partition(&ds, LearningSetting::ls4(), config.peek_fraction);
    let (transform, train) = FittedTransform::fit(&parts.train, &config);
    let tests: Vec<_> = parts.test.iter().map(|s| transform.apply_test(s)).collect();
    let mut ae = AutoencoderDetector::new(ae_config_for(TrainingBudget::Quick, config.seed));
    ae.fit(&train.iter().collect::<Vec<_>>());
    (collect_cases(&tests, 10), ae, config.seed)
}

/// LIME's Table 5 block, pinned to the bits recorded when the AE still
/// scored each perturbation as its own one-row forward pass. Batched
/// scoring and the per-case fan-out must leave every figure unchanged.
#[test]
fn lime_evaluation_matches_recorded_bits() {
    let (cases, ae, seed) = lime_setup();
    let runner = EdRunner { method: EdMethodKind::Lime, ae_model: Some(&ae), seed };
    let eval = evaluate_ed(&runner, &cases);

    // (type, cases, conciseness, stability, concordance) per row, then Ave.
    let want: [(Option<AnomalyType>, usize, u64, u64, u64); 3] = [
        (
            Some(AnomalyType::BurstyInput),
            1,
            0x4010000000000000,
            0x400d953030de61cc,
            0x4000000000000000,
        ),
        (
            Some(AnomalyType::StalledInput),
            1,
            0x4000000000000000,
            0x400c9ce9b6396f1f,
            0x3ff0000000000000,
        ),
        (None, 2, 0x4008000000000000, 0x400d190cf38be876, 0x4004ae00d1cfdeb4),
    ];
    let rows: Vec<&EdTypeRow> = eval.per_type.iter().chain([&eval.average]).collect();
    assert_eq!(rows.len(), want.len());
    for (row, &(atype, n, conc, stab, cord)) in rows.iter().zip(&want) {
        assert_eq!(row.anomaly_type, atype);
        assert_eq!(row.n_cases, n, "{atype:?}");
        assert_eq!(row.conciseness.to_bits(), conc, "{atype:?} conciseness {}", row.conciseness);
        assert_eq!(row.stability.to_bits(), stab, "{atype:?} stability {}", row.stability);
        assert_eq!(row.concordance.to_bits(), cord, "{atype:?} concordance {}", row.concordance);
        assert_eq!((row.precision, row.recall), (None, None), "LIME is not predictive");
    }
    let examples = [
        (
            AnomalyType::BurstyInput,
            "v_13_t-3 <= -0.48: -3.327\nv_0_t-5 <= 0.09: -1.973\nv_0_t-4 > -0.55: 1.468\n\
             v_12_t-4 <= -0.13: -1.453\nv_2_t-4 > -0.58: 1.450",
        ),
        (
            AnomalyType::StalledInput,
            "v_6_t-1 <= -8.14: -0.159\nv_5_t-5 <= -7.99: -0.139\nv_5_t-4 <= -7.75: -0.125\n\
             v_5_t-2 <= -6.40: -0.101\nv_5_t-0 <= -5.77: -0.091",
        ),
    ];
    let got: Vec<(AnomalyType, &str)> =
        eval.examples.iter().map(|(t, s)| (*t, s.as_str())).collect();
    assert_eq!(got, examples);

    // The full-anomaly explanations behind the examples, to the last bit
    // of every coefficient: (feature, lag, weight bits).
    let terms: [[(usize, usize, u64); 5]; 2] = [
        [
            (13, 3, 0xc00a9dbde7ae983f),
            (0, 5, 0xbfff91b502ccaa68),
            (0, 4, 0x3ff77b98fa552b5d),
            (12, 4, 0xbff7411fe281f8ec),
            (2, 4, 0x3ff732d0d1c5235a),
        ],
        [
            (6, 1, 0xbfc45c3615825100),
            (5, 5, 0xbfc1bc16d29efb6e),
            (5, 4, 0xbfc006633980401c),
            (5, 2, 0xbfb9ec5723954371),
            (5, 0, 0xbfb7681fe525a686),
        ],
    ];
    for (case, want) in cases.iter().zip(&terms) {
        let Explanation::Importance(got) = runner.explain(&case.anomaly, &case.reference) else {
            panic!("LIME returns importance terms");
        };
        let got: Vec<(usize, usize, u64)> =
            got.iter().map(|t| (t.feature, t.lag, t.weight.to_bits())).collect();
        assert_eq!(got, want, "{:?} on trace {}", case.atype, case.trace_id);
    }
}
