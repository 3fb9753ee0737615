//! Explanation discovery: detect anomalies, then ask EXstream, MacroBase,
//! and LIME *why* each detected period is anomalous, printing the
//! explanations with human-readable feature names.
//!
//! ```sh
//! cargo run --release --example explain_anomalies
//! ```

use exathlon::ad::ae_ad::{AeConfig, AutoencoderDetector};
use exathlon::ad::AnomalyScorer;
use exathlon::core::config::ExperimentConfig;
use exathlon::core::edrun::{collect_cases, EdMethodKind, EdRunner};
use exathlon::core::partition::partition;
use exathlon::core::transform::FittedTransform;
use exathlon::core::LearningSetting;
use exathlon::ed::explanation::Explanation;
use exathlon::ed::{ExstreamExplainer, MacroBaseExplainer};
use exathlon::sparksim::dataset::DatasetBuilder;
use exathlon::sparksim::metrics::custom_feature_names;

/// Replace `v_<i>` feature indices with their Appendix D.1 names.
fn with_names(text: &str) -> String {
    let names = custom_feature_names();
    let mut out = text.to_string();
    // Substitute longest indices first so v_12 is not clobbered by v_1.
    for j in (0..names.len()).rev() {
        out = out.replace(&format!("v_{j}"), &names[j]);
    }
    out
}

fn main() {
    let dataset = DatasetBuilder::tiny(9).build();
    let config = ExperimentConfig::default();
    let parts = partition(&dataset, LearningSetting::ls4(), config.peek_fraction);
    let (transform, train) = FittedTransform::fit(&parts.train, &config);
    let tests: Vec<_> = parts.test.iter().map(|s| transform.apply_test(s)).collect();

    // The AD model LIME will interrogate.
    let mut ae = AutoencoderDetector::new(AeConfig {
        window: 6,
        hidden: vec![24],
        code: 4,
        epochs: 15,
        ..AeConfig::default()
    });
    ae.fit(&train.iter().collect::<Vec<_>>());

    let lime_runner =
        EdRunner { method: EdMethodKind::Lime, ae_model: Some(&ae), seed: config.seed };

    let cases = collect_cases(&tests, 10);
    println!("explaining {} anomalies\n", cases.len());

    for case in &cases {
        println!(
            "=== {} anomaly on trace {} ({} anomalous records) ===",
            case.atype.label(),
            case.trace_id,
            case.anomaly.len()
        );

        let ex = ExstreamExplainer::default().explain(&case.anomaly, &case.reference);
        println!("EXstream : {}", with_names(&format!("{ex}")));

        let mb = MacroBaseExplainer::default().explain(&case.anomaly, &case.reference);
        println!("MacroBase: {}", with_names(&format!("{mb}")));

        // LIME explains the AE's score on the model-sized window at the
        // anomaly's start, padded once by repeating the last record when
        // the anomaly is shorter; all perturbations score in one batch.
        let lime = lime_runner.explain(&case.anomaly, &case.reference);
        match &lime {
            Explanation::Importance(terms) if !terms.is_empty() => {
                println!("LIME     :");
                for t in terms {
                    println!("  {}", with_names(&format!("{}: {:+.3}", t.condition, t.weight)));
                }
            }
            _ => println!("LIME     : (no salient features)"),
        }
        println!();
    }
}
