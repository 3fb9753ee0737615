//! Determinism suite for the parallel-execution layer: the pipeline must
//! produce **bitwise identical** results for any `EXATHLON_THREADS`,
//! because `par_map` lanes claim independent items one index at a time
//! and the results are put back in input order (see
//! `exathlon_linalg::par`), so neither the lane count nor which lane ran
//! an item can change a value.
//!
//! All thread-count variation happens inside single test functions run
//! sequentially — `EXATHLON_THREADS` is process-global state, so it must
//! never be mutated from concurrently running tests.

use exathlon_ad::ae_ad::AutoencoderDetector;
use exathlon_ad::AnomalyScorer;
use exathlon_core::config::{AdMethod, ExperimentConfig};
use exathlon_core::edrun::{collect_cases, evaluate_ed, EdEvaluation, EdMethodKind, EdRunner};
use exathlon_core::evaluate::{evaluate_detection, DetectionOutcome, ScoredTest};
use exathlon_core::experiment::{run_pipeline, PipelineRun};
use exathlon_core::model::{ae_config_for, TrainingBudget};
use exathlon_core::par::THREADS_ENV;
use exathlon_core::partition::partition;
use exathlon_core::transform::FittedTransform;
use exathlon_core::LearningSetting;
use exathlon_sparksim::dataset::DatasetBuilder;
use exathlon_tsmetrics::presets::AdLevel;

/// The thread counts every invariant is checked across: the sequential
/// pin, a divisor-unfriendly small count, and an oversubscribed one.
const THREAD_COUNTS: [&str; 3] = ["1", "2", "8"];

static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_threads<R>(threads: &str, body: impl FnOnce() -> R) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(THREADS_ENV, threads);
    let result = body();
    std::env::remove_var(THREADS_ENV);
    result
}

/// The methods exercising every parallel path: per-method fan-out in
/// `run_pipeline`, per-trace fan-out in `score_tests`, and the
/// record-parallel detectors (kNN / LOF / iForest) inside them.
const METHODS: [AdMethod; 4] = [AdMethod::Knn, AdMethod::Lof, AdMethod::IForest, AdMethod::Mad];

fn pipeline(threads: &str, methods: &[AdMethod]) -> PipelineRun {
    with_threads(threads, || {
        let ds = DatasetBuilder::tiny(11).build();
        let config = ExperimentConfig { resample_interval: 2, ..ExperimentConfig::default() };
        run_pipeline(&ds, &config, methods, TrainingBudget::Quick)
    })
}

/// `f64` equality up to the bit pattern (distinguishes 0.0 from -0.0 and
/// never equates NaN payloads — stricter than `==`).
fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn assert_scored_identical(reference: &[ScoredTest], other: &[ScoredTest], context: &str) {
    assert_eq!(reference.len(), other.len(), "{context}: test count differs");
    for (a, b) in reference.iter().zip(other) {
        assert_eq!(a.trace_id, b.trace_id, "{context}: trace order differs");
        assert_eq!(a.scores.len(), b.scores.len(), "{context}: score length differs");
        for (i, (x, y)) in a.scores.iter().zip(&b.scores).enumerate() {
            assert_eq!(
                bits(*x),
                bits(*y),
                "{context}: trace {} score {i} differs bitwise: {x} vs {y}",
                a.trace_id
            );
        }
        assert_eq!(a.labels, b.labels, "{context}: labels differ");
    }
}

fn assert_outcomes_identical(
    reference: &[DetectionOutcome],
    other: &[DetectionOutcome],
    context: &str,
) {
    assert_eq!(reference.len(), other.len(), "{context}: rule count differs");
    for (a, b) in reference.iter().zip(other) {
        assert_eq!(a.rule, b.rule, "{context}: rule order differs");
        assert_eq!(bits(a.threshold), bits(b.threshold), "{context}: {} threshold", a.rule);
        assert_eq!(bits(a.f1), bits(b.f1), "{context}: {} f1", a.rule);
        assert_eq!(bits(a.precision), bits(b.precision), "{context}: {} precision", a.rule);
        assert_eq!(bits(a.recall), bits(b.recall), "{context}: {} recall", a.rule);
        assert_eq!(a.per_type_recall, b.per_type_recall, "{context}: {} per-type", a.rule);
    }
}

/// The full pipeline — training, trace scoring, record scoring,
/// separation AUPRC — is bitwise identical across thread counts.
#[test]
fn pipeline_bitwise_identical_across_thread_counts() {
    let reference = pipeline(THREAD_COUNTS[0], &METHODS);
    for threads in &THREAD_COUNTS[1..] {
        let other = pipeline(threads, &METHODS);
        for (method, ref_run) in &reference.methods {
            let other_run = other.method_run(*method);
            let context = format!("{method:?} @ {threads} threads");
            assert_scored_identical(&ref_run.scored, &other_run.scored, &context);
            assert_eq!(
                ref_run.separation, other_run.separation,
                "{context}: separation scores differ"
            );
        }
    }
}

/// The fan-out Table 4 runs: LSTM, AE and BiGAN train and score on
/// whichever lane frees first, and each deep model's inner GEMMs fan out
/// when the budget allows. Their scores are bitwise identical across
/// thread counts.
#[test]
fn paper_methods_bitwise_identical_across_thread_counts() {
    let reference = pipeline(THREAD_COUNTS[0], &AdMethod::PAPER_METHODS);
    for threads in &THREAD_COUNTS[1..] {
        let other = pipeline(threads, &AdMethod::PAPER_METHODS);
        for (method, ref_run) in &reference.methods {
            let context = format!("{method:?} @ {threads} threads");
            assert_scored_identical(&ref_run.scored, &other.method_run(*method).scored, &context);
        }
    }
}

/// The 24-rule thresholding grid — the fourth parallel path — is bitwise
/// identical across thread counts, at every AD level.
#[test]
fn detection_grid_bitwise_identical_across_thread_counts() {
    let reference = pipeline(THREAD_COUNTS[0], &METHODS);
    let ref_run = reference.method_run(AdMethod::Knn);
    let levels = AdLevel::ALL;
    let baseline: Vec<Vec<DetectionOutcome>> = with_threads(THREAD_COUNTS[0], || {
        levels.iter().map(|&l| evaluate_detection(&ref_run.model, &ref_run.scored, l)).collect()
    });
    for threads in &THREAD_COUNTS[1..] {
        let other: Vec<Vec<DetectionOutcome>> = with_threads(threads, || {
            levels.iter().map(|&l| evaluate_detection(&ref_run.model, &ref_run.scored, l)).collect()
        });
        for ((level, a), b) in levels.iter().zip(&baseline).zip(&other) {
            assert_outcomes_identical(a, b, &format!("{level:?} @ {threads} threads"));
        }
    }
}

/// Dataset builds — trace simulation now rides the shared worker pool —
/// are bitwise identical across thread counts AND across the
/// parallel/sequential toggle: the par port of `parallel_simulate` must
/// not change a single bit of any trace or ground-truth entry.
#[test]
fn dataset_build_bitwise_identical_across_thread_counts() {
    let reference = with_threads(THREAD_COUNTS[0], || DatasetBuilder::tiny(7).build());
    let mut variants: Vec<(String, exathlon_sparksim::dataset::Dataset)> = Vec::new();
    for threads in &THREAD_COUNTS[1..] {
        variants.push((
            format!("parallel @ {threads} threads"),
            with_threads(threads, || DatasetBuilder::tiny(7).build()),
        ));
    }
    variants.push((
        "sequential path".to_string(),
        with_threads("4", || DatasetBuilder::tiny(7).with_parallel(false).build()),
    ));
    for (context, other) in &variants {
        assert_eq!(
            reference.undisturbed.len(),
            other.undisturbed.len(),
            "{context}: undisturbed count"
        );
        assert_eq!(reference.disturbed.len(), other.disturbed.len(), "{context}: disturbed count");
        for (a, b) in reference.undisturbed.iter().zip(&other.undisturbed) {
            assert_eq!(a.trace_id, b.trace_id, "{context}: undisturbed trace order");
            assert!(a.base.same_data(&b.base), "{context}: trace {} data differs", a.trace_id);
        }
        for (a, b) in reference.disturbed.iter().zip(&other.disturbed) {
            assert_eq!(a.trace_id, b.trace_id, "{context}: disturbed trace order");
            assert!(a.base.same_data(&b.base), "{context}: trace {} data differs", a.trace_id);
        }
        assert_eq!(reference.ground_truth, other.ground_truth, "{context}: ground truth");
    }
}

/// Scoring the same fitted detector from many threads concurrently (the
/// shape `run_pipeline` creates: outer method fan-out calling inner
/// record-parallel scoring) equals the isolated result — the worker
/// budget degrades gracefully, never changing values.
#[test]
fn nested_parallel_scoring_matches_isolated() {
    let reference = pipeline("1", &METHODS);
    let (_, knn_run) = &reference.methods[0];
    let isolated: Vec<Vec<u64>> =
        knn_run.scored.iter().map(|t| t.scores.iter().map(|s| bits(*s)).collect()).collect();
    let nested = pipeline("8", &METHODS);
    let (_, knn_nested) = &nested.methods[0];
    let nested_bits: Vec<Vec<u64>> =
        knn_nested.scored.iter().map(|t| t.scores.iter().map(|s| bits(*s)).collect()).collect();
    assert_eq!(isolated, nested_bits, "nested parallel scoring changed kNN scores");
}

/// LIME's `evaluate_ed` — cases fanned out over `par`, each scoring its
/// perturbations in one batched AE forward whose GEMM may fan out too —
/// is bitwise identical across thread counts. Six cases from three tiny
/// datasets give more cases than lanes at 4 threads.
#[test]
fn lime_evaluation_bitwise_identical_across_thread_counts() {
    let config = ExperimentConfig::default();
    let mut cases = Vec::new();
    let mut train = Vec::new();
    for seed in [7, 11, 31] {
        let ds = DatasetBuilder::tiny(seed).build();
        let parts = partition(&ds, LearningSetting::ls4(), config.peek_fraction);
        let (transform, t) = FittedTransform::fit(&parts.train, &config);
        let tests: Vec<_> = parts.test.iter().map(|s| transform.apply_test(s)).collect();
        cases.extend(collect_cases(&tests, 10));
        train = t;
    }
    assert!(cases.len() >= 5, "need more cases than lanes, got {}", cases.len());
    let mut ae = AutoencoderDetector::new(ae_config_for(TrainingBudget::Quick, config.seed));
    ae.fit(&train.iter().collect::<Vec<_>>());
    let runner = EdRunner { method: EdMethodKind::Lime, ae_model: Some(&ae), seed: config.seed };

    // Every figure of the block except the wall times.
    let figures = |e: &EdEvaluation| {
        let rows: Vec<_> = e
            .per_type
            .iter()
            .chain([&e.average])
            .map(|r| {
                let stats = [r.conciseness, r.stability, r.concordance].map(bits);
                (r.anomaly_type, r.n_cases, stats, r.precision.map(bits), r.recall.map(bits))
            })
            .collect();
        (rows, e.examples.clone())
    };
    let reference = with_threads("1", || figures(&evaluate_ed(&runner, &cases)));
    for threads in ["2", "4"] {
        let other = with_threads(threads, || figures(&evaluate_ed(&runner, &cases)));
        assert_eq!(reference, other, "LIME evaluation differs @ {threads} threads");
    }
}
