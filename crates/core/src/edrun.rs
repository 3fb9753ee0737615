//! Pipeline phases 6–7: ED execution and evaluation (§5 steps 6–7,
//! Appendix C).
//!
//! For each ground-truth anomaly in a test trace, the ED module is handed
//! the anomalous subsequence `X_{t,w}` and a *reference* dataset: the
//! normal records immediately preceding it. Model-free methods (EXstream,
//! MacroBase) explain the separation between the two; the model-dependent
//! method (LIME) explains the AD model's outlier score on windows of the
//! anomaly.
//!
//! Evaluation per §4.2:
//! * **conciseness** — mean explanation size,
//! * **stability (ED1)** — consistency entropy over explanations of
//!   random 80% subsamples of the same anomaly (for LIME: different
//!   windows of the anomalous period),
//! * **concordance (ED2)** — consistency entropy over the explanations of
//!   different anomalies of the same type,
//! * **accuracy (ED1)** — the subsample explanation replayed as a
//!   point-based predictor on the held-out anomalous records plus the
//!   adjacent normal data (not defined for LIME),
//! * **time** — mean wall-clock seconds per explanation.

use crate::transform::TransformedTest;
use exathlon_ad::ae_ad::AutoencoderDetector;
use exathlon_ed::exstream::ExstreamExplainer;
use exathlon_ed::lime::LimeExplainer;
use exathlon_ed::macrobase::MacroBaseExplainer;
use exathlon_ed::Explanation;
use exathlon_linalg::Matrix;
use exathlon_sparksim::deg::AnomalyType;
use exathlon_tsdata::TimeSeries;
use exathlon_tsmetrics::ed_metrics::{conciseness, concordance, stability};
use exathlon_tsmetrics::point::Confusion;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// Number of subsamples for the ED1 stability/accuracy procedure.
const N_SUBSAMPLES: usize = 5;
/// Subsample fraction (Appendix C: 80%).
const SUBSAMPLE_FRACTION: f64 = 0.8;

/// The three ED methods of the experimental study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdMethodKind {
    /// MacroBase (model-free).
    MacroBase,
    /// EXstream (model-free).
    Exstream,
    /// LIME (model-dependent).
    Lime,
}

impl EdMethodKind {
    /// All three, in the paper's Table 5 column order.
    pub const ALL: [EdMethodKind; 3] =
        [EdMethodKind::MacroBase, EdMethodKind::Exstream, EdMethodKind::Lime];

    /// Display name.
    pub fn label(&self) -> &'static str {
        match self {
            EdMethodKind::MacroBase => "MacroBase",
            EdMethodKind::Exstream => "EXstream",
            EdMethodKind::Lime => "LIME",
        }
    }

    /// Whether the method needs an AD model.
    pub fn is_model_dependent(&self) -> bool {
        matches!(self, EdMethodKind::Lime)
    }
}

/// One anomaly to explain: the anomalous subsequence and its reference.
#[derive(Debug, Clone)]
pub struct EdCase {
    /// The anomaly's type.
    pub atype: AnomalyType,
    /// Trace the anomaly came from.
    pub trace_id: usize,
    /// The anomalous records (transformed space).
    pub anomaly: TimeSeries,
    /// Normal records immediately preceding the anomaly.
    pub reference: TimeSeries,
}

/// Collect ED cases from transformed test traces. Anomalies without
/// enough preceding normal data (fewer than `min_reference` records) are
/// skipped, mirroring the pipeline's reliance on a normal neighborhood.
pub fn collect_cases(tests: &[TransformedTest], min_reference: usize) -> Vec<EdCase> {
    let mut cases = Vec::new();
    for t in tests {
        for (atype, range) in &t.typed_ranges {
            let start = range.start as usize;
            let end = (range.end as usize).min(t.series.len());
            if end <= start + 3 {
                continue; // too short to subsample
            }
            // Reference: up to `3 x` the anomaly length of preceding
            // normal records, at least `min_reference`.
            let want = ((end - start) * 3).max(min_reference);
            let ref_start = start.saturating_sub(want);
            // Clip the reference against any earlier anomaly.
            let ref_start = t
                .typed_ranges
                .iter()
                .filter(|(_, r)| (r.end as usize) <= start)
                .map(|(_, r)| r.end as usize)
                .fold(ref_start, usize::max);
            if start - ref_start < min_reference {
                continue;
            }
            cases.push(EdCase {
                atype: *atype,
                trace_id: t.trace_id,
                anomaly: t.series.slice(start, end),
                reference: t.series.slice(ref_start, start),
            });
        }
    }
    cases
}

/// The per-type Table 5 row.
#[derive(Debug, Clone)]
pub struct EdTypeRow {
    /// Anomaly type (1..6), or `None` for the average row.
    pub anomaly_type: Option<AnomalyType>,
    /// Mean explanation size (ED1 == ED2 here, as in the paper).
    pub conciseness: f64,
    /// Mean ED1 stability entropy.
    pub stability: f64,
    /// ED2 concordance entropy.
    pub concordance: f64,
    /// Mean ED1 accuracy precision (`None` for LIME).
    pub precision: Option<f64>,
    /// Mean ED1 accuracy recall (`None` for LIME).
    pub recall: Option<f64>,
    /// Mean seconds per explanation: the wall time of one explain call
    /// on a case's whole anomaly. LIME cases run in parallel, so each
    /// call is measured while other lanes run.
    pub time_secs: f64,
    /// Number of anomalies behind the row.
    pub n_cases: usize,
}

/// Full Table 5 block for one ED method.
#[derive(Debug, Clone)]
pub struct EdEvaluation {
    /// The method.
    pub method: EdMethodKind,
    /// One row per anomaly type present in the cases.
    pub per_type: Vec<EdTypeRow>,
    /// The "Ave" row.
    pub average: EdTypeRow,
    /// Example explanations (one per type), for the Figure 6 style output.
    pub examples: Vec<(AnomalyType, String)>,
}

/// Everything needed to run one ED method.
pub struct EdRunner<'a> {
    /// Which method to run.
    pub method: EdMethodKind,
    /// The AD model for model-dependent methods (the paper uses AE, its
    /// best AD method).
    pub ae_model: Option<&'a AutoencoderDetector>,
    /// RNG seed for subsampling.
    pub seed: u64,
}

impl EdRunner<'_> {
    /// Produce the explanation of one anomaly (its full data).
    pub fn explain(&self, anomaly: &TimeSeries, reference: &TimeSeries) -> Explanation {
        let _sp = crate::obs::span("ed", self.method.label());
        match self.method {
            EdMethodKind::MacroBase => MacroBaseExplainer::default().explain(anomaly, reference),
            EdMethodKind::Exstream => ExstreamExplainer::default().explain(anomaly, reference),
            EdMethodKind::Lime => self.explain_window(anomaly, 0),
        }
    }

    /// LIME's explanation of the model-sized window of `series` starting
    /// at `start`: all perturbations go through one batched AE forward.
    fn explain_window(&self, series: &TimeSeries, start: usize) -> Explanation {
        let model = self.ae_model.expect("LIME requires the AE model (model-dependent ED)");
        let window = padded_window(series, start, model.window_len());
        LimeExplainer::default().explain(&window, &|batch: &Matrix| model.window_scores(batch))
    }

    /// One LIME case: the timed explanation of the whole anomaly, and for
    /// ED1 the explanations of windows evenly spread across the anomalous
    /// period (Appendix C). Draws no randomness, so cases are independent.
    fn lime_case(&self, case: &EdCase) -> CaseResult {
        let start = Instant::now();
        let explanation = self.explain(&case.anomaly, &case.reference);
        let secs = start.elapsed().as_secs_f64();
        let w = self.ae_model.expect("LIME requires the AE model").window_len();
        let max_start = case.anomaly.len().saturating_sub(w);
        let sub_features = (0..N_SUBSAMPLES)
            .map(|i| {
                let start = if N_SUBSAMPLES > 1 { max_start * i / (N_SUBSAMPLES - 1) } else { 0 };
                self.explain_window(&case.anomaly, start).features()
            })
            .collect();
        CaseResult { atype: case.atype, explanation, sub_features, accuracy: None, secs }
    }

    /// One case of a logical method: the timed explanation of the whole
    /// anomaly, and for ED1 the explanations of random 80% subsamples of
    /// the anomaly and reference, replayed as predictors on the held-out
    /// records. Subsampling draws from the run's one `rng`.
    fn logical_case(&self, case: &EdCase, rng: &mut StdRng) -> CaseResult {
        let start = Instant::now();
        let explanation = self.explain(&case.anomaly, &case.reference);
        let secs = start.elapsed().as_secs_f64();
        let n = case.anomaly.len();
        let subs: Vec<(Explanation, Vec<usize>)> = (0..N_SUBSAMPLES)
            .map(|_| {
                let keep = ((n as f64) * SUBSAMPLE_FRACTION).ceil() as usize;
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(rng);
                let mut sample_idx = idx[..keep.min(n)].to_vec();
                sample_idx.sort_unstable();
                let holdout: Vec<usize> = idx[keep.min(n)..].to_vec();
                let sample = select_records(&case.anomaly, &sample_idx);
                // Reference subsampled at the same rate.
                let rn = case.reference.len();
                let rkeep = ((rn as f64) * SUBSAMPLE_FRACTION).ceil() as usize;
                let mut ridx: Vec<usize> = (0..rn).collect();
                ridx.shuffle(rng);
                let mut rsample_idx = ridx[..rkeep.min(rn)].to_vec();
                rsample_idx.sort_unstable();
                let rsample = select_records(&case.reference, &rsample_idx);
                let e = self.explain(&sample, &rsample);
                (e, holdout)
            })
            .collect();
        let sub_features = subs.iter().map(|(e, _)| e.features()).collect();
        let accuracy = ed1_accuracy(case, &subs);
        CaseResult { atype: case.atype, explanation, sub_features, accuracy, secs }
    }
}

/// ED1 accuracy: the subsample explanations predict the held-out
/// anomalous records (label 1) and the adjacent normal reference records
/// (label 0). `None` when no explanation is predictive.
fn ed1_accuracy(case: &EdCase, subs: &[(Explanation, Vec<usize>)]) -> Option<(f64, f64)> {
    let mut confusion = Confusion::default();
    let mut any = false;
    for (e, holdout) in subs {
        let Some(formula) = e.as_predictive() else { continue };
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for &i in holdout {
            predicted.push(formula.predict(case.anomaly.record(i)));
            actual.push(true);
        }
        // Adjacent normal data: the tail of the reference.
        let ref_take = holdout.len().max(4).min(case.reference.len());
        for i in case.reference.len() - ref_take..case.reference.len() {
            predicted.push(formula.predict(case.reference.record(i)));
            actual.push(false);
        }
        if !predicted.is_empty() {
            let c = Confusion::from_predictions(&predicted, &actual);
            confusion.tp += c.tp;
            confusion.fp += c.fp;
            confusion.fn_ += c.fn_;
            confusion.tn += c.tn;
            any = true;
        }
    }
    any.then(|| (confusion.precision(), confusion.recall()))
}

/// One case's outputs, folded into the Table 5 rows.
struct CaseResult {
    atype: AnomalyType,
    explanation: Explanation,
    sub_features: Vec<Vec<usize>>,
    accuracy: Option<(f64, f64)>,
    secs: f64,
}

/// Slice `[start, start + w)` of a series, padded by repeating the last
/// record when the series is shorter than `w` — LIME must query the AD
/// model with windows of exactly the model's input size.
fn padded_window(ts: &TimeSeries, start: usize, w: usize) -> TimeSeries {
    let end = (start + w).min(ts.len());
    let mut records: Vec<Vec<f64>> = (start..end).map(|i| ts.record(i).to_vec()).collect();
    while records.len() < w {
        let last = records.last().cloned().unwrap_or_else(|| vec![0.0; ts.dims()]);
        records.push(last);
    }
    TimeSeries::from_records(ts.names().to_vec(), ts.start_tick(), &records)
}

fn select_records(ts: &TimeSeries, indices: &[usize]) -> TimeSeries {
    let records: Vec<Vec<f64>> = indices.iter().map(|&i| ts.record(i).to_vec()).collect();
    TimeSeries::from_records(ts.names().to_vec(), ts.start_tick(), &records)
}

/// Run and evaluate one ED method over the collected cases.
pub fn evaluate_ed(runner: &EdRunner<'_>, cases: &[EdCase]) -> EdEvaluation {
    let _stage = crate::obs::stage("ed");
    crate::obs::add_records("ed", cases.iter().map(|c| c.anomaly.len() as u64).sum());
    let results: Vec<CaseResult> = match runner.method {
        // LIME cases share no state, so they fan out; the logical methods
        // thread one subsampling RNG through the cases in order.
        EdMethodKind::Lime => crate::par::par_map(cases, |case| runner.lime_case(case)),
        EdMethodKind::MacroBase | EdMethodKind::Exstream => {
            let mut rng = StdRng::seed_from_u64(runner.seed);
            cases.iter().map(|case| runner.logical_case(case, &mut rng)).collect()
        }
    };

    let row_for = |atype: Option<AnomalyType>| -> EdTypeRow {
        let subset: Vec<&CaseResult> =
            results.iter().filter(|r| atype.is_none() || Some(r.atype) == atype).collect();
        let feature_sets: Vec<Vec<usize>> =
            subset.iter().map(|r| r.explanation.features()).collect();
        let stab = if subset.is_empty() {
            0.0
        } else {
            subset.iter().map(|r| stability(&r.sub_features)).sum::<f64>() / subset.len() as f64
        };
        let accs: Vec<(f64, f64)> = subset.iter().filter_map(|r| r.accuracy).collect();
        let (precision, recall) = if accs.is_empty() {
            (None, None)
        } else {
            let p = accs.iter().map(|a| a.0).sum::<f64>() / accs.len() as f64;
            let r = accs.iter().map(|a| a.1).sum::<f64>() / accs.len() as f64;
            (Some(p), Some(r))
        };
        EdTypeRow {
            anomaly_type: atype,
            conciseness: conciseness(&feature_sets),
            stability: stab,
            concordance: concordance(&feature_sets),
            precision,
            recall,
            time_secs: if subset.is_empty() {
                0.0
            } else {
                subset.iter().map(|r| r.secs).sum::<f64>() / subset.len() as f64
            },
            n_cases: subset.len(),
        }
    };

    let mut per_type = Vec::new();
    let mut examples = Vec::new();
    for t in AnomalyType::ALL {
        let row = row_for(Some(t));
        if row.n_cases > 0 {
            per_type.push(row);
            if let Some(r) = results.iter().find(|r| r.atype == t) {
                examples.push((t, format!("{}", r.explanation)));
            }
        }
    }
    EdEvaluation { method: runner.method, per_type, average: row_for(None), examples }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exathlon_tsmetrics::Range;

    /// A synthetic transformed test: feature 0 jumps during the anomaly.
    fn synthetic_test() -> TransformedTest {
        let n = 120;
        let a = Range::new(80, 110);
        let records: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let anomalous = (a.start as usize..a.end as usize).contains(&i);
                let base = (i as f64 * 0.37).sin() * 0.1;
                vec![if anomalous { 5.0 + base } else { base }, (i as f64 * 0.21).cos() * 0.1]
            })
            .collect();
        let series =
            TimeSeries::from_records(exathlon_tsdata::series::default_names(2), 0, &records);
        let labels = (0..n).map(|i| (80..110).contains(&i)).collect();
        TransformedTest {
            trace_id: 0,
            app_id: 0,
            dominant_type: Some(AnomalyType::BurstyInput),
            series,
            labels,
            typed_ranges: vec![(AnomalyType::BurstyInput, a)],
        }
    }

    #[test]
    fn collect_cases_extracts_anomaly_and_reference() {
        let tests = vec![synthetic_test()];
        let cases = collect_cases(&tests, 10);
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.anomaly.len(), 30);
        assert!(c.reference.len() >= 10);
        assert_eq!(c.atype, AnomalyType::BurstyInput);
        // Reference records are normal: feature 0 small.
        assert!(c.reference.records().all(|r| r[0].abs() < 1.0));
    }

    #[test]
    fn exstream_evaluation_finds_the_jump_feature() {
        let tests = vec![synthetic_test()];
        let cases = collect_cases(&tests, 10);
        let runner = EdRunner { method: EdMethodKind::Exstream, ae_model: None, seed: 3 };
        let eval = evaluate_ed(&runner, &cases);
        assert_eq!(eval.average.n_cases, 1);
        assert!(eval.average.conciseness >= 1.0);
        // The separating feature is 0; a concise stable explanation uses it.
        assert!(!eval.examples.is_empty());
        let acc_p = eval.average.precision.expect("EXstream is predictive");
        assert!(acc_p > 0.5, "precision {acc_p}");
    }

    #[test]
    fn macrobase_runs_and_reports_accuracy() {
        let tests = vec![synthetic_test()];
        let cases = collect_cases(&tests, 10);
        let runner = EdRunner { method: EdMethodKind::MacroBase, ae_model: None, seed: 3 };
        let eval = evaluate_ed(&runner, &cases);
        assert!(eval.average.precision.is_some());
        assert!(eval.average.time_secs >= 0.0);
    }

    #[test]
    fn stability_within_good_bound_for_clean_case() {
        let tests = vec![synthetic_test()];
        let cases = collect_cases(&tests, 10);
        let runner = EdRunner { method: EdMethodKind::Exstream, ae_model: None, seed: 3 };
        let eval = evaluate_ed(&runner, &cases);
        assert!(
            eval.average.stability
                <= exathlon_tsmetrics::ed_metrics::good_consistency_bound() + 0.5,
            "stability {} too high for a clean single-feature case",
            eval.average.stability
        );
    }

    #[test]
    fn too_short_anomalies_skipped() {
        let mut t = synthetic_test();
        t.typed_ranges = vec![(AnomalyType::BurstyInput, Range::new(80, 82))];
        let cases = collect_cases(&[t], 10);
        assert!(cases.is_empty());
    }

    #[test]
    #[should_panic(expected = "LIME requires the AE model")]
    fn lime_without_model_panics() {
        let tests = vec![synthetic_test()];
        let cases = collect_cases(&tests, 10);
        let runner = EdRunner { method: EdMethodKind::Lime, ae_model: None, seed: 3 };
        let _ = evaluate_ed(&runner, &cases);
    }
}
