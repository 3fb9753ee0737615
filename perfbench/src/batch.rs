//! The two batch workloads: the Table 4 run (`ad_pipeline`) and the
//! Table 5 run (`ed_explain`).
//!
//! The untraced run times whole table runs through the library's own
//! entry points. The traced run replays `run_pipeline`'s calls itself, in
//! the same order and on the same `par` fan-out, with a span around each
//! call, and must reproduce the untraced run's output digest bit for bit.

use crate::stats::{self, Digest};
use crate::trace::{self, Tracer};
use crate::{Args, Outcome};
use exathlon_ad::ae_ad::AutoencoderDetector;
use exathlon_ad::AnomalyScorer;
use exathlon_core::config::{AdMethod, ExperimentConfig};
use exathlon_core::edrun::{
    collect_cases, evaluate_ed, EdCase, EdEvaluation, EdMethodKind, EdRunner,
};
use exathlon_core::evaluate::{
    best_and_median, evaluate_detection, score_tests, separation, DetectionOutcome,
};
use exathlon_core::experiment::{method_seed, run_pipeline, MethodRun, PipelineRun};
use exathlon_core::model::{ae_config_for, train_model, TrainingBudget};
use exathlon_core::partition::partition;
use exathlon_core::transform::{FittedTransform, TransformedTest};
use exathlon_ed::lime::LimeConfig;
use exathlon_sparksim::dataset::{Dataset, DatasetBuilder};
use exathlon_tsdata::TimeSeries;
use exathlon_tsmetrics::presets::AdLevel;
use std::time::Instant;

/// Dataset builds timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 40;
/// Operations timed alone for `light_p50_us`, and per caller with one
/// caller per core for `heavy_p50_us`, after each table run.
const PROBE_OPS: (usize, usize) = (2, 2);
/// Cases one `ed_explain` probe operation explains. Medians over small
/// operations (one LIME call, or 100 records scored) read 25–49% apart
/// between runs whose table runs held within 7%: on a shared 2-vCPU
/// machine the speed switched by up to 40% from one second to the next,
/// and a short operation lands wholly in one state. Operations of a few
/// hundred milliseconds average over the switches.
const CASES_PER_OP: usize = 32;
/// Minimum normal records before an anomaly for it to become an ED case.
const MIN_REFERENCE: usize = 12;
/// ED1 windows LIME explains per case besides the case itself
/// (`edrun`'s subsample count).
const LIME_SUBSAMPLES: usize = 5;
/// Golden output digests, one `workload seed digest` line each, recorded
/// at the commit that introduced the benchmark for input seeds
/// `0..RECORDED_SEEDS`.
const GOLDEN: &str = include_str!("../golden.txt");
/// Input seeds with a golden digest. A run's `--seed` picks one of them
/// (`seed % RECORDED_SEEDS`), so every run's output is checked against the
/// recorded one, not only against itself.
const RECORDED_SEEDS: u64 = 16;

/// Which of the two batch workloads.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// Table 4: LSTM, AE and BiGAN at the standard budget, AD1–AD4.
    Detection,
    /// Table 5: EXstream, MacroBase and LIME at the quick scale.
    Explanation,
}

impl Batch {
    fn name(self) -> &'static str {
        match self {
            Batch::Detection => "ad_pipeline",
            Batch::Explanation => "ed_explain",
        }
    }

    fn builder(self, seed: u64) -> DatasetBuilder {
        match self {
            Batch::Detection => DatasetBuilder::standard(seed),
            Batch::Explanation => DatasetBuilder::standard(seed).with_durations(400, 900),
        }
    }

    fn budget(self) -> TrainingBudget {
        match self {
            Batch::Detection => TrainingBudget::Standard,
            Batch::Explanation => TrainingBudget::Quick,
        }
    }

    fn methods(self) -> &'static [AdMethod] {
        match self {
            Batch::Detection => &AdMethod::PAPER_METHODS,
            Batch::Explanation => &[AdMethod::Ae],
        }
    }
}

/// LS4, FS_custom, α = 1/5 (the table binaries' configuration).
fn config(seed: u64) -> ExperimentConfig {
    ExperimentConfig { resample_interval: 5, seed, ..ExperimentConfig::default() }
}

fn fold_outcome(d: &mut Digest, o: &DetectionOutcome) {
    d.bytes(o.rule.as_bytes());
    for x in [o.threshold, o.f1, o.precision, o.recall] {
        d.f64(x);
    }
    for r in o.per_type_recall {
        d.f64(r.unwrap_or(-1.0));
    }
}

fn fold_scores(d: &mut Digest, run: &MethodRun) {
    for s in &run.scored {
        d.f64s(&s.scores);
    }
    let sep = &run.separation;
    for level in [&sep.trace, &sep.app, &sep.global] {
        d.f64(level.average);
    }
}

fn fold_ed(d: &mut Digest, eval: &EdEvaluation) {
    d.bytes(eval.method.label().as_bytes());
    // Every table value except the running time.
    for row in eval.per_type.iter().chain([&eval.average]) {
        for x in [row.conciseness, row.stability, row.concordance] {
            d.f64(x);
        }
        d.f64(row.precision.unwrap_or(-1.0));
        d.f64(row.recall.unwrap_or(-1.0));
        d.u64(row.n_cases as u64);
    }
    for (_, text) in &eval.examples {
        d.bytes(text.as_bytes());
    }
}

/// The Table 4 values: best and median outcome per method and AD level.
fn detection_table(run: &PipelineRun, d: &mut Digest) {
    for level in AdLevel::ALL {
        for &method in &AdMethod::PAPER_METHODS {
            let (best, median) = run.detection_best_median(method, level);
            fold_outcome(d, &best);
            fold_outcome(d, &median);
        }
    }
}

/// One untraced table run; returns its output digest.
fn table_run(
    batch: Batch,
    ds: &Dataset,
    seed: u64,
) -> (u64, PipelineRun, Option<AutoencoderDetector>) {
    let config = config(seed);
    let mut d = Digest::default();
    let run = run_pipeline(ds, &config, batch.methods(), batch.budget());
    for (_, m) in &run.methods {
        fold_scores(&mut d, m);
    }
    match batch {
        Batch::Detection => {
            detection_table(&run, &mut d);
            (d.value(), run, None)
        }
        Batch::Explanation => {
            let ae = refit_ae(&run, seed);
            let cases = collect_cases(&run.tests, MIN_REFERENCE);
            for method in EdMethodKind::ALL {
                fold_ed(&mut d, &evaluate_ed(&runner(method, &ae, seed), &cases));
            }
            (d.value(), run, Some(ae))
        }
    }
}

/// The AE re-fit LIME queries (the Table 5 binary's procedure).
fn refit_ae(run: &PipelineRun, seed: u64) -> AutoencoderDetector {
    let mut ae = AutoencoderDetector::new(ae_config_for(TrainingBudget::Quick, seed));
    let train_refs: Vec<&TimeSeries> = run.train.iter().collect();
    ae.fit(&train_refs);
    ae
}

fn runner(method: EdMethodKind, ae: &AutoencoderDetector, seed: u64) -> EdRunner<'_> {
    EdRunner { method, ae_model: method.is_model_dependent().then_some(ae), seed }
}

/// What the ED replay leaves behind for the per-call LIME pass.
type EdState = Option<(AutoencoderDetector, Vec<EdCase>)>;

/// The traced replay of [`table_run`]: the same calls in the same order on
/// the same fan-out, each inside a span. Returns the digest, the root
/// span's id, and for `ed_explain` the refit AE and the cases.
fn traced_table_run(batch: Batch, ds: &Dataset, seed: u64, tr: &Tracer) -> (u64, usize, EdState) {
    let config = config(seed);
    let mut d = Digest::default();
    let mut root_id = 0;
    let ed = tr.span("run", None, |root| {
        root_id = root;
        let parts = tr
            .span("partition", Some(root), |_| partition(ds, config.setting, config.peek_fraction));
        let (transform, train) =
            tr.span("transform.fit", Some(root), |_| FittedTransform::fit(&parts.train, &config));
        let tests: Vec<TransformedTest> = tr.span("transform.apply", Some(root), |_| {
            parts.test.iter().map(|s| transform.apply_test(s)).collect()
        });
        let methods = tr.span("par.methods", Some(root), |fan| {
            exathlon_core::par::par_map(batch.methods(), |&method| {
                tr.span(format!("method.{}", method.label()), Some(fan), |mid| {
                    let model =
                        tr.span(format!("model.train.{}", method.label()), Some(mid), |_| {
                            train_model(
                                method,
                                &train,
                                config.threshold_holdout,
                                batch.budget(),
                                method_seed(config.seed, method),
                            )
                        });
                    let scored =
                        tr.span("evaluate.score", Some(mid), |_| score_tests(&model, &tests));
                    let separation =
                        tr.span("evaluate.separation", Some(mid), |_| separation(&scored));
                    (method, MethodRun { model, scored, separation })
                })
            })
        });
        let run = PipelineRun { transform, train, tests, methods };
        for (_, m) in &run.methods {
            fold_scores(&mut d, m);
        }
        match batch {
            Batch::Detection => {
                tr.span("evaluate.detection", Some(root), |_| {
                    for level in AdLevel::ALL {
                        for &method in &AdMethod::PAPER_METHODS {
                            let m = run.method_run(method);
                            let outcomes = evaluate_detection(&m.model, &m.scored, level);
                            let (best, median) = best_and_median(&outcomes);
                            fold_outcome(&mut d, &best);
                            fold_outcome(&mut d, &median);
                        }
                    }
                });
                None
            }
            Batch::Explanation => {
                let ae = tr.span("model.train.AE.refit", Some(root), |_| refit_ae(&run, seed));
                let cases = tr.span("edrun.collect_cases", Some(root), |_| {
                    collect_cases(&run.tests, MIN_REFERENCE)
                });
                for method in EdMethodKind::ALL {
                    let eval =
                        tr.span(format!("edrun.method.{}", method.label()), Some(root), |_| {
                            evaluate_ed(&runner(method, &ae, seed), &cases)
                        });
                    fold_ed(&mut d, &eval);
                }
                Some((ae, cases))
            }
        }
    });
    (d.value(), root_id, ed)
}

/// The LIME calls `evaluate_ed` makes, issued one at a time through
/// `EdRunner::explain`: per case, the whole anomaly and its ED1 windows
/// spread evenly across the anomalous period. Returns per-call latencies.
fn lime_calls(cases: &[EdCase], ae: &AutoencoderDetector, seed: u64, tr: &Tracer) -> Vec<u64> {
    let lime = runner(EdMethodKind::Lime, ae, seed);
    let w = ae.window_len();
    let mut latencies = Vec::with_capacity(cases.len() * (LIME_SUBSAMPLES + 1));
    tr.span("edrun.lime_calls", None, |parent| {
        for case in cases {
            let n = case.anomaly.len();
            let max_start = n.saturating_sub(w);
            let starts = (0..LIME_SUBSAMPLES).map(|i| max_start * i / (LIME_SUBSAMPLES - 1));
            for (call, start) in std::iter::once(None).chain(starts.map(Some)).enumerate() {
                let window = start.map(|s| case.anomaly.slice(s, n));
                let anomaly = window.as_ref().unwrap_or(&case.anomaly);
                let t0 = tr.now_ns();
                std::hint::black_box(lime.explain(anomaly, &case.reference));
                let t1 = tr.now_ns();
                tr.record("edrun.explain.LIME", t0, t1, Some(parent), call as u64);
                latencies.push(t1 - t0);
            }
        }
    });
    latencies
}

/// One user-facing operation of the workload: inference by all three
/// trained models over every test trace (the paper's P2) or LIME
/// explanations of `CASES_PER_OP` consecutive cases (its P3), wrapping
/// around the case list.
fn probe_op(
    batch: Batch,
    run: &PipelineRun,
    ae: Option<&AutoencoderDetector>,
    cases: &[EdCase],
    seed: u64,
    i: usize,
) {
    match batch {
        Batch::Detection => {
            for test in &run.tests {
                for (_, m) in &run.methods {
                    std::hint::black_box(m.model.scorer.score_series(&test.series));
                }
            }
        }
        Batch::Explanation => {
            let lime = runner(EdMethodKind::Lime, ae.expect("AE refit for LIME"), seed);
            for j in 0..CASES_PER_OP {
                let case = &cases[(i * CASES_PER_OP + j) % cases.len()];
                std::hint::black_box(lime.explain(&case.anomaly, &case.reference));
            }
        }
    }
}

/// Latencies of the workload's operation issued alone, then with one
/// caller per core.
fn probe(
    batch: Batch,
    run: &PipelineRun,
    ae: Option<&AutoencoderDetector>,
    seed: u64,
) -> (Vec<u64>, Vec<u64>) {
    let cases = match batch {
        Batch::Detection => Vec::new(),
        Batch::Explanation => collect_cases(&run.tests, MIN_REFERENCE),
    };
    let timed = |i: usize| {
        let t0 = Instant::now();
        probe_op(batch, run, ae, &cases, seed, i);
        t0.elapsed().as_nanos() as u64
    };
    let (light_ops, heavy_ops) = PROBE_OPS;
    let light: Vec<u64> = (0..light_ops).map(timed).collect();
    let callers = exathlon_core::par::max_threads();
    let heavy: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|c| {
                s.spawn(move || (0..heavy_ops).map(|i| timed(c + i * callers)).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("probe caller panicked")).collect()
    });
    (light, heavy)
}

/// The golden digest recorded for this workload and seed, if any.
fn golden(workload: &str, seed: u64) -> Option<u64> {
    GOLDEN.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed)
            .then(|| u64::from_str_radix(f.next()?, 16).ok())
            .flatten()
    })
}

/// Build the dataset `SETUP_REPS` times; returns it and the build times.
fn setup(batch: Batch, seed: u64) -> (Dataset, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut ds = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        ds = Some(batch.builder(seed).build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (ds.expect("at least one setup"), times)
}

/// Check a run's digest against the golden record; a mismatch, or a seed
/// without a record, is one failed operation.
fn check_digest(out: &mut Outcome, workload: &str, seed: u64, digest: u64) {
    out.attempted += 1;
    match golden(workload, seed) {
        Some(want) if want == digest => {}
        Some(want) => out.fail(format!(
            "{workload} input seed {seed}: output digest {digest:016x}, expected {want:016x}"
        )),
        None => out.fail(format!("{workload} input seed {seed}: no golden digest recorded")),
    }
}

/// Run a batch workload.
pub fn run(batch: Batch, args: &Args, out: &mut Outcome) {
    let name = batch.name();
    let seed = args.seed % RECORDED_SEEDS;
    let (ds, setup_times) = setup(batch, seed);
    out.param(
        "dataset",
        format!(
            "\"{}\"",
            if batch == Batch::Detection { "standard" } else { "standard, durations 400/900" }
        ),
    );
    out.param("budget", format!("\"{:?}\"", batch.budget()));
    out.param("input_seed", seed.to_string());

    if args.trace {
        // Untraced runs before and after the replay give the overhead
        // baseline (the first run of a process also pays its warm-up).
        let untraced = |out: &mut Outcome| {
            let t0 = Instant::now();
            let (digest, _, _) = table_run(batch, &ds, seed);
            check_digest(out, name, seed, digest);
            (digest, t0.elapsed().as_secs_f64())
        };
        let (digest, before_s) = untraced(out);
        let tr = Tracer::default();
        let (traced_digest, root, ed) = traced_table_run(batch, &ds, seed, &tr);
        let (_, after_s) = untraced(out);
        let untraced_s = before_s.min(after_s);
        out.attempted += 1;
        if traced_digest != digest {
            out.fail(format!(
                "traced replay digest {traced_digest:016x} != untraced {digest:016x}"
            ));
        }
        let spans = tr.spans();
        let run_s = spans[root].dur_ns() as f64 * 1e-9;
        layer_metrics(out, &spans, run_s, &setup_times);
        out.metric("bench.trace_overhead_s", run_s - untraced_s);
        out.metric(
            "bench.blocking_path_share",
            trace::blocking_self_ns(&spans, root) as f64 * 1e-9 / run_s,
        );
        if let Some((ae, cases)) = ed {
            // The per-call LIME figures come from a separate pass outside
            // the timed run, so they do not count against `run_s`.
            let mut calls = lime_calls(&cases, &ae, seed, &tr);
            let n = calls.len();
            let t = stats::tail(&mut calls, 0.99).expect("enough LIME calls for a tail");
            out.metric("edrun.explain_p50_us.LIME", t.p50 as f64 * 1e-3);
            out.metric("edrun.explain_p99_us.LIME", t.tail as f64 * 1e-3);
            out.metric("edrun.explain_calls.LIME", n as f64);
            // Model queries are not counted by the library: each LIME call
            // scores `n_samples` perturbations, so queries = calls × n_samples.
            out.metric("edrun.lime_queries", (n * LimeConfig::default().n_samples) as f64);
            out.param("lime_tail_level", format!("{}", t.level));
        }
        return;
    }

    // Each table run is followed by a short probe of the models it trained,
    // so the probe samples the whole window rather than one burst at its end.
    let started = Instant::now();
    let mut run_times = Vec::new();
    let mut digest = 0;
    let (mut light, mut heavy) = (Vec::new(), Vec::new());
    while run_times.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let t0 = Instant::now();
        let (d, run, ae) = table_run(batch, &ds, seed);
        run_times.push(t0.elapsed().as_secs_f64());
        check_digest(out, name, seed, d);
        digest = d;
        let (l, h) = probe(batch, &run, ae.as_ref(), seed);
        light.extend(l);
        heavy.extend(h);
    }
    out.attempted += (light.len() + heavy.len()) as u64;
    light.sort_unstable();
    heavy.sort_unstable();
    out.metric("setup_s", stats::median(&setup_times));
    out.metric("run_s", stats::median(&run_times));
    out.metric("light_p50_us", stats::nearest_rank(&light, 0.5) as f64 * 1e-3);
    out.metric("heavy_p50_us", stats::nearest_rank(&heavy, 0.5) as f64 * 1e-3);
    let times: Vec<String> = run_times.iter().map(|t| format!("{t:.4}")).collect();
    out.param("table_run_s", format!("[{}]", times.join(", ")));
    out.param("digest", format!("\"{digest:016x}\""));
    out.param(
        "operation",
        format!(
            "\"{}\"",
            match batch {
                Batch::Detection => "score every test trace with each trained model (P2 inference)",
                Batch::Explanation => "LIME explanations of 32 consecutive cases (P3 explanation)",
            }
        ),
    );
    out.param("light_samples", light.len().to_string());
    out.param("heavy_samples", heavy.len().to_string());
    out.param("heavy_callers", exathlon_core::par::max_threads().to_string());
}

/// Per-layer figures of a traced batch run.
fn layer_metrics(out: &mut Outcome, spans: &[trace::Span], run_s: f64, setup_times: &[f64]) {
    let sum = |name: &str| trace::sum_s(spans, |n| n == name);
    out.metric("sparksim.build_s", stats::median(setup_times));
    out.metric("partition.busy_s", sum("partition"));
    out.metric("transform.fit_s", sum("transform.fit"));
    out.metric("transform.apply_s", sum("transform.apply"));
    for m in AdMethod::PAPER_METHODS {
        let label = m.label();
        let own = format!("model.train.{label}");
        let refit = format!("model.train.{label}.refit");
        out.metric(
            &format!("model.train_s.{label}"),
            trace::sum_s(spans, |n| n == own || n == refit),
        );
    }
    let fan = spans.iter().find(|s| s.name == "par.methods").expect("fan-out span");
    let busy = trace::sum_s(spans, |n| n.starts_with("method."));
    let threads = exathlon_core::par::max_threads() as f64;
    out.metric("par.busy_share", busy / (fan.dur_ns() as f64 * 1e-9 * threads));
    out.metric("evaluate.score_s", sum("evaluate.score"));
    out.metric("evaluate.separation_s", sum("evaluate.separation"));
    out.metric("evaluate.detection_s", sum("evaluate.detection"));
    out.metric("edrun.collect_cases_s", sum("edrun.collect_cases"));
    for m in EdMethodKind::ALL {
        let label = m.label();
        out.metric(&format!("edrun.method_s.{label}"), sum(&format!("edrun.method.{label}")));
    }
    let edrun_s = trace::sum_s(spans, |n| n.starts_with("edrun."));
    out.metric("edrun.run_share", edrun_s / run_s);
    out.metric("bench.run_s_traced", run_s);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every input seed a run can pick has a golden digest for both batch
    /// workloads.
    #[test]
    fn every_input_seed_has_a_golden_digest() {
        for workload in [Batch::Detection.name(), Batch::Explanation.name()] {
            for seed in 0..RECORDED_SEEDS {
                assert!(golden(workload, seed).is_some(), "{workload} seed {seed}");
            }
        }
        assert_eq!(golden("ad_pipeline", RECORDED_SEEDS), None);
    }
}
