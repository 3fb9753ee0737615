//! Pipeline-wide structured observability: stages, spans, counters, and
//! duration histograms — the substrate every perf/scaling change justifies
//! its numbers with.
//!
//! # Model
//!
//! * A **stage** is one of the coarse pipeline phases (`simulate`,
//!   `partition`, `transform`, `train`, `score`, `threshold`, `evaluate`,
//!   `ed`). [`stage`] returns a guard that adds its wall-clock time to the
//!   stage on drop; [`add_records`] attributes a record count so the
//!   report can derive records/sec.
//! * A **span** is a finer timed region inside a stage (one trace
//!   simulated, one method trained, one thresholding rule evaluated).
//!   Span aggregates keep count / total / min / max, a log₂ duration
//!   histogram, and the set of worker threads that contributed — so
//!   per-worker timings from [`crate::par`] leases aggregate correctly
//!   instead of being misread as one serial timeline.
//! * A **counter** is a named monotonic `u64` ([`counter`]). The parallel
//!   layer reports its fan-out decisions this way (`par.calls`,
//!   `par.parallel_calls`, `par.workers_spawned`, `par.worker_busy_ns`),
//!   which is where the report's worker-utilization figure comes from.
//!
//! # Control
//!
//! The layer is off unless `EXATHLON_PROFILE` is set to anything other
//! than `""` or `"0"`. The decision is cached in an atomic: the disabled
//! fast path is one relaxed load and **no allocation** (guards carry
//! `None` and their `Drop` is a no-op), so instrumented code compiles down
//! to near-zero overhead — pinned by the `p2_obs_overhead` bench. After
//! changing the variable at runtime (tests, benches), call [`refresh`].
//!
//! Reports are deterministic-by-construction reads of the registry: all
//! maps are `BTreeMap`s, so two runs that execute the same work produce
//! reports with the same stage/span ordering. Profiling never changes
//! pipeline *output*: guards only read clocks (`tests/
//! profile_determinism.rs` pins bitwise identity of profiled runs).
//!
//! `EXATHLON_PROFILE_DIR` overrides the report directory (default
//! `results/`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Environment variable enabling the observability layer.
pub const PROFILE_ENV: &str = "EXATHLON_PROFILE";
/// Environment variable overriding the report directory.
pub const PROFILE_DIR_ENV: &str = "EXATHLON_PROFILE_DIR";
/// File name of the JSON report written under the report directory.
pub const REPORT_FILE: &str = "profile_report.json";

/// Number of log₂ duration-histogram buckets: bucket `i` holds spans with
/// duration in `[2^i, 2^(i+1))` nanoseconds; 40 buckets reach ~18 minutes.
pub const HIST_BUCKETS: usize = 40;

// Cached enablement: 0 = undecided, 1 = disabled, 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether profiling is enabled. One relaxed atomic load on the hot path;
/// the first call (or the first after [`refresh`]) reads [`PROFILE_ENV`].
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => refresh(),
    }
}

/// Re-read [`PROFILE_ENV`] and cache the result. Call after mutating the
/// variable at runtime; plain CLI runs never need it.
pub fn refresh() -> bool {
    let on = match std::env::var(PROFILE_ENV) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    };
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Per-thread worker id, assigned on first use — spans record which
/// workers contributed, surviving thread reuse across `par_map` calls.
fn worker_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

#[derive(Default)]
struct StageAgg {
    wall_ns: u64,
    entries: u64,
    records: u64,
}

struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    hist: [u64; HIST_BUCKETS],
    /// Worker ids that executed at least one span of this aggregate.
    threads: Vec<u64>,
}

impl SpanAgg {
    fn new() -> Self {
        Self {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            hist: [0; HIST_BUCKETS],
            threads: Vec::new(),
        }
    }

    fn record(&mut self, ns: u64, thread: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        let bucket = (64 - ns.max(1).leading_zeros() as usize - 1).min(HIST_BUCKETS - 1);
        self.hist[bucket] += 1;
        if let Err(at) = self.threads.binary_search(&thread) {
            self.threads.insert(at, thread);
        }
    }
}

#[derive(Default)]
struct Registry {
    stages: BTreeMap<&'static str, StageAgg>,
    spans: BTreeMap<(&'static str, &'static str), SpanAgg>,
    counters: BTreeMap<&'static str, u64>,
    started: Option<Instant>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let reg = guard.get_or_insert_with(Registry::default);
    if reg.started.is_none() {
        reg.started = Some(Instant::now());
    }
    f(reg)
}

/// Guard timing one entry of a pipeline stage; the elapsed wall-clock is
/// added to the stage aggregate on drop. No-op (and allocation-free) when
/// profiling is disabled.
#[must_use = "the stage is timed until the guard drops"]
pub struct StageGuard {
    data: Option<(&'static str, Instant)>,
}

/// Start timing one entry of `stage_name`.
#[inline]
pub fn stage(stage_name: &'static str) -> StageGuard {
    if !enabled() {
        return StageGuard { data: None };
    }
    StageGuard { data: Some((stage_name, Instant::now())) }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        if let Some((name, start)) = self.data.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_registry(|reg| {
                let agg = reg.stages.entry(name).or_default();
                agg.wall_ns += ns;
                agg.entries += 1;
            });
        }
    }
}

/// Attribute `n` processed records to a stage (throughput numerator).
#[inline]
pub fn add_records(stage_name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| reg.stages.entry(stage_name).or_default().records += n);
}

/// Guard timing one span; recorded into the `(stage, name)` aggregate on
/// drop, tagged with the executing worker thread. No-op when disabled.
#[must_use = "the span is timed until the guard drops"]
pub struct SpanGuard {
    data: Option<(&'static str, &'static str, Instant)>,
}

/// Start a span `name` under `stage_name`.
#[inline]
pub fn span(stage_name: &'static str, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { data: None };
    }
    SpanGuard { data: Some((stage_name, name, Instant::now())) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((stage_name, name, start)) = self.data.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            let thread = worker_id();
            with_registry(|reg| {
                reg.spans.entry((stage_name, name)).or_insert_with(SpanAgg::new).record(ns, thread)
            });
        }
    }
}

/// Accumulates a worker's busy wall-clock into the `par.worker_busy_ns`
/// counter on drop — the parallel layer wraps each lane in one so the
/// report can derive worker utilization. No-op when disabled.
#[must_use = "busy time is recorded when the clock stops"]
pub struct BusyClock(Option<Instant>);

impl BusyClock {
    /// Start the clock (disabled path allocates nothing).
    #[inline]
    pub fn start() -> Self {
        if enabled() {
            BusyClock(Some(Instant::now()))
        } else {
            BusyClock(None)
        }
    }

    /// Stop explicitly (equivalent to dropping).
    #[inline]
    pub fn stop(self) {}
}

impl Drop for BusyClock {
    fn drop(&mut self) {
        if let Some(start) = self.0.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            with_registry(|reg| *reg.counters.entry("par.worker_busy_ns").or_insert(0) += ns);
        }
    }
}

/// Add `delta` to the named monotonic counter.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|reg| *reg.counters.entry(name).or_insert(0) += delta);
}

/// Clear all recorded stages, spans, and counters (tests / repeated runs).
pub fn reset() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

/// One span aggregate in a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// Stage the span belongs to.
    pub stage: String,
    /// Span name.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Summed duration (ns).
    pub total_ns: u64,
    /// Shortest recorded span (ns).
    pub min_ns: u64,
    /// Longest recorded span (ns).
    pub max_ns: u64,
    /// Approximate median from the log₂ histogram (ns).
    pub p50_ns: u64,
    /// Approximate 99th percentile from the log₂ histogram (ns).
    pub p99_ns: u64,
    /// Number of distinct worker threads that executed spans.
    pub threads: usize,
}

/// One stage aggregate in a [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name.
    pub name: String,
    /// Summed wall-clock over all entries (ns). Concurrent entries (e.g.
    /// per-method training on workers) sum, so this can exceed elapsed
    /// process time — it is per-worker busy time, not a timeline.
    pub wall_ns: u64,
    /// Number of guard entries.
    pub entries: u64,
    /// Records attributed via [`add_records`].
    pub records: u64,
    /// `records / wall` in records per second (0 when either is 0).
    pub records_per_sec: f64,
}

/// A snapshot of everything recorded since start/[`reset`].
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Elapsed wall-clock since the first recorded event (ns).
    pub elapsed_ns: u64,
    /// Per-stage aggregates, name-ordered.
    pub stages: Vec<StageReport>,
    /// Per-span aggregates, (stage, name)-ordered.
    pub spans: Vec<SpanReport>,
    /// Counters, name-ordered.
    pub counters: Vec<(String, u64)>,
}

fn percentile(hist: &[u64; HIST_BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= target {
            // Bucket midpoint: [2^i, 2^(i+1)) → 1.5 * 2^i.
            return (1u64 << i) + (1u64 << i) / 2;
        }
    }
    1u64 << (HIST_BUCKETS - 1)
}

/// Snapshot the registry into a [`Report`].
pub fn report() -> Report {
    with_registry(|reg| {
        let elapsed_ns =
            reg.started.map(|s| s.elapsed().as_nanos().min(u64::MAX as u128) as u64).unwrap_or(0);
        let stages = reg
            .stages
            .iter()
            .map(|(&name, agg)| StageReport {
                name: name.to_string(),
                wall_ns: agg.wall_ns,
                entries: agg.entries,
                records: agg.records,
                records_per_sec: if agg.wall_ns == 0 {
                    0.0
                } else {
                    agg.records as f64 / (agg.wall_ns as f64 / 1e9)
                },
            })
            .collect();
        let spans = reg
            .spans
            .iter()
            .map(|(&(stage_name, name), agg)| SpanReport {
                stage: stage_name.to_string(),
                name: name.to_string(),
                count: agg.count,
                total_ns: agg.total_ns,
                min_ns: if agg.count == 0 { 0 } else { agg.min_ns },
                max_ns: agg.max_ns,
                p50_ns: percentile(&agg.hist, agg.count, 0.50),
                p99_ns: percentile(&agg.hist, agg.count, 0.99),
                threads: agg.threads.len(),
            })
            .collect();
        let counters = reg.counters.iter().map(|(&k, &v)| (k.to_string(), v)).collect();
        Report { elapsed_ns, stages, spans, counters }
    })
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Report {
    /// Worker utilization: busy time reported by `par_map` lanes divided
    /// by `workers x elapsed`. `None` when the parallel layer never ran
    /// or no wall-clock elapsed.
    pub fn worker_utilization(&self, workers: usize) -> Option<f64> {
        if workers == 0 || self.elapsed_ns == 0 {
            return None;
        }
        let busy =
            self.counters.iter().find(|(k, _)| k == "par.worker_busy_ns").map(|&(_, v)| v)?;
        Some(busy as f64 / (self.elapsed_ns as f64 * workers as f64))
    }

    /// The report as a JSON document (schema documented in DESIGN.md).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"elapsed_ns\": {},\n", self.elapsed_ns));
        out.push_str("  \"stages\": [\n");
        for (i, s) in self.stages.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"wall_ns\": {}, \"entries\": {}, \"records\": {}, \
                 \"records_per_sec\": {:.3}}}{}\n",
                json_escape(&s.name),
                s.wall_ns,
                s.entries,
                s.records,
                s.records_per_sec,
                if i + 1 < self.stages.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \
                 \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
                 \"threads\": {}}}{}\n",
                json_escape(&s.stage),
                json_escape(&s.name),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                s.p50_ns,
                s.p99_ns,
                s.threads,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            out.push_str(&format!(
                "{}\"{}\": {}",
                if i > 0 { ", " } else { "" },
                json_escape(k),
                v
            ));
        }
        out.push_str("}\n}\n");
        out
    }

    /// Human-readable per-stage table with a top-`top_n` span breakdown.
    pub fn table(&self, top_n: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Exathlon profile == elapsed {:.3}s\n",
            self.elapsed_ns as f64 / 1e9
        ));
        if let Some(u) = self.worker_utilization(crate::par::max_threads()) {
            out.push_str(&format!(
                "worker utilization: {:.1}% of {} workers\n",
                u * 100.0,
                crate::par::max_threads()
            ));
        }
        out.push_str(&format!(
            "{:<12} {:>10} {:>8} {:>12} {:>14}\n",
            "stage", "wall (s)", "entries", "records", "records/s"
        ));
        for s in &self.stages {
            out.push_str(&format!(
                "{:<12} {:>10.3} {:>8} {:>12} {:>14.1}\n",
                s.name,
                s.wall_ns as f64 / 1e9,
                s.entries,
                s.records,
                s.records_per_sec
            ));
        }
        let mut top: Vec<&SpanReport> = self.spans.iter().collect();
        top.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then_with(|| a.name.cmp(&b.name)));
        top.truncate(top_n);
        if !top.is_empty() {
            out.push_str(&format!(
                "{:<28} {:>8} {:>10} {:>10} {:>10} {:>8}\n",
                "top spans", "count", "total (s)", "p50 (us)", "p99 (us)", "threads"
            ));
            for s in top {
                out.push_str(&format!(
                    "{:<28} {:>8} {:>10.3} {:>10.1} {:>10.1} {:>8}\n",
                    format!("{}/{}", s.stage, s.name),
                    s.count,
                    s.total_ns as f64 / 1e9,
                    s.p50_ns as f64 / 1e3,
                    s.p99_ns as f64 / 1e3,
                    s.threads
                ));
            }
        }
        out
    }
}

/// Directory the JSON report is written to: [`PROFILE_DIR_ENV`] if set,
/// else `results/`.
pub fn report_dir() -> std::path::PathBuf {
    std::env::var(PROFILE_DIR_ENV).unwrap_or_else(|_| "results".to_string()).into()
}

/// When profiling is enabled, snapshot the registry, write the JSON
/// report atomically (temp file + rename) under [`report_dir`], print the
/// table to stderr, and return the report path. No-op when disabled.
///
/// Emission is a cumulative snapshot: callers may emit more than once per
/// process (e.g. after AD and again after ED) and the last write wins
/// with a superset of the earlier stages.
pub fn emit_report() -> Option<std::path::PathBuf> {
    if !enabled() {
        return None;
    }
    let rep = report();
    eprint!("{}", rep.table(10));
    let dir = report_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return None;
    }
    let path = dir.join(REPORT_FILE);
    let tmp = dir.join(format!("{REPORT_FILE}.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, rep.to_json()).is_err() {
        return None;
    }
    if std::fs::rename(&tmp, &path).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return None;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Profile state is process-global; tests that toggle it serialize.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_profile<R>(body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var(PROFILE_ENV, "1");
        refresh();
        reset();
        let r = body();
        std::env::remove_var(PROFILE_ENV);
        refresh();
        reset();
        r
    }

    #[test]
    fn disabled_guards_are_noops() {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var(PROFILE_ENV);
        refresh();
        reset();
        {
            let _st = stage("train");
            let _sp = span("train", "unit");
            counter("c", 3);
            add_records("train", 10);
        }
        let rep = report();
        assert!(rep.stages.is_empty(), "disabled run must record nothing");
        assert!(rep.spans.is_empty());
        assert!(rep.counters.is_empty());
    }

    #[test]
    fn stages_spans_and_counters_aggregate() {
        let rep = with_profile(|| {
            {
                let _st = stage("train");
                for _ in 0..3 {
                    let _sp = span("train", "unit");
                }
            }
            add_records("train", 50);
            counter("c", 2);
            counter("c", 5);
            report()
        });
        let st = rep.stages.iter().find(|s| s.name == "train").expect("train stage");
        assert_eq!(st.entries, 1);
        assert_eq!(st.records, 50);
        assert!(st.records_per_sec > 0.0);
        let sp = rep.spans.iter().find(|s| s.name == "unit").expect("unit span");
        assert_eq!(sp.count, 3);
        assert!(sp.min_ns <= sp.max_ns);
        assert!(sp.p50_ns > 0 && sp.p99_ns >= sp.p50_ns);
        assert_eq!(sp.threads, 1);
        assert_eq!(rep.counters, vec![("c".to_string(), 7)]);
    }

    #[test]
    fn spans_track_worker_threads() {
        let rep = with_profile(|| {
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    std::thread::spawn(|| {
                        let _sp = span("score", "worker");
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            report()
        });
        let sp = rep.spans.iter().find(|s| s.name == "worker").expect("worker span");
        assert_eq!(sp.count, 3);
        assert_eq!(sp.threads, 3, "each worker thread must be visible");
    }

    #[test]
    fn json_report_is_valid_and_ordered() {
        let json = with_profile(|| {
            {
                let _a = stage("b_stage");
                let _b = stage("a_stage");
            }
            counter("k", 1);
            report().to_json()
        });
        // Name-ordered stages (BTreeMap) and structurally valid JSON.
        let a = json.find("a_stage").expect("a_stage present");
        let b = json.find("b_stage").expect("b_stage present");
        assert!(a < b, "stages must be name-ordered");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"counters\": {\"k\": 1}"));
    }

    #[test]
    fn table_renders_every_stage() {
        let table = with_profile(|| {
            {
                let _a = stage("simulate");
                let _sp = span("simulate", "trace");
            }
            report().table(5)
        });
        assert!(table.contains("simulate"));
        assert!(table.contains("simulate/trace"));
    }

    #[test]
    fn percentile_covers_extremes() {
        let mut hist = [0u64; HIST_BUCKETS];
        hist[3] = 9; // 8..16 ns
        hist[10] = 1; // 1024..2048 ns
        assert_eq!(percentile(&hist, 10, 0.50), 12);
        assert_eq!(percentile(&hist, 10, 0.99), 1536);
        assert_eq!(percentile(&hist, 0, 0.5), 0);
    }
}
