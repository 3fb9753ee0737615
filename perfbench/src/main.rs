//! The repository's benchmark: three gated workloads over the paper
//! pipeline and the serving tier, plus one ungated (`serve_direct`), with
//! named end-to-end metrics (untraced run) and per-layer metrics (traced
//! run).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ad_pipeline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. Every metric is printed by name and
//! unit, then a `# result` line records the revision, core and thread
//! counts, seed and workload parameters, and the last line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits non-zero when any output mismatches. See `perfbench/README.md`.

mod batch;
mod serving;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("light_p50_us", "us"),
    ("heavy_p50_us", "us"),
];

/// Per-layer metrics, printed by every traced run (zero where the
/// workload does not reach the layer).
pub const PER_LAYER: [(&str, &str); 55] = [
    ("tier.light_p99_us", "us"),
    ("tier.heavy_p99_us", "us"),
    ("tier.max_rate_rps", "rps"),
    ("sparksim.build_s", "s"),
    ("partition.busy_s", "s"),
    ("transform.fit_s", "s"),
    ("transform.apply_s", "s"),
    ("model.train_s.LSTM", "s"),
    ("model.train_s.AE", "s"),
    ("model.train_s.BiGAN", "s"),
    ("par.busy_share", "ratio"),
    ("evaluate.score_s", "s"),
    ("evaluate.separation_s", "s"),
    ("evaluate.detection_s", "s"),
    ("edrun.collect_cases_s", "s"),
    ("edrun.method_s.EXstream", "s"),
    ("edrun.method_s.MacroBase", "s"),
    ("edrun.method_s.LIME", "s"),
    ("edrun.explain_p50_us.LIME", "us"),
    ("edrun.explain_p99_us.LIME", "us"),
    ("edrun.explain_calls.LIME", "count"),
    ("edrun.lime_queries", "count"),
    ("edrun.run_share", "ratio"),
    ("stream.update_ns.EWMA", "ns"),
    ("stream.update_ns.CUSUM", "ns"),
    ("stream.update_ns.Histogram", "ns"),
    ("stream.update_ns.kNN", "ns"),
    ("wire.parse_head_ns", "ns"),
    ("wire.parse_body_ns", "ns"),
    ("wire.format_ns", "ns"),
    ("serve.worker_cpu_share.light", "ratio"),
    ("serve.worker_cpu_share.heavy", "ratio"),
    ("serve.allocs_per_ingest", "count"),
    ("serve.rejected", "count"),
    ("registry.hit_ratio", "ratio"),
    ("registry.evictions", "count"),
    ("spill.spills", "count"),
    ("spill.restores", "count"),
    ("spill.restore_share", "ratio"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("route.hop_p50_us", "us"),
    ("route.hop_iqr_us", "us"),
    ("route.ring_owner_ns", "ns"),
    ("route.worker_cpu_share", "ratio"),
    ("route.shed", "count"),
    ("route.retries", "count"),
    ("route.upstream_errors", "count"),
    ("route.allocs_per_proxy", "count"),
    ("client.rtt_p50_us", "us"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.trace_overhead_s", "s"),
    ("bench.blocking_path_share", "ratio"),
    ("bench.run_s_traced", "s"),
    ("bench.failed_share", "ratio"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["ad_pipeline", "ed_explain", "serve_routed"];
/// Runnable, but not declared in `BENCHMARK.json`, so no change is judged
/// on it: on a shared 2-vCPU virtual machine its figures moved 13–133%
/// (quartile distance over median) between sets of runs of the same code,
/// above the largest bound a metric may carry. Its microsecond latencies
/// ride on how fast the host wakes the tier's idle virtual CPU.
pub const UNGATED: [&str; 1] = ["serve_direct"];

// ------------------------------------------------------ counting allocator

/// Global allocator counting allocations per thread, so the gatekeeper
/// and router can meter their warmed request paths
/// (`exathlon_core::serve::set_alloc_probe`).
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

fn bump() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the const-initialized thread-local counter cannot allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// ------------------------------------------------------------- arguments

/// Command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().chain(&UNGATED).any(|w| *w == args.workload) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or {UNGATED:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

// --------------------------------------------------------------- outcome

/// What a run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (requests, table runs, probe calls).
    pub attempted: u64,
    /// Operations that failed or produced a mismatching output.
    pub failed: u64,
    /// False when the measurement itself is invalid (generator late,
    /// backlog growing at a fixed rate) even if every output matched.
    pub invalid: Vec<String>,
    problems: Vec<String>,
    metrics: Vec<(String, f64)>,
    params: Vec<(String, String)>,
}

impl Outcome {
    /// Record a metric; its unit comes from the metric tables.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is not declared");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// Record a workload parameter (`value` is raw JSON).
    pub fn param(&mut self, name: &str, value: String) {
        self.params.push((name.to_string(), value));
    }

    /// Count one failed operation and say why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note_all(&[why]);
    }

    /// Record why operations counted elsewhere failed.
    pub fn note_all(&mut self, why: &[String]) {
        for w in why {
            if self.problems.len() < 20 {
                self.problems.push(w.clone());
            }
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The source revision: the git commit when run inside a clone, and in
/// every case an FNV digest of the library sources the benchmark built.
fn revision() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut d = stats::Digest::default();
    for f in &files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(f).unwrap_or_default());
    }
    let git = std::fs::read_to_string(".git/HEAD").ok().and_then(|head| {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => {
                std::fs::read_to_string(format!(".git/{r}")).ok().map(|s| s.trim().to_string())
            }
            None => Some(head.to_string()),
        }
    });
    format!("{}src-{:016x}", git.map(|g| format!("git-{g} ")).unwrap_or_default(), d.value())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                [&WORKLOADS[..], &UNGATED].concat().join("|")
            );
            std::process::exit(2);
        }
    };
    // Before any gatekeeper or router spawns its workers.
    exathlon_core::serve::set_alloc_probe(thread_allocs);

    let mut out = Outcome::default();
    match args.workload.as_str() {
        "ad_pipeline" => batch::run(batch::Batch::Detection, &args, &mut out),
        "ed_explain" => batch::run(batch::Batch::Explanation, &args, &mut out),
        "serve_direct" => serving::run(serving::Tier::Direct, &args, &mut out),
        "serve_routed" => serving::run(serving::Tier::Routed, &args, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    }
    if !args.trace {
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    if args.trace {
        out.metric("bench.failed_share", failed_share);
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{} seed {} ({})",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut metrics_json = Vec::new();
    for &(name, unit) in table {
        let value = match out.value(name) {
            Some(v) => v,
            // A layer the workload does not reach reads zero; an
            // end-to-end metric is always measured.
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("  {name:<32} {value:>16.6} {unit}");
        metrics_json.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "  {:<32} {:>16.6} ratio ({} of {} operations)",
        "failed_share", failed_share, out.failed, out.attempted
    );
    for p in out.problems.iter().chain(&out.invalid) {
        println!("  problem: {p}");
    }

    let threads_env = std::env::var(exathlon_core::par::THREADS_ENV).ok();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut meta = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("rev".to_string(), json_str(&revision())),
        ("nproc".to_string(), nproc.to_string()),
        ("threads".to_string(), exathlon_core::par::max_threads().to_string()),
        ("EXATHLON_THREADS".to_string(), threads_env.as_deref().map_or("null".into(), json_str)),
        ("failed_share".to_string(), failed_share.to_string()),
        ("valid".to_string(), out.invalid.is_empty().to_string()),
    ];
    meta.extend(out.params.iter().cloned());
    let fields: Vec<String> = meta.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let problems: Vec<String> =
        out.problems.iter().chain(&out.invalid).map(|p| json_str(p)).collect();
    println!("# result {{{}, \"problems\": [{}]}}", fields.join(", "), problems.join(", "));

    let correct = out.failed == 0 && out.invalid.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics_json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric and workload names here are the ones `BENCHMARK.json`
    /// declares, in the same order, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let names_in = |section: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{section}\"")).nth(1).expect("section present");
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|item| {
                    let field = |key: &str| {
                        let rest = item.split(&format!("\"{key}\"")).nth(1).expect("field present");
                        rest.split('"').nth(1).expect("string value").to_string()
                    };
                    (
                        field("name"),
                        if section == "workloads" { String::new() } else { field("unit") },
                    )
                })
                .collect()
        };
        let want = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names_in("end_to_end"), want(&END_TO_END));
        assert_eq!(names_in("per_layer"), want(&PER_LAYER));
        let workloads: Vec<String> = names_in("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
