//! **P3: ED efficiency** (§4.3). Measures per-explanation running time of
//! the three ED methods — the Table 5 "Time" column — sweeping the
//! feature count `M`. The paper's shape: EXstream in the milliseconds,
//! MacroBase next, LIME orders of magnitude slower.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use exathlon_ad::ae_ad::{AeConfig, AutoencoderDetector};
use exathlon_ad::AnomalyScorer;
use exathlon_ed::exstream::ExstreamExplainer;
use exathlon_ed::lime::{LimeConfig, LimeExplainer};
use exathlon_ed::macrobase::MacroBaseExplainer;
use exathlon_linalg::Matrix;
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::TimeSeries;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An anomaly/reference pair with a level shift in half the features.
fn case(dims: usize, seed: u64) -> (TimeSeries, TimeSeries) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mk = |n: usize, shift: f64, rng: &mut StdRng| -> TimeSeries {
        let records: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dims)
                    .map(|j| {
                        let base: f64 = rng.gen_range(-0.2..0.2);
                        if j % 2 == 0 {
                            base + shift
                        } else {
                            base
                        }
                    })
                    .collect()
            })
            .collect();
        TimeSeries::from_records(default_names(dims), 0, &records)
    };
    let reference = mk(90, 0.0, &mut rng);
    let anomaly = mk(30, 3.0, &mut rng);
    (anomaly, reference)
}

fn bench_model_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("p3_ed_time");
    for dims in [8usize, 19] {
        let (anomaly, reference) = case(dims, 3);
        group.bench_with_input(BenchmarkId::new("EXstream", dims), &dims, |b, _| {
            b.iter(|| black_box(ExstreamExplainer::default().explain(&anomaly, &reference)))
        });
        group.bench_with_input(BenchmarkId::new("MacroBase", dims), &dims, |b, _| {
            b.iter(|| black_box(MacroBaseExplainer::default().explain(&anomaly, &reference)))
        });
    }
    group.finish();
}

fn bench_lime(c: &mut Criterion) {
    let mut group = c.benchmark_group("p3_ed_time_lime");
    group.sample_size(10);
    for dims in [8usize, 19] {
        let (anomaly, reference) = case(dims, 3);
        // Fit a small AE to serve as the model LIME explains.
        let mut ae = AutoencoderDetector::new(AeConfig {
            window: 4,
            hidden: vec![16],
            code: 4,
            epochs: 5,
            max_windows: 300,
            ..AeConfig::default()
        });
        ae.fit(&[&reference]);
        let window = anomaly.slice(0, 4);
        let lime = LimeExplainer::new(LimeConfig { n_samples: 200, ..LimeConfig::default() });
        group.bench_with_input(BenchmarkId::new("LIME", dims), &dims, |b, _| {
            b.iter(|| black_box(lime.explain(&window, &|batch: &Matrix| ae.window_scores(batch))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_model_free, bench_lime);
criterion_main!(benches);
