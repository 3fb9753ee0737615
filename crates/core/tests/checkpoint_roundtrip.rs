//! Checkpoint round-trip properties: save → load → score must be
//! **bitwise** for both batch-backed (kNN) and stream-native (CUSUM)
//! detectors, for arbitrary traces and arbitrary snapshot points; every
//! corrupt image — truncated, wrong magic, wrong version, trailing
//! garbage, arbitrary bytes, any single mutated byte — must decode or be
//! a typed error, never a panic.

use exathlon_ad::knn_ad::{KnnConfig, KnnDetector};
use exathlon_ad::stream::{CusumConfig, CusumDetector, StreamingKnn};
use exathlon_ad::AnomalyScorer;
use exathlon_core::checkpoint::{ServingProfile, MAGIC, VERSION};
use exathlon_linalg::codec::CodecError;
use exathlon_tsdata::scale::DynamicScaler;
use exathlon_tsdata::series::default_names;
use exathlon_tsdata::TimeSeries;
use proptest::prelude::*;

/// A deterministic pseudo-random trace from a few shape parameters, so
/// proptest explores trace space without shipping huge inputs.
fn trace(n: usize, dims: usize, seed: u64) -> TimeSeries {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
    };
    let records: Vec<Vec<f64>> = (0..n).map(|_| (0..dims).map(|_| next()).collect()).collect();
    TimeSeries::from_records(default_names(dims), 0, &records)
}

fn knn_profile(train: &TimeSeries, threshold: f64) -> ServingProfile {
    let mut det = KnnDetector::new(KnnConfig { k: 3, max_references: 64 });
    det.fit(&[train]);
    ServingProfile::new(StreamingKnn::new(det).into(), threshold)
}

fn cusum_profile(train: &TimeSeries, threshold: f64) -> ServingProfile {
    let mut det = CusumDetector::new(CusumConfig::default());
    det.fit(&[train]);
    let mut p = ServingProfile::new(det.into(), threshold);
    p.scaler = Some(DynamicScaler::fit(train, 0.01));
    p
}

proptest! {
    /// kNN (batch-backed): snapshot at an arbitrary point mid-stream,
    /// restore, and the rest of the trace scores bitwise identically.
    #[test]
    fn knn_round_trip_is_bitwise(
        seed in 0u64..1000,
        dims in 1usize..5,
        cut in 0usize..40,
    ) {
        let train = trace(120, dims, seed);
        let mut original = knn_profile(&train, 1.0);
        let test = trace(40, dims, seed.wrapping_add(1));
        for i in 0..cut {
            let _ = original.ingest(test.record(i));
        }
        let bytes = original.to_bytes();
        let mut restored = ServingProfile::from_bytes(&bytes).unwrap();
        for i in cut..test.len() {
            let (a, fa) = original.ingest(test.record(i));
            let (b, fb) = restored.ingest(test.record(i));
            prop_assert_eq!(a.to_bits(), b.to_bits(), "diverged at record {}", i);
            prop_assert_eq!(fa, fb);
        }
        // A second snapshot of the restored twin equals the original's.
        prop_assert_eq!(original.to_bytes(), restored.to_bytes());
    }

    /// CUSUM (stream-native, with a dynamic scaler in front): the
    /// snapshot carries the in-flight CUSUM sums *and* the scaler's
    /// running moments, so continuation is bitwise from any cut point.
    #[test]
    fn cusum_round_trip_is_bitwise(
        seed in 0u64..1000,
        dims in 1usize..5,
        cut in 0usize..40,
    ) {
        let train = trace(150, dims, seed);
        let mut original = cusum_profile(&train, 2.0);
        let test = trace(40, dims, seed.wrapping_add(2));
        for i in 0..cut {
            let _ = original.ingest(test.record(i));
        }
        let bytes = original.to_bytes();
        let mut restored = ServingProfile::from_bytes(&bytes).unwrap();
        for i in cut..test.len() {
            let (a, fa) = original.ingest(test.record(i));
            let (b, fb) = restored.ingest(test.record(i));
            prop_assert_eq!(a.to_bits(), b.to_bits(), "diverged at record {}", i);
            prop_assert_eq!(fa, fb);
        }
        prop_assert_eq!(original.to_bytes(), restored.to_bytes());
    }

    /// Evict → spill-to-disk → lazy restore at an arbitrary cut point
    /// continues the score stream bitwise for both detector families:
    /// spilling is a tier demotion, never data loss. This is the
    /// contract the gatekeeper's spill tier ([`exathlon_core::spill`])
    /// leans on when a byte-budgeted shard evicts a hot profile.
    #[test]
    fn spill_restore_continues_bitwise(
        seed in 0u64..500,
        dims in 1usize..5,
        cut in 0usize..40,
        family in 0u8..2,
    ) {
        use exathlon_core::spill::SpillDir;
        use exathlon_linalg::codec::ByteWriter;

        let dir = std::env::temp_dir()
            .join(format!("exathlon-spill-prop-{}", std::process::id()));
        let spill = SpillDir::create(&dir).unwrap();
        let train = trace(120, dims, seed);
        let mut twin =
            if family == 0 { knn_profile(&train, 1.0) } else { cusum_profile(&train, 2.0) };
        let mut served = twin.clone();
        let test = trace(40, dims, seed.wrapping_add(3));
        for i in 0..cut {
            let (a, _) = twin.ingest(test.record(i));
            let (b, _) = served.ingest(test.record(i));
            prop_assert_eq!(a.to_bits(), b.to_bits(), "pre-spill diverged at {}", i);
        }
        // Evict: write the profile out and drop the resident copy.
        let entity = format!("e-{seed}-{dims}-{cut}-{family}");
        let mut scratch = ByteWriter::new();
        let written = spill.spill("app", &entity, &served, &mut scratch).unwrap();
        drop(served);
        // Next touch: lazy restore, image removed, stream continues.
        let (mut served, size) = spill.restore("app", &entity).unwrap().unwrap();
        prop_assert_eq!(size, written);
        prop_assert!(spill.remove("app", &entity).unwrap());
        for i in cut..test.len() {
            let (a, fa) = twin.ingest(test.record(i));
            let (b, fb) = served.ingest(test.record(i));
            prop_assert_eq!(a.to_bits(), b.to_bits(), "post-restore diverged at {}", i);
            prop_assert_eq!(fa, fb);
        }
        prop_assert_eq!(served.to_bytes(), twin.to_bytes());
    }

    /// Every strict prefix of a valid image is an error, never a panic —
    /// for both detector families.
    #[test]
    fn truncation_never_panics(seed in 0u64..200, family in 0u8..2) {
        let knn = family == 0;
        let train = trace(100, 2, seed);
        let profile =
            if knn { knn_profile(&train, 1.0) } else { cusum_profile(&train, 2.0) };
        let bytes = profile.to_bytes();
        for cut in 0..bytes.len() {
            prop_assert!(ServingProfile::from_bytes(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    /// Flipping the version byte to any other value is
    /// `UnsupportedVersion(v)` — the forward-compatibility contract.
    #[test]
    fn version_mismatch_is_typed(wrong in 0u8..=255) {
        prop_assume!(wrong != VERSION);
        let train = trace(80, 2, 7);
        let mut bytes = cusum_profile(&train, 2.0).to_bytes();
        bytes[4] = wrong;
        match ServingProfile::from_bytes(&bytes) {
            Err(CodecError::UnsupportedVersion(v)) => prop_assert_eq!(v, wrong),
            other => prop_assert!(false, "expected UnsupportedVersion, got {:?}", other),
        }
    }
}

/// Decode `bytes`: `from_bytes` returns a profile or a typed
/// `CodecError`, so the property is that it returns at all, and that a
/// profile it accepts re-encodes to an image it accepts again.
fn decodes_or_errs(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(profile) = ServingProfile::from_bytes(bytes) {
        let again = ServingProfile::from_bytes(&profile.to_bytes());
        prop_assert!(again.is_ok(), "accepted image does not re-decode: {:?}", again.err());
    }
    Ok(())
}

/// A valid kNN (`family` 0) or CUSUM image.
fn valid_image(family: u8, seed: u64) -> Vec<u8> {
    let train = trace(60, 1 + (seed % 3) as usize, seed);
    if family == 0 {
        knn_profile(&train, 1.0).to_bytes()
    } else {
        cusum_profile(&train, 2.0).to_bytes()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        decodes_or_errs(&bytes)?;
    }

    /// Arbitrary bytes behind a valid header, no scaler, no PCA and any
    /// detector tag reach every detector decoder, and never panic it.
    #[test]
    fn arbitrary_detector_body_never_panics(
        tag in 0u8..8,
        body in proptest::collection::vec(0u8..=255, 0..256),
    ) {
        let mut bytes = MAGIC.to_vec();
        bytes.extend([VERSION, 0, 0, tag]);
        bytes.extend(&body);
        decodes_or_errs(&bytes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any one byte of a valid kNN or CUSUM image replaced by another
    /// value decodes or errs, never panics. Each case walks every byte
    /// position with one arbitrary replacement plus the values that most
    /// often break a length or flag: 0x00, 0xFF and the low bit flipped.
    #[test]
    fn single_byte_mutation_never_panics(
        family in 0u8..2,
        seed in 0u64..50,
        value in 0u8..=255,
    ) {
        let image = valid_image(family, seed);
        let mut bytes = image.clone();
        for (pos, &orig) in image.iter().enumerate() {
            for v in [value, 0x00, 0xFF, orig ^ 0x01] {
                if v != orig {
                    bytes[pos] = v;
                    decodes_or_errs(&bytes)?;
                }
            }
            bytes[pos] = orig;
        }
    }
}

#[test]
fn truncated_file_and_bad_magic_error_via_file_api() {
    let dir = std::env::temp_dir().join("exathlon_ckpt_it");
    std::fs::create_dir_all(&dir).unwrap();
    let train = trace(80, 2, 3);
    let profile = knn_profile(&train, 1.0);
    let bytes = profile.to_bytes();

    let truncated = dir.join("truncated.exck");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    assert!(matches!(
        ServingProfile::load(&truncated),
        Err(exathlon_core::checkpoint::CheckpointError::Codec(_))
    ));

    let mangled = dir.join("mangled.exck");
    let mut bad = bytes.clone();
    bad[0] ^= 0x55;
    std::fs::write(&mangled, &bad).unwrap();
    assert!(matches!(
        ServingProfile::load(&mangled),
        Err(exathlon_core::checkpoint::CheckpointError::Codec(CodecError::BadMagic))
    ));

    let missing = dir.join("does_not_exist.exck");
    assert!(matches!(
        ServingProfile::load(&missing),
        Err(exathlon_core::checkpoint::CheckpointError::Io(_))
    ));

    std::fs::remove_file(&truncated).unwrap();
    std::fs::remove_file(&mangled).unwrap();
}

/// The restored detector is the *same* model, not a retrained one: its
/// batch scores over a fresh trace match the original's batch twin.
#[test]
fn restored_knn_matches_batch_scorer() {
    let train = trace(120, 3, 11);
    let mut det = KnnDetector::new(KnnConfig { k: 3, max_references: 64 });
    det.fit(&[&train]);
    let batch = det.clone();
    let profile = ServingProfile::new(StreamingKnn::new(det).into(), 1.0);
    let mut restored = ServingProfile::from_bytes(&profile.to_bytes()).unwrap();
    let test = trace(50, 3, 12);
    let want = batch.score_series(&test);
    for (i, rec) in test.records().enumerate() {
        let (got, _) = restored.ingest(rec);
        assert_eq!(got.to_bits(), want[i].to_bits(), "record {i}");
    }
}

/// Regression: a kNN image announcing 2^62 reference rows of zero width
/// carries no reference bytes, so it passed the length check. The
/// decoder accepted it (an unoptimized build spun for minutes first),
/// and its first ingest panicked on the dimension mismatch.
#[test]
fn zero_width_knn_references_are_corrupt() {
    let mut bytes = MAGIC.to_vec();
    bytes.extend([VERSION, 0, 0, 6]); // no scaler, no PCA, kNN
    for field in [3u64, 64, 1 << 62, 0] {
        bytes.extend(field.to_le_bytes()); // k, max_references, rows, cols
    }
    bytes.extend(1.0f64.to_le_bytes()); // threshold
    assert!(matches!(ServingProfile::from_bytes(&bytes), Err(CodecError::Corrupt(_))));
}
