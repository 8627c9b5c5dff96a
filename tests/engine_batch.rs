//! Integration tests for the batch engine: determinism across worker
//! counts on a seeded corpus, and fault isolation for poisoned apps.

use ppchecker_apk::{Apk, ComponentKind, Dex, Manifest};
use ppchecker_core::PPChecker;
use ppchecker_corpus::{evaluate, evaluate_parallel, export_dataset, small_dataset, stream_scaled};
use ppchecker_engine::Engine;

/// `jobs=1` and `jobs=8` over the same seeded 50-app corpus must produce
/// identical evaluations and byte-identical aggregate renderings.
#[test]
fn parallel_evaluation_is_deterministic_across_worker_counts() {
    let dataset = small_dataset(42, 50);

    let (serial, m1) = evaluate_parallel(&dataset, 1);
    let (parallel, m8) = evaluate_parallel(&dataset, 8);
    assert_eq!(serial, parallel, "jobs=1 vs jobs=8 evaluations diverged");
    assert_eq!(m1.jobs, 1);
    assert_eq!(m8.jobs, 8);

    // And both must match the plain serial harness.
    assert_eq!(serial, evaluate(&dataset));
}

/// The aggregate report bytes (not just the struct) must be identical for
/// any worker count.
#[test]
fn aggregate_rendering_is_byte_identical() {
    let dataset = small_dataset(7, 50);
    let libs = || dataset.lib_policies.iter().map(|lp| (lp.lib.id.to_string(), lp.html.clone()));

    let one = Engine::with_lib_policies(PPChecker::new(), libs())
        .with_jobs(1)
        .run(dataset.iter_apps().cloned());
    let eight = Engine::with_lib_policies(PPChecker::new(), libs())
        .with_jobs(8)
        .run(dataset.iter_apps().cloned());

    assert_eq!(one.aggregate(), eight.aggregate());
    assert_eq!(one.aggregate().to_string(), eight.aggregate().to_string());
    for (a, b) in one.records.iter().zip(eight.records.iter()) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.package, b.package);
        assert_eq!(format!("{:?}", a.outcome), format!("{:?}", b.outcome));
    }
}

/// One corrupt-dex app in a batch yields exactly one error record; the
/// other N−1 apps still produce full reports.
#[test]
fn corrupt_dex_app_is_isolated_to_one_error_record() {
    let dataset = small_dataset(42, 20);
    let mut inputs: Vec<_> = dataset.iter_apps().cloned().collect();

    // Poison app 11: replace its APK with an unpackable blob.
    let manifest = inputs[11].apk.manifest.clone();
    inputs[11].apk = Apk::from_packed_blob(manifest, vec![0x00, 0xFF, 0x13, 0x37]);

    let engine = Engine::with_lib_policies(
        PPChecker::new(),
        dataset.lib_policies.iter().map(|lp| (lp.lib.id.to_string(), lp.html.clone())),
    )
    .with_jobs(4);
    let batch = engine.run(inputs);

    assert_eq!(batch.records.len(), 20);
    assert_eq!(batch.metrics.errors, 1);
    let error = batch.records[11].error().unwrap();
    assert_eq!(error.stage(), ppchecker_core::Stage::StaticAnalysis);
    assert!(error.to_string().contains("static analysis failed"));
    assert_eq!(
        batch.records.iter().filter(|r| r.report().is_some()).count(),
        19,
        "all other apps must still complete"
    );
    assert_eq!(batch.aggregate().errors, 1);
}

/// Apps the taint kernel declines run on the reference engine and are
/// counted per run: a duplicate method declaration and a dex with more
/// than 256 taint labels each fall back; scale-corpus apps never do.
#[test]
fn taint_reference_fallbacks_are_counted_per_run() {
    let engine = Engine::new(PPChecker::new()).with_jobs(2);
    let scale = engine.run(stream_scaled(7, 2_000).map(|app| app.input).collect::<Vec<_>>());
    assert_eq!(scale.metrics.errors, 0);
    assert_eq!(scale.metrics.taint_reference_fallbacks, 0);

    let mut manifest = Manifest::new("com.d");
    manifest.add_component(ComponentKind::Activity, "com.d.Main", true);
    let duplicate = Dex::builder()
        .class("com.d.Main", |c| {
            c.method("onCreate", 1, |m| {
                m.invoke_virtual("com.d.Main", "go", &[0], None);
            });
            c.method("go", 1, |_| {});
            c.method("go", 1, |_| {});
        })
        .build();
    let overflow = Dex::builder()
        .class("com.d.Main", |c| {
            c.method("onCreate", 1, |m| {
                for i in 0..300u32 {
                    m.const_string(1, &format!("content://com.android.contacts/u{i}"));
                    m.invoke_virtual("android.content.ContentResolver", "query", &[0, 1], Some(2));
                    m.invoke_static("android.util.Log", "i", &[2], None);
                }
            });
        })
        .build();
    let mut inputs: Vec<_> = small_dataset(42, 4).iter_apps().cloned().collect();
    inputs[1].apk = Apk::new(manifest.clone(), duplicate);
    inputs[2].apk = Apk::new(manifest, overflow);
    let batch = engine.run(inputs);
    assert_eq!(batch.metrics.errors, 0);
    assert_eq!(batch.metrics.taint_reference_fallbacks, 2);
    assert!(batch.metrics.to_string().contains("taint reference fallbacks: 2 apps"));
    assert_eq!(engine.metrics_snapshot().taint_reference_fallbacks, 2);
}

/// End-to-end through the export layout: `ppchecker batch` record streams
/// are byte-identical across worker counts.
#[test]
fn batch_cli_records_are_jobs_invariant_over_exported_corpus() {
    use ppchecker_cli::{run_batch, BatchOptions};

    let dataset = small_dataset(42, 12);
    let dir = std::env::temp_dir().join(format!("ppchecker-engine-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    export_dataset(&dir, &dataset, 12).unwrap();

    let (serial, _) =
        run_batch(&BatchOptions { jobs: 1, ..BatchOptions::for_corpus_dir(&dir) }).unwrap();
    let (parallel, _) =
        run_batch(&BatchOptions { jobs: 8, ..BatchOptions::for_corpus_dir(&dir) }).unwrap();
    assert_eq!(serial, parallel, "JSONL output must be byte-identical");
    assert_eq!(serial.lines().count(), 13, "12 records + 1 aggregate line");
    let _ = std::fs::remove_dir_all(&dir);
}
