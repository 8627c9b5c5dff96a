//! The `reaudit` workload: a versioned history of the 1,197-app paper
//! corpus re-audited release after release over one on-disk store.
//! Version 0 runs cold and writes every report, policy and lib summary;
//! each later version replays about 90% of apps from the store and
//! recomputes the ~10% that drifted. Each version is its own engine, as
//! each release audit is its own batch run. Store-bound, with writes
//! beside reads: NLP is mostly bypassed after version 0.

use crate::common::{self, ChildReport};
use crate::stats::digest_of;
use crate::trace::Tracer;
use ppchecker_core::AppInput;
use ppchecker_engine::{Engine, StoreSummary};
use ppchecker_store::{combine_hashes, content_hash, Store};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Workload sizes. Tests shrink them; the benchmark uses [`Size::FULL`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Apps per version.
    pub apps: usize,
    /// Versions after the cold base version.
    pub drift_versions: usize,
    /// Single-app `check_one` replays after the last version.
    pub singles: usize,
}

impl Size {
    /// The benchmark's sizes: the paper corpus over ten releases, then a
    /// single-app replay of every app of the last release.
    pub const FULL: Size = Size { apps: 1197, drift_versions: 10, singles: 1197 };
}

/// Percentage of apps mutated per release.
const CHANGE_PERCENT: u64 = 10;

/// Every version's apps.
pub fn inputs(seed: u64, size: Size) -> Vec<Vec<AppInput>> {
    let history = ppchecker_corpus::versioned_history(
        seed,
        size.apps,
        1 + size.drift_versions,
        CHANGE_PERCENT,
    );
    history.versions.into_iter().map(|v| v.apps.into_iter().map(|g| g.input).collect()).collect()
}

/// Indices of the apps replayed one `check_one` call at a time.
fn single_indices(size: Size) -> impl Iterator<Item = usize> {
    let step = (size.apps / size.singles.max(1)).max(1);
    (0..size.apps).step_by(step).take(size.singles)
}

/// Everything a stored report is a function of: policy, description,
/// APK and declared labels, per package.
fn input_key(app: &AppInput) -> (String, u64) {
    let fingerprint = combine_hashes(&[
        content_hash(app.policy_html.as_bytes()),
        content_hash(app.description.as_bytes()),
        app.apk.content_hash(),
        app.labels_fingerprint(),
    ]);
    (app.package.clone(), fingerprint)
}

/// What a store-less run says: per version, the digest of its record
/// stream and the number of apps whose inputs an earlier version already
/// audited — the apps the store must replay (the unchanged apps, plus
/// any lib swap that restores an earlier APK); then the digests of the
/// records the `check_one` calls replay.
pub fn expected(seed: u64, size: Size) -> Vec<u64> {
    let libs = common::lib_policies();
    let versions = inputs(seed, size);
    let mut audited = HashSet::new();
    let mut out = Vec::new();
    let mut last = Vec::new();
    let last_version = versions.len() - 1;
    for (v, apps) in versions.into_iter().enumerate() {
        let keys: Vec<(String, u64)> = apps.iter().map(input_key).collect();
        let replayed = keys.iter().filter(|k| audited.contains(*k)).count();
        audited.extend(keys);
        let engine = common::engine(&libs);
        let mut digest = crate::stats::Digest::default();
        engine.run_streamed(apps, |record| {
            let bytes = common::engine_record_bytes(&record);
            digest.push(&bytes);
            if v == last_version {
                last.push(digest_of(&bytes));
            }
        });
        out.push(digest.value());
        out.push(replayed as u64);
    }
    out.extend(single_indices(size).map(|i| last[i]));
    out
}

/// One `reaudit` child over a fresh store under `work`.
pub fn child(seed: u64, size: Size, work: &Path, tracer: &mut Tracer) -> (ChildReport, Run) {
    let libs = common::lib_policies();
    let versions = inputs(seed, size);
    let singles: Vec<AppInput> =
        single_indices(size).map(|i| versions[size.drift_versions][i].clone()).collect();
    let dir = work.join("store");
    let _ = std::fs::remove_dir_all(&dir);

    let rss_before = common::rss_kb("VmRSS:");
    let t0 = Instant::now();
    let store = Arc::new(Store::open(&dir).expect("open the workload's store"));
    let engines: Vec<Engine> =
        (0..versions.len()).map(|_| common::engine(&libs).with_store(Arc::clone(&store))).collect();
    common::warm_singletons();
    let setup_s = t0.elapsed().as_secs_f64();

    let mut words = Vec::new();
    let mut drift_wall = 0.0;
    let mut cold_wall = 0.0;
    let mut drift_ms = Vec::new();
    let mut errors = 0;
    let mut drift_errors = 0;
    let mut store_total = StoreSummary::default();
    let mut passes = Vec::new();
    for (v, (apps, engine)) in versions.into_iter().zip(&engines).enumerate() {
        let pass = common::pass(engine, apps, 0, tracer, v as u64);
        let run = pass.summary.metrics.store.unwrap_or_default();
        words.push(pass.digest);
        words.push(run.apps_skipped);
        errors += pass.errors;
        store_total = add(&store_total, &run);
        if v == 0 {
            cold_wall = pass.wall_s;
        } else {
            drift_wall += pass.wall_s;
            drift_errors += pass.errors;
            drift_ms.extend(pass.residency_us.iter().map(|us| us / 1e3));
        }
        passes.push(pass);
    }
    let rss_growth_mb = common::rss_growth_mb(rss_before);
    let last = engines.last().expect("at least one version");
    let (single_ms, single_digests, single_errors) = crate::stream::single_checks(last, &singles);
    words.extend(single_digests);
    let disk_mb = dir_bytes(&dir) as f64 / (1024.0 * 1024.0);
    drop(engines);
    let _ = std::fs::remove_dir_all(&dir);

    let drift_apps = (size.apps * size.drift_versions) as f64;
    let mut r = ChildReport::default();
    r.value("setup_s", setup_s);
    r.value("measured_s", cold_wall + drift_wall);
    r.rate("cold_apps_per_s", size.apps as f64, cold_wall);
    r.rate("apps_per_s", drift_apps - drift_errors as f64, drift_wall);
    r.rate("req_per_s", drift_apps, drift_wall);
    r.value("rss_growth_mb", rss_growth_mb);
    r.value("attempted", (size.apps * (1 + size.drift_versions) + size.singles) as f64);
    r.value("failed", (errors + single_errors) as f64);
    r.samples("req_ms", drift_ms);
    r.samples("conn_req_ms", single_ms);
    r.words("versions", words);
    (r, Run { passes, store: store_total, disk_mb })
}

/// What the traced run reads off a `reaudit` child.
pub struct Run {
    /// One pass per version, oldest first.
    pub passes: Vec<common::Pass>,
    /// Store counters summed over every version.
    pub store: StoreSummary,
    /// Size of the store on disk after the last version, MB.
    pub disk_mb: f64,
}

fn add(a: &StoreSummary, b: &StoreSummary) -> StoreSummary {
    let kind = |x: &ppchecker_store::StoreStats, y: &ppchecker_store::StoreStats| {
        ppchecker_store::StoreStats {
            hits: x.hits + y.hits,
            misses: x.misses + y.misses,
            writes: x.writes + y.writes,
            corrupt: x.corrupt + y.corrupt,
        }
    };
    StoreSummary {
        policies: kind(&a.policies, &b.policies),
        lib_summaries: kind(&a.lib_summaries, &b.lib_summaries),
        reports: kind(&a.reports, &b.reports),
        apps_skipped: a.apps_skipped + b.apps_skipped,
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map(|m| m.len()).unwrap_or(0),
            _ => 0,
        })
        .sum()
}
