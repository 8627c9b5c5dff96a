//! The `stream` workload: the first N apps of the scale corpus through
//! one fresh `Engine::run_streamed` at one job per hardware thread, with
//! no store. Analysis-bound: few policies repeat, so NLP, static
//! analysis, description analysis and the detectors do nearly all the
//! work.
//!
//! After the pass, apps the pass never saw go through the same engine one
//! call at a time (`Engine::check_one`, the single-request API), which
//! measures per-app latency without batching or pipelining.

use crate::common::{self, ChildReport, Pass};
use crate::trace::Tracer;
use ppchecker_core::AppInput;
use ppchecker_engine::Engine;
use std::time::Instant;

/// Workload sizes. Tests shrink them; the benchmark uses [`Size::FULL`].
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Apps in the streamed pass.
    pub apps: usize,
    /// Every `stride`-th record of the pass is compared with the oracle.
    pub stride: usize,
    /// Single-app `check_one` calls after the pass.
    pub singles: usize,
}

impl Size {
    /// The benchmark's sizes. 20k apps span every scale-corpus bucket
    /// beyond the 1,197-app paper prefix; a prime stride samples every
    /// bucket of the 50-index layout.
    pub const FULL: Size = Size { apps: 20_000, stride: 97, singles: 5_000 };
}

/// The pass's apps and the single-check apps (the indices right after).
pub fn inputs(seed: u64, size: Size) -> (Vec<AppInput>, Vec<AppInput>) {
    let mut apps: Vec<AppInput> =
        ppchecker_corpus::stream_scaled(seed, size.apps + size.singles).map(|g| g.input).collect();
    let singles = apps.split_off(size.apps);
    (apps, singles)
}

/// What the oracle says: digests of every `stride`-th pass record and of
/// every single-check record, each computed by a fresh `PPChecker`.
pub fn expected(seed: u64, size: Size) -> Vec<u64> {
    let libs = common::lib_policies();
    let oracle = common::oracle(&libs);
    let (apps, singles) = inputs(seed, size);
    apps.iter()
        .step_by(size.stride)
        .chain(&singles)
        .map(|app| crate::stats::digest_of(&common::oracle_record_bytes(&oracle, app)))
        .collect()
}

/// Checks apps one call at a time through `Engine::check_one`, the
/// single-request API a resident service calls, returning each call's
/// latency (ms), each record's digest, and the error count.
pub fn single_checks(engine: &Engine, apps: &[AppInput]) -> (Vec<f64>, Vec<u64>, usize) {
    let mut latency_ms = Vec::with_capacity(apps.len());
    let mut digests = Vec::with_capacity(apps.len());
    let mut errors = 0;
    for app in apps {
        let t = Instant::now();
        let outcome = engine.check_one(app);
        latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = outcome.as_ref().map(|o| &o.report).map_err(ToString::to_string);
        errors += usize::from(outcome.is_err());
        digests.push(crate::stats::digest_of(&common::record_bytes(&app.package, &outcome)));
    }
    (latency_ms, digests, errors)
}

/// One `stream` child. Returns its report and the pass (for the traced
/// run's per-layer numbers).
pub fn child(seed: u64, size: Size, tracer: &mut Tracer) -> (ChildReport, Pass) {
    let libs = common::lib_policies();
    let (apps, singles) = inputs(seed, size);

    let rss_before = common::rss_kb("VmRSS:");
    let t0 = Instant::now();
    let engine = common::engine(&libs);
    common::warm_singletons();
    let setup_s = t0.elapsed().as_secs_f64();

    let pass = common::pass(&engine, apps, size.stride, tracer, 0);
    let rss_growth_mb = common::rss_growth_mb(rss_before);
    let (single_ms, single_digests, single_errors) = single_checks(&engine, &singles);

    let mut r = ChildReport::default();
    let answered = pass.summary.aggregate.apps as f64;
    r.value("setup_s", setup_s);
    r.value("measured_s", pass.wall_s);
    r.rate("apps_per_s", answered - pass.errors as f64, pass.wall_s);
    // Every app of a fresh stream is analyzed with empty caches.
    r.rate("cold_apps_per_s", answered, pass.wall_s);
    r.rate("req_per_s", answered, pass.wall_s);
    r.value("rss_growth_mb", rss_growth_mb);
    r.value("attempted", (size.apps + size.singles) as f64);
    r.value("failed", (pass.errors + single_errors) as f64);
    r.samples("req_ms", pass.residency_us.iter().map(|us| us / 1e3).collect());
    r.samples("conn_req_ms", single_ms);
    r.words(
        "aggregate",
        vec![crate::stats::digest_of(format!("{:?}", pass.summary.aggregate).as_bytes())],
    );
    r.words("sampled", pass.sampled.iter().copied().chain(single_digests).collect());
    (r, pass)
}
