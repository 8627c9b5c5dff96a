//! The traced run's per-layer breakdown. Everything here runs after the
//! workload's timed region, on a sample of the workload's own inputs,
//! and times calls into each layer's public functions from the
//! benchmark's side:
//!
//! * per app, `PPChecker::check` with the policy stage observed through
//!   the request's `policy_provider` hook (a content-addressed cache in
//!   front of `PolicyAnalyzer::analyze_html`, as the engine has); the
//!   other stages are read from the `StageTimings` the check returns;
//! * per app, direct calls to `analyze_description_with`, `Apg::build`,
//!   `analyze_with_cache`, `encode_report` and `report_to_json`;
//! * per distinct policy, a replay of `html::extract_text`,
//!   `split_sentences`, `token::tokenize`, `tagger::tag` and
//!   `depparse::parse_tokens` (what `analyze_html` runs), so the policy
//!   stage splits into HTML, NLP and the pattern remainder;
//! * an `ArtifactTier` replay of the report payloads into a scratch
//!   store.
//!
//! The engine counters (`busy_frac`, cache hit rates, ESA) come from the
//! workload's own engine passes: [`engine_metrics`].

use crate::common::Pass;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use ppchecker_core::{encode_report, AppInput, CheckRequest, PPChecker};
use ppchecker_engine::StoreSummary;
use ppchecker_policy::PolicyAnalysis;
use ppchecker_static::{AnalysisOptions, Apg, TaintSummaryCache};
use ppchecker_store::{content_hash, ArtifactTier, RecordKind, Store};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Report payloads replayed through the scratch store.
const STORE_REPLAY: usize = 300;

/// Per-layer metrics by name.
pub type Metrics = BTreeMap<String, f64>;

/// Sets one metric.
pub fn put(out: &mut Metrics, name: &str, value: f64) {
    out.insert(name.to_string(), value);
}

fn frac(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn q(values: &[f64], p: f64) -> f64 {
    quantile(values, p).unwrap_or(0.0)
}

fn total_s(tracer: &Tracer, name: &str) -> f64 {
    tracer.durations_us(name).iter().sum::<f64>() / 1e6
}

/// Engine-level numbers over the workload's passes: residency quantiles,
/// worker busy fraction (Σ stage time ÷ (wall × jobs)), and the cache
/// and ESA counters from each pass's `MetricsSummary`.
pub fn engine_metrics(passes: &[&Pass], out: &mut Metrics) {
    let residency: Vec<f64> = passes.iter().flat_map(|p| p.residency_us.iter().copied()).collect();
    put(out, "engine.residency_us.p50", q(&residency, 0.5));
    put(out, "engine.residency_us.p99", q(&residency, 0.99));
    let (mut busy, mut capacity) = (0.0, 0.0);
    let (mut policy, mut vectors, mut pairs) = ([0u64; 2], [0u64; 2], [0u64; 2]);
    let mut pruned = 0;
    for p in passes {
        let m = &p.summary.metrics;
        busy += m.stage_totals.total().as_secs_f64();
        capacity += p.wall_s * m.jobs as f64;
        policy = [policy[0] + m.policy_cache.hits, policy[1] + m.policy_cache.misses];
        vectors = [vectors[0] + m.esa_cache.hits, vectors[1] + m.esa_cache.misses];
        pairs = [pairs[0] + m.esa_pair_memo.hits, pairs[1] + m.esa_pair_memo.misses];
        pruned += m.esa_pruned;
    }
    put(out, "engine.busy_frac", if capacity > 0.0 { busy / capacity } else { 0.0 });
    put(out, "engine.policy_cache.hit_frac", frac(policy[0], policy[1]));
    put(out, "esa.vector_cache.hit_frac", frac(vectors[0], vectors[1]));
    put(out, "esa.pair_memo.hit_frac", frac(pairs[0], pairs[1]));
    put(out, "esa.pruned", pruned as f64);
    put(out, "esa.vector_builds", vectors[1] as f64);
}

/// The store counters of a workload (all zero without a store).
pub fn store_metrics(s: &StoreSummary, disk_mb: f64, out: &mut Metrics) {
    let kinds =
        [("policy", &s.policies), ("lib_summary", &s.lib_summaries), ("report", &s.reports)];
    for (kind, stats) in kinds {
        for (what, n) in [
            ("hits", stats.hits),
            ("misses", stats.misses),
            ("writes", stats.writes),
            ("corrupt", stats.corrupt),
        ] {
            put(out, &format!("store.{what}.{kind}"), n as f64);
        }
    }
    put(out, "store.replayed", s.apps_skipped as f64);
    put(out, "store.disk_mb", disk_mb);
}

/// Runs the per-app and per-policy replays over `apps` and the store
/// replay under `work`, adding their numbers to `out`.
pub fn suite(
    apps: &[AppInput],
    libs: &[(String, String)],
    work: &Path,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let checker: PPChecker = crate::common::oracle(libs);
    let static_cache = TaintSummaryCache::new();
    let mut analyses: HashMap<u64, Arc<PolicyAnalysis>> = HashMap::new();
    let mut distinct: Vec<(u64, &str)> = Vec::new();
    let (mut in_check, mut matching) = (0.0, 0.0);
    let mut fallback = 0usize;
    let mut payloads = Vec::new();
    let mut report_bytes = Vec::new();
    let mut json_bytes = Vec::new();

    for (i, app) in apps.iter().enumerate() {
        let id = i as u64;
        let app_span = tracer.begin("app", id, None);
        let check_span = tracer.begin("core.check", id, app_span.index());
        let outcome = checker.check(
            CheckRequest::builder(app)
                .policy_provider(|analyzer, html| {
                    let key = content_hash(html.as_bytes());
                    if let Some(hit) = analyses.get(&key) {
                        return Arc::clone(hit);
                    }
                    let span = tracer.begin("policy.analyze", id, check_span.index());
                    let analysis = Arc::new(analyzer.analyze_html(html));
                    tracer.end(span);
                    distinct.push((id, &app.policy_html));
                    analyses.insert(key, Arc::clone(&analysis));
                    analysis
                })
                .capture_timings()
                .build(),
        );
        tracer.end(check_span);
        tracer.end(app_span);
        let Ok(outcome) = outcome else { continue };
        let timings = outcome.timings.unwrap_or_default();
        in_check += (timings.description + timings.static_analysis).as_secs_f64();
        matching += timings.matching.as_secs_f64();

        let span = tracer.begin("desc.analyze", id, None);
        black_box(ppchecker_desc::analyze_description_with(
            &app.description,
            ppchecker_esa::Interpreter::shared(),
        ));
        tracer.end(span);

        let span = tracer.begin("static.apg_build", id, None);
        let apg = Apg::build(&app.apk);
        tracer.end(span);
        fallback += usize::from(apg.is_ok_and(|g| g.has_duplicate_methods()));

        let span = tracer.begin("static.analyze", id, None);
        black_box(ppchecker_static::analyze_with_cache(
            &app.apk,
            AnalysisOptions::default(),
            Some(&static_cache),
        ))
        .ok();
        tracer.end(span);

        let span = tracer.begin("wire.report_encode", id, None);
        let encoded = encode_report(&outcome.report);
        tracer.end(span);
        let span = tracer.begin("wire.json_encode", id, None);
        let json = ppchecker_serve::json::report_to_json(&outcome.report);
        tracer.end(span);
        report_bytes.push(encoded.len() as f64);
        json_bytes.push(json.len() as f64);
        if payloads.len() < STORE_REPLAY {
            payloads.push(encoded);
        }
    }

    let (sentences, tokens) = replay_policies(&distinct, tracer);
    let analyze = tracer.durations_us("policy.analyze");
    let policy_s = analyze.iter().sum::<f64>() / 1e6;
    put(out, "policy.analyze_s", policy_s);
    put(out, "policy.analyze_us.p50", q(&analyze, 0.5));
    put(out, "policy.analyze_us.p99", q(&analyze, 0.99));
    let mut nlp_s = 0.0;
    for (metric, span) in [
        ("html.extract_s", "html.extract"),
        ("nlp.split_s", "nlp.split"),
        ("nlp.tokenize_s", "nlp.tokenize"),
        ("nlp.tag_s", "nlp.tag"),
        ("nlp.parse_s", "nlp.parse"),
    ] {
        let s = total_s(tracer, span);
        nlp_s += s;
        put(out, metric, s);
    }
    put(out, "policy.patterns_s", (policy_s - nlp_s).max(0.0));
    put(out, "nlp.sentences", sentences as f64);
    put(out, "nlp.tokens", tokens as f64);
    put(out, "desc.analyze_s", total_s(tracer, "desc.analyze"));
    let static_us = tracer.durations_us("static.analyze");
    put(out, "static.analyze_s", static_us.iter().sum::<f64>() / 1e6);
    put(out, "static.analyze_us.p50", q(&static_us, 0.5));
    put(out, "static.analyze_us.p99", q(&static_us, 0.99));
    put(out, "static.apg_build_s", total_s(tracer, "static.apg_build"));
    put(out, "static.taint_summary.hit_frac", frac(static_cache.hits(), static_cache.misses()));
    put(out, "static.ref_fallback_apps", fallback as f64);
    put(out, "core.matching_s", matching);
    put(out, "wire.report_encode_us.p50", q(&tracer.durations_us("wire.report_encode"), 0.5));
    put(out, "wire.json_encode_us.p50", q(&tracer.durations_us("wire.json_encode"), 0.5));
    put(out, "wire.report_bytes", median(&report_bytes).unwrap_or(0.0));
    put(out, "wire.json_bytes", median(&json_bytes).unwrap_or(0.0));

    // Share of the checker's busy time that lands on a named stage: the
    // policy stage as timed through the hook, the others as the checker
    // timed them.
    let busy = total_s(tracer, "core.check");
    let named = policy_s + in_check + matching;
    put(out, "trace.attributed_frac", if busy > 0.0 { (named / busy).min(1.0) } else { 0.0 });

    replay_store(&payloads, &work.join("replay-store"), tracer, out);
}

/// Replays the policy stage's HTML and NLP steps on each distinct
/// policy, skipping disclaimer sentences as the analyzer does. Returns
/// the sentences and tokens processed.
fn replay_policies(distinct: &[(u64, &str)], tracer: &mut Tracer) -> (usize, usize) {
    use ppchecker_nlp::{depparse, tagger, token};
    let (mut sentences, mut tokens) = (0, 0);
    for &(id, html) in distinct {
        let root = tracer.begin("policy.replay", id, None);
        let parent = root.index();
        let span = tracer.begin("html.extract", id, parent);
        let text = ppchecker_policy::html::extract_text(html);
        tracer.end(span);
        let span = tracer.begin("nlp.split", id, parent);
        let split = ppchecker_nlp::split_sentences(&text);
        tracer.end(span);
        let kept: Vec<&String> =
            split.iter().filter(|s| !ppchecker_policy::disclaimer::is_disclaimer(s)).collect();
        let span = tracer.begin("nlp.tokenize", id, parent);
        let mut toks: Vec<_> = kept.iter().map(|s| token::tokenize(s)).collect();
        tracer.end(span);
        let span = tracer.begin("nlp.tag", id, parent);
        for t in &mut toks {
            tagger::tag(t);
        }
        tracer.end(span);
        sentences += toks.len();
        tokens += toks.iter().map(Vec::len).sum::<usize>();
        let span = tracer.begin("nlp.parse", id, parent);
        for t in toks {
            black_box(depparse::parse_tokens(t));
        }
        tracer.end(span);
        tracer.end(root);
    }
    (sentences, tokens)
}

/// Saves then loads each payload through a fresh store's `ArtifactTier`
/// face, timing each call.
fn replay_store(payloads: &[Vec<u8>], dir: &Path, tracer: &mut Tracer, out: &mut Metrics) {
    let _ = std::fs::remove_dir_all(dir);
    let Ok(store) = Store::open(dir) else {
        return;
    };
    let tier: &dyn ArtifactTier = &store;
    let keys: Vec<u64> = payloads.iter().map(|p| content_hash(p)).collect();
    for (i, (key, payload)) in keys.iter().zip(payloads).enumerate() {
        let span = tracer.begin("store.save", i as u64, None);
        tier.save(RecordKind::Report, *key, payload);
        tracer.end(span);
    }
    for (i, key) in keys.iter().enumerate() {
        let span = tracer.begin("store.load", i as u64, None);
        black_box(tier.load(RecordKind::Report, *key));
        tracer.end(span);
    }
    let save = tracer.durations_us("store.save");
    let load = tracer.durations_us("store.load");
    put(out, "store.save_us.p50", q(&save, 0.5));
    put(out, "store.save_us.p99", q(&save, 0.99));
    put(out, "store.load_us.p50", q(&load, 0.5));
    put(out, "store.load_us.p99", q(&load, 0.99));
    let _ = std::fs::remove_dir_all(dir);
}
