//! One end-to-end benchmark for ppchecker: the `stream`, `reaudit` and
//! `serve` workloads, with a traced per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. The process is an orchestrator: it
//! computes the expected outputs, then runs the workload in fresh child
//! processes (the ESA interpreter and the interner are process-wide
//! singletons, so each repetition needs its own process) until the
//! children have measured `--seconds` seconds. Each child generates its
//! inputs before any timing, sets up (timed as `setup_s`), runs the
//! timed region, and reports back. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the metrics —
//! the end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `perfbench/README.md`.

mod client;
mod common;
mod gate;
mod layers;
mod metrics;
mod reaudit;
mod serve;
mod stats;
mod stream;
mod trace;

use common::ChildReport;
use layers::Metrics;
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trace::Tracer;

/// Fewest untraced children whose medians a run reports.
const MIN_CHILDREN: usize = 3;
/// Fewest children on each side of a traced run.
const MIN_TRACE_PAIRS: usize = 2;
/// `serve` children per untraced run; each drives the daemon for an
/// equal share of `--seconds`.
const SERVE_CHILDREN: f64 = 5.0;
/// No new child starts after this much wall time.
const MAX_WALL: Duration = Duration::from_secs(45);
/// A child during which the hypervisor stole more than this share of the
/// VM's CPU time measured the host, not the program: it is gated and
/// counted, but its timings are left out while clean children remain.
const STEAL_LIMIT: f64 = 0.02;
/// A child running longer than this is killed and the run fails.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Client phase of the serve probe in traced `stream`/`reaudit` runs.
const PROBE: Duration = Duration::from_secs(1);
/// Every `SAMPLE_STRIDE`-th app of a workload feeds the traced layer
/// replay.
const SAMPLE_STRIDE: usize = 13;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Stream,
    Reaudit,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "stream" => Some(Workload::Stream),
            "reaudit" => Some(Workload::Reaudit),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Reaudit => "reaudit",
            Workload::Serve => "serve",
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: where to write the report.
    child_out: Option<PathBuf>,
    /// Child scratch directory.
    work: Option<PathBuf>,
    /// Child measurement budget (serve's client phase).
    budget: Duration,
    /// Where a traced child writes its spans.
    trace_file: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Stream,
        seed: 0,
        seconds: 10.0,
        trace: false,
        child_out: None,
        work: None,
        budget: Duration::from_secs(1),
        trace_file: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child-out" => args.child_out = Some(PathBuf::from(value()?)),
            "--work" => args.work = Some(PathBuf::from(value()?)),
            "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
            "--budget-ms" => {
                let ms: u64 = value()?.parse().map_err(|_| "bad --budget-ms".to_string())?;
                args.budget = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required (stream, reaudit or serve)")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <stream|reaudit|serve> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match &args.child_out {
        Some(out) => child(&args, out),
        None => parent(&args),
    }
}

// ---------------------------------------------------------------- child

fn sample<T: Clone>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    items.into_iter().step_by(SAMPLE_STRIDE).collect()
}

/// A serve probe for the traced runs of workloads without a daemon:
/// boots one over `apps` and drives it for [`PROBE`].
fn serve_probe(
    apps: Vec<ppchecker_core::AppInput>,
    libs: &[(String, String)],
    seed: u64,
    tracer: &mut Tracer,
    report: &mut ChildReport,
    layer: &mut Metrics,
) {
    let mut inputs = serve::Inputs::new(apps, usize::MAX);
    let session = serve::session(&mut inputs, libs, seed, PROBE, tracer);
    serve::layer_metrics(&session, layer);
    report.value("mismatches", session.mismatches.len() as f64);
}

fn child(args: &Args, out: &Path) -> ExitCode {
    let work = args.work.clone().unwrap_or_else(|| PathBuf::from(".perfbench").join("child"));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ticks = common::cpu_ticks();
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let mut layer = Metrics::new();
    let libs = common::lib_policies();
    let no_store = ppchecker_engine::StoreSummary::default();
    let mut report = match args.workload {
        Workload::Stream => {
            let size = stream::Size::FULL;
            let (mut r, pass) = stream::child(args.seed, size, &mut tracer);
            if args.trace {
                layers::engine_metrics(&[&pass], &mut layer);
                layers::store_metrics(&no_store, 0.0, &mut layer);
                let apps =
                    sample(ppchecker_corpus::stream_scaled(args.seed, size.apps).map(|g| g.input));
                layers::suite(&apps, &libs, &work, &mut tracer, &mut layer);
                serve_probe(apps, &libs, args.seed, &mut tracer, &mut r, &mut layer);
            }
            r
        }
        Workload::Reaudit => {
            let size = reaudit::Size::FULL;
            let (mut r, run) = reaudit::child(args.seed, size, &work, &mut tracer);
            if args.trace {
                let passes: Vec<&common::Pass> = run.passes.iter().collect();
                layers::engine_metrics(&passes, &mut layer);
                layers::store_metrics(&run.store, run.disk_mb, &mut layer);
                let mut versions = reaudit::inputs(args.seed, size);
                let apps = sample(versions.swap_remove(0));
                layers::suite(&apps, &libs, &work, &mut tracer, &mut layer);
                serve_probe(apps, &libs, args.seed, &mut tracer, &mut r, &mut layer);
            }
            r
        }
        Workload::Serve => {
            let (mut r, session) = serve::child(args.seed, args.budget, &mut tracer);
            r.value("mismatches", session.mismatches.len() as f64);
            if args.trace {
                layers::engine_metrics(&[&session.boot], &mut layer);
                layers::store_metrics(&no_store, 0.0, &mut layer);
                let apps = sample(
                    ppchecker_corpus::stream_scaled(args.seed, serve::APPS).map(|g| g.input),
                );
                layers::suite(&apps, &libs, &work, &mut tracer, &mut layer);
                serve::layer_metrics(&session, &mut layer);
            }
            r
        }
    };
    if args.trace {
        layer.insert("trace.spans".to_string(), tracer.spans().len() as f64);
        print_self_times(args.workload, &tracer);
        if let Some(path) = &args.trace_file {
            if let Err(e) = tracer.write_json(path) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
            }
        }
    }
    for (name, value) in layer {
        report.value(&name, value);
    }
    report.value("steal_frac", common::steal_since(ticks));
    match std::fs::write(out, report.to_text()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

fn print_self_times(workload: Workload, tracer: &Tracer) {
    let mut totals: Vec<(&str, f64)> = tracer.self_seconds().into_iter().collect();
    totals.sort_by(|a, b| b.1.total_cmp(&a.1));
    eprintln!("perfbench: {} traced child, self time per span:", workload.name());
    for (name, secs) in totals {
        let count = tracer.spans().iter().filter(|s| s.name == name).count();
        eprintln!("  {name:<32} {count:>8} spans {:>12.3} ms", secs * 1e3);
    }
}

// --------------------------------------------------------------- parent

/// Runs one child and returns its report.
fn run_child(
    args: &Args,
    work: &Path,
    rep: usize,
    traced: bool,
    trace_dir: &Path,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let out = work.join(format!("child-{rep}.txt"));
    let child_work = work.join(format!("child-{rep}"));
    let budget_ms = (args.seconds / SERVE_CHILDREN * 1e3).max(1e3) as u64;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--budget-ms", &budget_ms.to_string()])
        .arg("--child-out")
        .arg(&out)
        .arg("--work")
        .arg(&child_work)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        let file = trace_dir.join(format!("{}-seed{}-{rep}.json", args.workload.name(), args.seed));
        cmd.arg("--trace-file").arg(file);
    }
    let mut process = cmd.spawn().map_err(|e| format!("cannot start child: {e}"))?;
    let started = Instant::now();
    let status = loop {
        match process.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = process.kill();
                let _ = process.wait();
                return Err(format!("child {rep} timed out after {CHILD_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(format!("cannot wait for child {rep}: {e}")),
        }
    };
    let _ = std::fs::remove_dir_all(&child_work);
    if !status.success() {
        return Err(format!("child {rep} failed: {status}"));
    }
    let text = std::fs::read_to_string(&out).map_err(|e| format!("child {rep} report: {e}"))?;
    ChildReport::parse(&text)
}

fn expected(args: &Args) -> Vec<u64> {
    match args.workload {
        Workload::Stream => stream::expected(args.seed, stream::Size::FULL),
        Workload::Reaudit => reaudit::expected(args.seed, reaudit::Size::FULL),
        Workload::Serve => Vec::new(),
    }
}

fn check(
    args: &Args,
    expected: &[u64],
    first: Option<&ChildReport>,
    r: &ChildReport,
) -> Result<(), String> {
    match args.workload {
        Workload::Stream => gate::stream(expected, first, r)?,
        Workload::Reaudit => gate::reaudit(expected, r)?,
        Workload::Serve => {}
    }
    // Every traced child also verifies its serve probe's bodies.
    gate::serve(r)
}

fn pooled(reports: &[&ChildReport], key: &str) -> Vec<f64> {
    reports.iter().flat_map(|r| r.samples.get(key).into_iter().flatten().copied()).collect()
}

/// A rate pooled over children: total work over total time.
fn pooled_rate(reports: &[&ChildReport], key: &str) -> f64 {
    let sum = |part: &str| reports.iter().map(|r| r.get(&format!("{key}.{part}"))).sum::<f64>();
    sum("n") / sum("s")
}

fn median_of(reports: &[&ChildReport], key: &str) -> f64 {
    median(&reports.iter().map(|r| r.get(key)).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The workload's headline for the tracing-overhead comparison:
/// throughput for the batch workloads, keep-alive p50 for `serve`.
fn headline(workload: Workload, reports: &[&ChildReport]) -> f64 {
    match workload {
        Workload::Serve => quantile(&pooled(reports, "req_ms"), 0.5).unwrap_or(0.0),
        _ => pooled_rate(reports, "apps_per_s"),
    }
}

fn end_to_end(untraced: &[&ChildReport], attempted: f64, failed: f64) -> Metrics {
    let mut m = Metrics::new();
    for key in ["setup_s", "rss_growth_mb"] {
        m.insert(key.to_string(), median_of(untraced, key));
    }
    for key in ["apps_per_s", "cold_apps_per_s", "req_per_s"] {
        m.insert(key.to_string(), pooled_rate(untraced, key));
    }
    let req = pooled(untraced, "req_ms");
    let conn = pooled(untraced, "conn_req_ms");
    m.insert("req_p50_ms".to_string(), quantile(&req, 0.5).unwrap_or(0.0));
    m.insert("req_p90_ms".to_string(), quantile(&req, 0.9).unwrap_or(0.0));
    m.insert("conn_req_p50_ms".to_string(), quantile(&conn, 0.5).unwrap_or(0.0));
    m.insert("conn_req_p90_ms".to_string(), quantile(&conn, 0.9).unwrap_or(0.0));
    m.insert("succeeded_frac".to_string(), 1.0 - failed / attempted.max(1.0));
    eprintln!(
        "perfbench: {} untraced children; req p90 rests on {} of {} samples, conn_req p90 on {} of {}",
        untraced.len(),
        stats::beyond(&req, 0.9),
        req.len(),
        stats::beyond(&conn, 0.9),
        conn.len()
    );
    m
}

fn per_layer(workload: Workload, untraced: &[&ChildReport], traced: &[&ChildReport]) -> Metrics {
    let mut m = Metrics::new();
    for (name, _) in metrics::PER_LAYER {
        m.insert(name.to_string(), median_of(traced, name));
    }
    let (plain, with) = (headline(workload, untraced), headline(workload, traced));
    let overhead = match workload {
        // Latency: positive when tracing makes requests slower.
        Workload::Serve => (with - plain) / plain,
        // Throughput: positive when tracing makes the run slower.
        _ => (plain - with) / plain,
    };
    m.insert("trace.overhead_frac".to_string(), if overhead.is_finite() { overhead } else { 0.0 });
    eprintln!(
        "perfbench: tracing overhead: headline {plain:.4} untraced vs {with:.4} traced ({:+.2}%)",
        overhead * 100.0
    );
    m
}

fn print_result(
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: &Metrics,
    catalogue: &[(&str, &str)],
) {
    let mut body = Vec::new();
    for (name, unit) in catalogue {
        let value = metrics.get(*name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<36} {value:>16.6} {unit}");
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted as u64,
        failed as u64,
        body.join(", ")
    );
}

/// The reports whose timings a run uses, traced or not: the children the
/// hypervisor left alone, or, when too few were, the least disturbed.
fn timed(reports: &[(bool, ChildReport)], traced: bool) -> Vec<&ChildReport> {
    let mut side: Vec<&ChildReport> =
        reports.iter().filter(|(t, _)| *t == traced).map(|(_, r)| r).collect();
    let clean = side.iter().filter(|r| r.get("steal_frac") <= STEAL_LIMIT).count();
    let least = if traced { MIN_TRACE_PAIRS } else { MIN_CHILDREN };
    if clean < least.min(side.len()) {
        eprintln!(
            "perfbench: only {clean} of {} children ran without CPU steal; using the {} least \
             disturbed",
            side.len(),
            least.min(side.len())
        );
    }
    side.sort_by(|a, b| a.get("steal_frac").total_cmp(&b.get("steal_frac")));
    side.truncate(clean.max(least));
    side
}

fn parent(args: &Args) -> ExitCode {
    let root = match std::env::current_dir() {
        Ok(dir) => dir.join(".perfbench"),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = root.join(format!("work-{}", std::process::id()));
    let trace_dir = root.join("traces");
    if let Err(e) =
        std::fs::create_dir_all(&work).and_then(|()| std::fs::create_dir_all(&trace_dir))
    {
        eprintln!("perfbench: cannot create {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    let started = Instant::now();
    let expected = expected(args);
    eprintln!(
        "perfbench: {} seed {}: expected outputs ready in {:.2?}",
        args.workload.name(),
        args.seed,
        started.elapsed()
    );

    let target = if args.trace { args.seconds / 2.0 } else { args.seconds };
    let mut reports: Vec<(bool, ChildReport)> = Vec::new();
    let mut failures = Vec::new();
    let mut measured = 0.0;
    for rep in 0.. {
        let traced = args.trace && rep % 2 == 1;
        let report = match run_child(args, &work, rep, traced, &trace_dir) {
            Ok(report) => report,
            Err(message) => {
                failures.push(message);
                break;
            }
        };
        let first = reports.first().map(|(_, r)| r);
        if let Err(message) = check(args, &expected, first, &report) {
            failures.push(message);
        }
        let clean = report.get("steal_frac") <= STEAL_LIMIT;
        if !traced && clean {
            measured += report.get("measured_s");
        }
        eprintln!(
            "perfbench: child {rep}{}: setup {:.4} s, {:.1} apps/s, cold {:.1} apps/s, \
             {:.1} req/s, {:.1}% CPU stolen{}",
            if traced { " (traced)" } else { "" },
            report.get("setup_s"),
            report.get("apps_per_s"),
            report.get("cold_apps_per_s"),
            report.get("req_per_s"),
            report.get("steal_frac") * 100.0,
            if clean { "" } else { " (timings left out)" },
        );
        reports.push((traced, report));
        let counted = |t: bool| {
            reports.iter().filter(|(tr, r)| *tr == t && r.get("steal_frac") <= STEAL_LIMIT).count()
        };
        let (untraced, traced_n) = (counted(false), counted(true));
        let enough = if args.trace {
            untraced >= MIN_TRACE_PAIRS && traced_n >= MIN_TRACE_PAIRS && measured >= target
        } else {
            untraced >= MIN_CHILDREN && measured >= target
        };
        if enough || started.elapsed() > MAX_WALL {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&work);

    let untraced = timed(&reports, false);
    let traced = timed(&reports, true);
    let attempted: f64 = reports.iter().map(|(_, r)| r.get("attempted")).sum();
    let failed: f64 = reports.iter().map(|(_, r)| r.get("failed")).sum();
    for message in &failures {
        eprintln!("perfbench: FAILED: {message}");
    }
    if untraced.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!("perfbench: no complete run to report");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "perfbench: {} seed {}: {} children in {:.1?}, {attempted} attempted, {failed} failed",
        args.workload.name(),
        args.seed,
        reports.len(),
        started.elapsed()
    );
    let correct = failures.is_empty();
    if args.trace {
        print_result(
            correct,
            attempted,
            failed,
            &per_layer(args.workload, &untraced, &traced),
            metrics::PER_LAYER,
        );
    } else {
        print_result(
            correct,
            attempted,
            failed,
            &end_to_end(&untraced, attempted, failed),
            metrics::END_TO_END,
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
