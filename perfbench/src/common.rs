//! Pieces every workload shares: engine construction, the oracle
//! checker, one timed engine pass, record digests, process memory and
//! the child-report format.

use crate::stats::Digest;
use crate::trace::Tracer;
use ppchecker_core::{encode_report, AppInput, PPChecker};
use ppchecker_engine::{AppOutcome, AppRecord, Engine, StreamSummary};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Worker threads for every engine and daemon: one per hardware thread.
pub fn jobs() -> usize {
    ppchecker_engine::available_jobs()
}

/// The corpus's third-party lib policies as `(lib id, html)` pairs.
pub fn lib_policies() -> Vec<(String, String)> {
    ppchecker_corpus::libs::lib_policies()
        .into_iter()
        .map(|lp| (lp.lib.id.to_string(), lp.html))
        .collect()
}

/// An engine with every lib policy registered, at `jobs()` workers.
pub fn engine(libs: &[(String, String)]) -> Engine {
    Engine::with_lib_policies(PPChecker::new(), libs.iter().cloned()).with_jobs(jobs())
}

/// Initializes the process-wide singletons (ESA interpreter, interner)
/// so that set-up pays for them instead of the first timed app.
pub fn warm_singletons() {
    std::hint::black_box(ppchecker_esa::Interpreter::shared().concept_count());
    std::hint::black_box(ppchecker_nlp::Interner::global().stats());
}

/// The reference checker the engine's output is compared against: a
/// fresh `PPChecker` with the same lib policies, no caches, no engine.
pub fn oracle(libs: &[(String, String)]) -> PPChecker {
    let mut checker = PPChecker::new();
    for (id, html) in libs {
        checker.register_lib_policy(id, html);
    }
    checker
}

/// The bytes a record is compared by: the package plus the binary
/// report encoding, or the error text for an error record.
pub fn record_bytes(package: &str, outcome: &Result<&ppchecker_core::Report, String>) -> Vec<u8> {
    let mut bytes = package.as_bytes().to_vec();
    bytes.push(0);
    match outcome {
        Ok(report) => bytes.extend_from_slice(&encode_report(report)),
        Err(error) => {
            bytes.extend_from_slice(b"error:");
            bytes.extend_from_slice(error.as_bytes());
        }
    }
    bytes
}

/// [`record_bytes`] of one engine record.
pub fn engine_record_bytes(record: &AppRecord) -> Vec<u8> {
    let outcome = match &record.outcome {
        AppOutcome::Report(report) => Ok(report),
        AppOutcome::Error(error) => Err(error.to_string()),
    };
    record_bytes(&record.package, &outcome)
}

/// [`record_bytes`] of one oracle check.
pub fn oracle_record_bytes(checker: &PPChecker, app: &AppInput) -> Vec<u8> {
    let outcome = checker.check_app(app).map_err(|e| e.to_string());
    record_bytes(&app.package, &outcome.as_ref().map(|o| &o.report).map_err(Clone::clone))
}

/// What one timed [`Engine::run_streamed`] pass observed.
#[derive(Debug)]
pub struct Pass {
    /// Wall time of the call.
    pub wall_s: f64,
    /// Per app: time from the input iterator yielding it to its record
    /// reaching the sink, in µs, in record order.
    pub residency_us: Vec<f64>,
    /// Digest of every record's bytes, in order.
    pub digest: u64,
    /// Digests of the records whose index is a multiple of the pass's
    /// stride, in index order.
    pub sampled: Vec<u64>,
    /// Error records.
    pub errors: usize,
    /// The engine's own summary of the run.
    pub summary: StreamSummary,
}

/// Streams `apps` through `engine` once, timing each app's residency.
/// Records at indices that are multiples of `stride` are digested
/// individually (`stride == 0` digests none). With an enabled tracer
/// the pass and each app's residency are recorded as spans under `id`.
pub fn pass(
    engine: &Engine,
    apps: Vec<AppInput>,
    stride: usize,
    tracer: &mut Tracer,
    id: u64,
) -> Pass {
    let base = Instant::now();
    let yields: Vec<AtomicU64> = (0..apps.len()).map(|_| AtomicU64::new(0)).collect();
    let mut arrivals = vec![0u64; apps.len()];
    let mut digest = Digest::default();
    let mut sampled = Vec::new();
    let mut errors = 0;
    let started = Instant::now();
    let summary = engine.run_streamed(
        apps.into_iter().enumerate().map(|(i, app)| {
            yields[i].store(base.elapsed().as_nanos() as u64, Ordering::Relaxed);
            app
        }),
        |record| {
            arrivals[record.index] = base.elapsed().as_nanos() as u64;
            let bytes = engine_record_bytes(&record);
            digest.push(&bytes);
            if stride > 0 && record.index % stride == 0 {
                sampled.push(crate::stats::digest_of(&bytes));
            }
            if record.error().is_some() {
                errors += 1;
            }
        },
    );
    let ended = Instant::now();
    let wall_s = ended.duration_since(started).as_secs_f64();
    let residency_us: Vec<f64> = yields
        .iter()
        .zip(&arrivals)
        .map(|(y, &a)| a.saturating_sub(y.load(Ordering::Relaxed)) as f64 / 1e3)
        .collect();
    if tracer.enabled() {
        let run = tracer.record("engine.run_streamed", id, None, started, ended).index();
        for (i, (y, &a)) in yields.iter().zip(&arrivals).enumerate() {
            let at = |ns: u64| base + std::time::Duration::from_nanos(ns);
            tracer.record("engine.residency", i as u64, run, at(y.load(Ordering::Relaxed)), at(a));
        }
    }
    Pass { wall_s, residency_us, digest: digest.value(), sampled, errors, summary }
}

/// Resident set size of this process, in KiB, from `/proc/self/status`
/// (`VmRSS`, or the peak with `VmHWM`); 0 where unavailable.
pub fn rss_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Peak RSS growth since `before_kb`, in MB (MiB).
pub fn rss_growth_mb(before_kb: u64) -> f64 {
    rss_kb("VmHWM:").saturating_sub(before_kb) as f64 / 1024.0
}

/// CPU time stolen by the hypervisor and total CPU time, in ticks, over
/// all CPUs since boot (`/proc/stat`); `None` where unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of all CPU time the hypervisor stole since `before` (from
/// [`cpu_ticks`]); 0 where unavailable.
pub fn steal_since(before: Option<(u64, u64)>) -> f64 {
    match (before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Everything one child process measured, as named scalars, sample
/// vectors and 64-bit words (digests, counts). Serialized as lines of
/// text between the child and the parent.
#[derive(Debug, Default, Clone)]
pub struct ChildReport {
    /// Named scalar measurements.
    pub values: BTreeMap<String, f64>,
    /// Named sample vectors (latencies), pooled across children.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Named word vectors (digests and exact counts) for the gates.
    pub words: BTreeMap<String, Vec<u64>>,
}

impl ChildReport {
    /// Sets one scalar.
    pub fn value(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Sets one sample vector.
    pub fn samples(&mut self, name: &str, v: Vec<f64>) {
        self.samples.insert(name.to_string(), v);
    }

    /// Sets one word vector.
    pub fn words(&mut self, name: &str, v: Vec<u64>) {
        self.words.insert(name.to_string(), v);
    }

    /// Sets a rate: `count / seconds` under `name`, plus its parts as
    /// `name.n` and `name.s` so the parent can pool it across children.
    pub fn rate(&mut self, name: &str, count: f64, seconds: f64) {
        self.value(name, count / seconds);
        self.value(&format!("{name}.n"), count);
        self.value(&format!("{name}.s"), seconds);
    }

    /// A scalar, or 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The line format: `v name x`, `s name x y ..`, `w name a b ..`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            let _ = writeln!(out, "v {k} {v}");
        }
        for (k, vs) in &self.samples {
            let _ = write!(out, "s {k}");
            for v in vs {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        for (k, ws) in &self.words {
            let _ = write!(out, "w {k}");
            for w in ws {
                let _ = write!(out, " {w}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses [`ChildReport::to_text`].
    pub fn parse(text: &str) -> Result<ChildReport, String> {
        let mut report = ChildReport::default();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut parts = line.split(' ');
            let (Some(kind), Some(name)) = (parts.next(), parts.next()) else {
                return Err(format!("bad report line {line:?}"));
            };
            let bad = || format!("bad number in report line {line:?}");
            match kind {
                "v" => {
                    let v = parts.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
                    report.value(name, v);
                }
                "s" => {
                    let vs: Result<Vec<f64>, _> = parts.map(str::parse).collect();
                    report.samples(name, vs.map_err(|_| bad())?);
                }
                "w" => {
                    let ws: Result<Vec<u64>, _> = parts.map(str::parse).collect();
                    report.words(name, ws.map_err(|_| bad())?);
                }
                _ => return Err(format!("bad report line {line:?}")),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips() {
        let mut r = ChildReport::default();
        r.value("apps_per_s", 12345.678);
        r.samples("req_ms", vec![0.25, 1.5]);
        r.words("digest", vec![u64::MAX, 7]);
        r.samples("empty", Vec::new());
        let back = ChildReport::parse(&r.to_text()).expect("parses");
        assert_eq!(back.values, r.values);
        assert_eq!(back.samples, r.samples);
        assert_eq!(back.words, r.words);
    }
}
