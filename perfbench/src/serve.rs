//! The `serve` workload: an in-process daemon on loopback, booted warm
//! over a working set of scale-corpus apps, driven by two closed-loop
//! clients — one keep-alive connection and one fresh connection per
//! request — for a fixed duration.
//!
//! Every request hits the daemon's policy cache, so analysis is a small
//! share of each request and the transport dominates. The fresh
//! connection client exercises the accept path that keep-alive skips.

use crate::client::{self, KeepAlive, Response};
use crate::common::{self, ChildReport};
use crate::stats::{beyond, digest_of, quantile};
use crate::trace::Tracer;
use ppchecker_core::AppInput;
use ppchecker_serve::json::{self, Value};
use ppchecker_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

/// Apps the clients request: the daemon's working set.
pub const APPS: usize = 6000;

/// Apps the daemon warm-boots over: the working set and the apps after
/// it. The boot pass is what `cold_apps_per_s` times, and a longer pass
/// times it more steadily without holding more request bodies.
pub const BOOT_APPS: usize = 16_000;

/// The boot apps, and the working set pre-encoded: wire bodies and both
/// request shapes.
pub struct Inputs {
    boot: Vec<AppInput>,
    packages: Vec<String>,
    bodies: Vec<String>,
    keepalive: Vec<Vec<u8>>,
    close: Vec<Vec<u8>>,
}

impl Inputs {
    /// Boots over `boot` and encodes its first `requests` apps for the
    /// wire. Apps whose dex cannot be rendered as wire text are left out
    /// of the requests, so no request is malformed.
    pub fn new(boot: Vec<AppInput>, requests: usize) -> Inputs {
        let wire: Vec<&AppInput> =
            boot.iter().take(requests).filter(|a| a.apk.dex().is_ok()).collect();
        let packages = wire.iter().map(|a| a.package.clone()).collect();
        let bodies: Vec<String> = wire.into_iter().map(json::app_to_json).collect();
        let keepalive = bodies.iter().map(|b| client::check_request(b, false)).collect();
        let close = bodies.iter().map(|b| client::check_request(b, true)).collect();
        Inputs { boot, packages, bodies, keepalive, close }
    }

    /// The workload's inputs for `seed`.
    pub fn generate(seed: u64, boot: usize, requests: usize) -> Inputs {
        let apps = ppchecker_corpus::stream_scaled(seed, boot).map(|g| g.input).collect();
        Inputs::new(apps, requests)
    }
}

/// A seeded request order (splitmix64 over the working set).
struct Order {
    state: u64,
    n: usize,
}

impl Order {
    fn new(seed: u64, client: u64, n: usize) -> Order {
        Order { state: seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15), n }
    }

    fn next_index(&mut self) -> usize {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % self.n as u64) as usize
    }
}

/// What one client saw.
#[derive(Debug, Default)]
pub struct ClientLog {
    /// Request latency, ms (keep-alive: write to last byte; fresh
    /// connection: connect to last byte).
    pub latency_ms: Vec<f64>,
    /// Request start to first response byte, µs.
    pub first_byte_us: Vec<f64>,
    /// First response byte to last, µs.
    pub body_us: Vec<f64>,
    /// Per response: working-set index, status, whether the body is a
    /// report (not an error record), and the digest of the body without
    /// its measured `timings_us`.
    pub answered: Vec<(usize, u16, bool, u64)>,
    /// Requests that got no response (connection errors).
    pub conn_errors: usize,
}

impl ClientLog {
    fn record(&mut self, index: usize, start: Instant, response: &Response) {
        self.latency_ms.push(response.done.duration_since(start).as_secs_f64() * 1e3);
        self.first_byte_us.push(response.first_byte.duration_since(start).as_secs_f64() * 1e6);
        self.body_us.push(response.done.duration_since(response.first_byte).as_secs_f64() * 1e6);
        let body = String::from_utf8_lossy(&response.body);
        let report = body.starts_with("{\"ok\":true");
        self.answered.push((
            index,
            response.status,
            report,
            digest_of(stable_part(&body).as_bytes()),
        ));
    }

    /// Requests answered with 200 and a report.
    pub fn ok(&self) -> usize {
        self.answered.iter().filter(|(_, status, report, _)| *status == 200 && *report).count()
    }

    /// Requests attempted.
    pub fn attempted(&self) -> usize {
        self.answered.len() + self.conn_errors
    }
}

/// A `/check` body without its trailing `timings_us` object, which holds
/// measured stage times and so differs on every call. A JSON string
/// cannot contain the unescaped marker, so the cut is unambiguous.
pub fn stable_part(body: &str) -> &str {
    match body.rfind(",\"timings_us\":") {
        Some(cut) => &body[..cut],
        None => body,
    }
}

fn trace_exchange(
    tracer: &mut Tracer,
    kind: [&'static str; 3],
    seq: u64,
    start: Instant,
    response: &Response,
) {
    let root = tracer.record(kind[0], seq, None, start, response.done).index();
    tracer.record(kind[1], seq, root, start, response.first_byte);
    tracer.record(kind[2], seq, root, response.first_byte, response.done);
}

const KEEPALIVE_SPANS: [&str; 3] =
    ["serve.keepalive", "serve.keepalive.first_byte", "serve.keepalive.body"];
const CONN_SPANS: [&str; 3] = ["serve.conn", "serve.conn.first_byte", "serve.conn.body"];

fn keepalive_client(
    addr: SocketAddr,
    inputs: &Inputs,
    order: &mut Order,
    until: Instant,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut conn: Option<KeepAlive> = None;
    let mut seq = 0u64;
    while Instant::now() < until {
        let index = order.next_index();
        seq += 1;
        if conn.is_none() {
            match KeepAlive::connect(addr) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    log.conn_errors += 1;
                    continue;
                }
            }
        }
        let start = Instant::now();
        match conn.as_mut().expect("connected above").exchange(&inputs.keepalive[index]) {
            Ok(response) => {
                log.record(index, start, &response);
                trace_exchange(tracer, KEEPALIVE_SPANS, seq, start, &response);
            }
            Err(_) => {
                log.conn_errors += 1;
                conn = None;
            }
        }
    }
    log
}

fn fresh_client(
    addr: SocketAddr,
    inputs: &Inputs,
    order: &mut Order,
    until: Instant,
    tracer: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut seq = 0u64;
    while Instant::now() < until {
        let index = order.next_index();
        seq += 1;
        let start = Instant::now();
        match client::one_shot(addr, &inputs.close[index]) {
            Ok(response) => {
                log.record(index, start, &response);
                trace_exchange(tracer, CONN_SPANS, seq, start, &response);
            }
            Err(_) => log.conn_errors += 1,
        }
    }
    log
}

/// One daemon lifetime: boot, drive, scrape, drain, verify.
pub struct Session {
    /// Set-up time: engine, warm boot and `Server::start`.
    pub setup_s: f64,
    /// The warm-boot engine pass.
    pub boot: common::Pass,
    /// Apps the warm-boot pass analyzed.
    pub boot_apps: usize,
    /// Peak RSS growth over set-up and the client phase, MB.
    pub rss_growth_mb: f64,
    /// Length of the client phase, s.
    pub measured_s: f64,
    /// The keep-alive client's log.
    pub keepalive: ClientLog,
    /// The fresh-connection client's log.
    pub conn: ClientLog,
    /// Mean of the daemon's own `serve.request` span from `/metrics`, µs
    /// (`total_us / count`; its log2-bucket p50 reads the same bucket
    /// bound on every run, so it cannot show a change).
    pub request_span_mean_us: f64,
    /// In-process parse + `Engine::check_one` + render per body on a
    /// warm engine, µs.
    pub inproc_us: Vec<f64>,
    /// 200 responses whose body differed from the in-process result.
    pub mismatches: Vec<String>,
}

/// Boots a daemon over `inputs` (consuming its boot apps), runs both
/// clients for `duration`, and checks every 200 body against the
/// in-process result for its app.
pub fn session(
    inputs: &mut Inputs,
    libs: &[(String, String)],
    seed: u64,
    duration: Duration,
    tracer: &mut Tracer,
) -> Session {
    let boot_apps = std::mem::take(&mut inputs.boot);
    let boot_count = boot_apps.len();
    let inputs = &*inputs;
    let rss_before = common::rss_kb("VmRSS:");
    let t0 = Instant::now();
    let engine = common::engine(libs);
    common::warm_singletons();
    let boot = common::pass(&engine, boot_apps, 0, tracer, 0);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jsonl_addr: None,
        workers: common::jobs(),
        queue_depth: 2 * common::jobs(),
        ..ServeConfig::default()
    };
    let handle = Server::start(engine, config).expect("daemon binds a loopback port");
    let setup_s = t0.elapsed().as_secs_f64();
    let addr = handle.addr();

    let started = Instant::now();
    let until = started + duration;
    let (base, traced) = (tracer.base(), tracer.enabled());
    let ((keepalive, ka_spans), (conn, conn_spans)) = thread::scope(|s| {
        let ka = s.spawn(|| {
            let mut t = Tracer::new(base, traced);
            let log = keepalive_client(
                addr,
                inputs,
                &mut Order::new(seed, 1, inputs.bodies.len()),
                until,
                &mut t,
            );
            (log, t)
        });
        let fresh = s.spawn(|| {
            let mut t = Tracer::new(base, traced);
            let log = fresh_client(
                addr,
                inputs,
                &mut Order::new(seed, 2, inputs.bodies.len()),
                until,
                &mut t,
            );
            (log, t)
        });
        (ka.join().expect("keep-alive client"), fresh.join().expect("fresh-connection client"))
    });
    let measured_s = started.elapsed().as_secs_f64();
    let rss_growth_mb = common::rss_growth_mb(rss_before);
    tracer.merge(ka_spans);
    tracer.merge(conn_spans);

    let request_span_mean_us = client::scrape_metrics(addr)
        .ok()
        .and_then(|body| json::parse(&body).ok())
        .and_then(|doc| {
            let span = doc.get("spans")?.get("serve.request")?;
            let field = |key: &str| span.get(key).and_then(Value::as_f64);
            Some(field("total_us")? / field("count")?.max(1.0))
        })
        .unwrap_or(0.0);
    handle.shutdown();
    handle.join();

    let (mismatches, inproc_us) = verify(inputs, libs, [&keepalive, &conn]);
    Session {
        setup_s,
        boot,
        boot_apps: boot_count,
        rss_growth_mb,
        measured_s,
        keepalive,
        conn,
        request_span_mean_us,
        inproc_us,
        mismatches,
    }
}

/// The expected body for working-set app `index`: what the daemon's
/// `/check` route renders, computed in-process from the same wire body.
fn expected_body(engine: &ppchecker_engine::Engine, body: &str) -> String {
    let app = json::parse(body).and_then(|doc| json::parse_app(&doc)).expect("own wire body");
    json::outcome_to_json(&app.package, &engine.check_one(&app))
}

/// Compares every 200 body with its in-process result, then times the
/// in-process path once more on the now-warm engine.
fn verify(
    inputs: &Inputs,
    libs: &[(String, String)],
    logs: [&ClientLog; 2],
) -> (Vec<String>, Vec<f64>) {
    let engine = common::engine(libs);
    let mut expected: BTreeMap<usize, u64> = BTreeMap::new();
    let mut mismatches = Vec::new();
    for log in logs {
        for &(index, status, _, digest) in &log.answered {
            if status != 200 {
                continue;
            }
            let want = *expected.entry(index).or_insert_with(|| {
                digest_of(stable_part(&expected_body(&engine, &inputs.bodies[index])).as_bytes())
            });
            if want != digest {
                mismatches.push(format!(
                    "serve: body for {} differs from the in-process result",
                    inputs.packages[index]
                ));
            }
        }
    }
    let inproc_us = expected
        .keys()
        .take(500)
        .map(|&index| {
            let t = Instant::now();
            std::hint::black_box(expected_body(&engine, &inputs.bodies[index]));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    (mismatches, inproc_us)
}

/// The per-layer numbers a session yields.
pub fn layer_metrics(s: &Session, out: &mut crate::layers::Metrics) {
    use crate::layers::put;
    let q = |v: &[f64], p: f64| quantile(v, p).unwrap_or(0.0);
    put(out, "serve.keepalive.first_byte_us.p50", q(&s.keepalive.first_byte_us, 0.5));
    put(out, "serve.keepalive.first_byte_us.p90", q(&s.keepalive.first_byte_us, 0.9));
    put(out, "serve.keepalive.body_us.p50", q(&s.keepalive.body_us, 0.5));
    put(out, "serve.conn.first_byte_us.p50", q(&s.conn.first_byte_us, 0.5));
    put(out, "serve.conn.first_byte_us.p90", q(&s.conn.first_byte_us, 0.9));
    put(out, "serve.conn.body_us.p50", q(&s.conn.body_us, 0.5));
    put(out, "serve.inproc_check_us.p50", q(&s.inproc_us, 0.5));
    put(out, "serve.request_us.mean", s.request_span_mean_us);
    let rejected = [&s.keepalive, &s.conn]
        .iter()
        .flat_map(|l| &l.answered)
        .filter(|(_, status, _, _)| *status == 429)
        .count();
    put(out, "serve.rejected", rejected as f64);
    put(out, "serve.req_p99_ms", q(&s.keepalive.latency_ms, 0.99));
    put(out, "serve.req_p99_beyond", beyond(&s.keepalive.latency_ms, 0.99) as f64);
    put(out, "serve.req_samples", s.keepalive.latency_ms.len() as f64);
    put(out, "serve.conn_req_p99_ms", q(&s.conn.latency_ms, 0.99));
    put(out, "serve.conn_req_samples", s.conn.latency_ms.len() as f64);
}

/// One `serve` child: a full session over the working set for `budget`.
pub fn child(seed: u64, budget: Duration, tracer: &mut Tracer) -> (ChildReport, Session) {
    let libs = common::lib_policies();
    let mut inputs = Inputs::generate(seed, BOOT_APPS, APPS);
    let session = session(&mut inputs, &libs, seed, budget, tracer);
    let mut r = ChildReport::default();
    r.value("setup_s", session.setup_s);
    r.rate("cold_apps_per_s", session.boot_apps as f64, session.boot.wall_s);
    r.value("rss_growth_mb", session.rss_growth_mb);
    r.value("measured_s", session.measured_s);
    let answered = session.keepalive.answered.len() + session.conn.answered.len();
    let ok = session.keepalive.ok() + session.conn.ok();
    let attempted = session.keepalive.attempted() + session.conn.attempted();
    r.rate("req_per_s", answered as f64, session.measured_s);
    r.rate("apps_per_s", ok as f64, session.measured_s);
    r.value("attempted", attempted as f64);
    r.value("failed", (attempted - ok) as f64);
    r.samples("req_ms", session.keepalive.latency_ms.clone());
    r.samples("conn_req_ms", session.conn.latency_ms.clone());
    (r, session)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_part_drops_only_the_timings() {
        let body = "{\"ok\":true,\"report\":{\"a\":\"x,\\\"timings_us\\\":\"},\"timings_us\":{\"policy\":3}}";
        assert_eq!(stable_part(body), "{\"ok\":true,\"report\":{\"a\":\"x,\\\"timings_us\\\":\"}");
        assert_eq!(stable_part("{\"ok\":false}"), "{\"ok\":false}");
    }

    #[test]
    fn served_bodies_match_and_a_corrupted_body_is_caught() {
        let libs = common::lib_policies();
        let mut inputs = Inputs::generate(9, 30, 24);
        let mut tracer = Tracer::new(Instant::now(), false);
        let s = session(&mut inputs, &libs, 9, Duration::from_millis(300), &mut tracer);
        assert_eq!(s.boot_apps, 30);
        assert!(s.mismatches.is_empty(), "{:?}", s.mismatches);
        assert!(s.keepalive.ok() > 0 && s.conn.ok() > 0);
        assert_eq!(s.keepalive.conn_errors + s.conn.conn_errors, 0);

        let &(index, status, report, digest) = s.keepalive.answered.first().expect("a response");
        let corrupted = ClientLog {
            answered: vec![(index, status, report, digest ^ 1)],
            ..ClientLog::default()
        };
        let (mismatches, _) = verify(&inputs, &libs, [&corrupted, &ClientLog::default()]);
        assert_eq!(mismatches.len(), 1);
    }
}
