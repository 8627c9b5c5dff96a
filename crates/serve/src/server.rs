//! The resident daemon: accept loops, request routing, admission, and
//! the `/metrics` document.
//!
//! ## Lifecycle
//!
//! [`Server::start`] binds the HTTP listener (and optionally the JSONL
//! one), warms a [`ppchecker_engine::Engine`], and spawns one acceptor
//! thread per transport. Each connection runs on a handler thread of its
//! acceptor; a handler that finishes a connection parks for the next
//! one (up to a small idle cap) rather than exiting. All of
//! them share one `Shared` hub: the engine, the resident
//! [`WorkerPool`], the request counters, and the drain flag.
//!
//! ## Admission
//!
//! Checks never run on connection threads — every app goes through the
//! pool's ticket gate. HTTP uses [`WorkerPool::try_admit`] so a full
//! queue answers `429 overloaded` immediately (`/batch` admits
//! all-or-nothing: a batch the queue can't hold entirely is rejected
//! rather than half-admitted). The JSONL transport uses
//! [`WorkerPool::admit_blocking`] — bulk clients want backpressure, not
//! retries.
//!
//! ## Drain
//!
//! `POST /shutdown` (or SIGTERM) flips one flag and wakes each acceptor,
//! which blocks in `accept` and never polls, by connecting to its bound
//! address: acceptors stop accepting, idle keep-alive connections see
//! EOF, admitted work runs to completion, and responses for in-flight
//! requests are still written. [`ServerHandle::join`] returns once the
//! last connection closes and the pool is idle.
//!
//! ## Transport
//!
//! Every accepted stream has Nagle off, and every response — an HTTP
//! head plus body, a JSONL line plus its newline — leaves in one write
//! from a buffer the connection reuses. A request therefore costs its
//! analysis plus a loopback round trip, not a delayed-ACK timer.

use crate::http::{self, HttpRequest, ReadError};
use crate::json;
use crate::jsonl;
use crate::ServeConfig;
use ppchecker_core::{AppInput, DetectorId};
use ppchecker_engine::{AdmitError, CacheStats, Engine, SentenceMemoStats, WorkerPool};
use std::io::{self, BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a parked connection read (and the SIGTERM watch) waits
/// before re-checking the drain flag. Off the request path: a request's
/// bytes end the wait as soon as they arrive.
pub(crate) const POLL: Duration = Duration::from_millis(20);

/// Monotonic request counters, scraped verbatim into `/metrics`.
#[derive(Debug, Default)]
pub struct Counters {
    /// HTTP requests parsed (any route).
    pub http_requests: AtomicU64,
    /// JSONL request lines received.
    pub jsonl_lines: AtomicU64,
    /// Checks that produced a report.
    pub checks_ok: AtomicU64,
    /// Checks that produced a structured pipeline error.
    pub check_errors: AtomicU64,
    /// Admissions refused with `overloaded`.
    pub overloaded: AtomicU64,
    /// Requests/lines rejected as malformed.
    pub malformed: AtomicU64,
    /// Requests rejected for exceeding the body cap.
    pub oversized: AtomicU64,
    /// `/batch` requests served.
    pub batches: AtomicU64,
    /// Findings emitted per detector, indexed by [`DetectorId::rank`].
    /// Paper detectors mirror the classic report counts; successor
    /// slots stay zero unless the engine's registry runs them.
    pub detector_findings: [AtomicU64; DetectorId::COUNT],
}

/// Everything the daemon's threads share.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) pool: WorkerPool,
    pub(crate) config: ServeConfig,
    pub(crate) counters: Counters,
    started: Instant,
    draining: AtomicBool,
    /// Where each acceptor listens, as a peer can reach it: connecting
    /// here wakes an acceptor blocked in `accept`.
    wake_addrs: Vec<SocketAddr>,
    connections: Mutex<usize>,
    connections_closed: Condvar,
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Flips the daemon into drain mode (idempotent): acceptors stop,
    /// new admissions fail with `draining`, admitted work finishes.
    pub(crate) fn begin_shutdown(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            self.pool.start_drain();
            // Each acceptor re-checks the flag after every accept; a
            // refused connect means it already saw the flag and exited.
            for addr in &self.wake_addrs {
                let _ = TcpStream::connect_timeout(addr, Duration::from_secs(1));
            }
        }
    }

    fn connection_opened(&self) {
        *self.connections.lock().expect("connection count") += 1;
    }

    fn connection_closed(&self) {
        let mut n = self.connections.lock().expect("connection count");
        *n -= 1;
        if *n == 0 {
            self.connections_closed.notify_all();
        }
    }

    fn wait_connections_closed(&self) {
        let mut n = self.connections.lock().expect("connection count");
        while *n > 0 {
            n = self.connections_closed.wait(n).expect("connection count");
        }
    }

    /// Runs one admitted check on the pool and waits for its outcome,
    /// already rendered as a wire result object.
    pub(crate) fn run_check(
        self: &Arc<Self>,
        mut ticket: ppchecker_engine::AdmitTicket,
        app: AppInput,
    ) -> String {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit_check(&mut ticket, app, 0, tx);
        match rx.recv() {
            Ok((_seq, rendered)) => rendered,
            Err(_) => json::error_body("worker lost").trim_end().to_string(),
        }
    }

    /// Submits one check job; the rendered result arrives as
    /// `(seq, json)` on `tx`.
    pub(crate) fn submit_check(
        self: &Arc<Self>,
        ticket: &mut ppchecker_engine::AdmitTicket,
        app: AppInput,
        seq: u64,
        tx: mpsc::SyncSender<(u64, String)>,
    ) {
        let shared = Arc::clone(self);
        self.pool.submit(ticket, move || {
            let result = shared.engine.check_one(&app);
            let counter = if result.is_ok() {
                &shared.counters.checks_ok
            } else {
                &shared.counters.check_errors
            };
            counter.fetch_add(1, Ordering::Relaxed);
            if let Ok(outcome) = &result {
                for &id in DetectorId::ALL {
                    let n = outcome.detector_findings(id) as u64;
                    if n > 0 {
                        shared.counters.detector_findings[id.rank()]
                            .fetch_add(n, Ordering::Relaxed);
                    }
                }
            }
            let _ = tx.send((seq, json::outcome_to_json(&app.package, &result)));
        });
    }
}

/// A bound, running daemon. Dropping the handle does NOT stop the
/// server; call [`shutdown`](ServerHandle::shutdown) (or hit
/// `POST /shutdown`) and then [`join`](ServerHandle::join).
pub struct ServerHandle {
    addr: SocketAddr,
    jsonl_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    /// The acceptors and the SIGTERM watch.
    threads: Vec<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound HTTP address (useful with `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound JSONL address, when that transport was enabled.
    pub fn jsonl_addr(&self) -> Option<SocketAddr> {
        self.jsonl_addr
    }

    /// Starts a graceful drain, as if `POST /shutdown` had arrived.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the daemon has fully drained: acceptors exited, all
    /// connections closed, all admitted work completed.
    pub fn join(self) {
        for thread in self.threads {
            let _ = thread.join();
        }
        self.shared.wait_connections_closed();
        self.shared.pool.wait_idle();
    }
}

/// Constructor namespace for the daemon.
pub struct Server;

impl Server {
    /// Binds the configured listeners over a warm engine and starts
    /// serving. Metrics collection ([`ppchecker_obs`]) is switched on —
    /// a daemon without its `/metrics` endpoint populated is blind.
    pub fn start(engine: Engine, config: ServeConfig) -> io::Result<ServerHandle> {
        ppchecker_obs::set_enabled(true);
        let http_listener = TcpListener::bind(&config.addr)?;
        let addr = http_listener.local_addr()?;
        let jsonl_listener = match &config.jsonl_addr {
            Some(spec) => Some(TcpListener::bind(spec)?),
            None => None,
        };
        let jsonl_addr = match &jsonl_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };

        let wake_addrs = [Some(addr), jsonl_addr].into_iter().flatten().map(reachable).collect();
        let pool = WorkerPool::new(config.workers, config.queue_depth);
        let shared = Arc::new(Shared {
            engine,
            pool,
            config,
            counters: Counters::default(),
            started: Instant::now(),
            draining: AtomicBool::new(false),
            wake_addrs,
            connections: Mutex::new(0),
            connections_closed: Condvar::new(),
        });

        let mut threads = Vec::new();
        let hub = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("ppchecker-accept-http".to_string())
                .spawn(move || accept_loop(hub, http_listener, handle_http_connection))
                .expect("spawn acceptor"),
        );
        if let Some(listener) = jsonl_listener {
            let hub = Arc::clone(&shared);
            threads.push(
                thread::Builder::new()
                    .name("ppchecker-accept-jsonl".to_string())
                    .spawn(move || accept_loop(hub, listener, jsonl::handle_connection))
                    .expect("spawn acceptor"),
            );
        }
        let hub = Arc::clone(&shared);
        threads.push(
            thread::Builder::new()
                .name("ppchecker-sigterm".to_string())
                .spawn(move || watch_sigterm(&hub))
                .expect("spawn SIGTERM watch"),
        );

        Ok(ServerHandle { addr, jsonl_addr, shared, threads })
    }
}

/// The address a local peer connects to for a listener bound at
/// `bound`: an unspecified IP (`0.0.0.0`, `::`) is reached on loopback.
fn reachable(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Turns a delivered SIGTERM into a drain; exits once the daemon drains
/// for any reason.
fn watch_sigterm(shared: &Shared) {
    while !shared.draining() {
        if crate::sigterm_received() {
            shared.begin_shutdown();
        }
        thread::sleep(POLL);
    }
}

/// Most connection threads an acceptor keeps parked between
/// connections; a thread that finishes a connection beyond this exits.
const IDLE_HANDLERS: usize = 16;

/// An acceptor's connection threads. Each serves one connection at a
/// time and then parks for the next instead of exiting, so a fresh
/// connection costs a channel hand-off, not a thread spawn.
struct Handlers {
    handoff: Mutex<mpsc::Receiver<TcpStream>>,
    /// Parked threads not yet promised a connection.
    idle: AtomicUsize,
}

impl Handlers {
    /// Promises the next handed-off connection to a parked thread, if
    /// one is free.
    fn claim_idle(&self) -> bool {
        self.idle.fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1)).is_ok()
    }

    /// Parks until the acceptor hands over a connection. `None` when
    /// enough threads are parked already, or once the acceptor exited.
    fn park(&self) -> Option<TcpStream> {
        if self.idle.fetch_add(1, Ordering::AcqRel) >= IDLE_HANDLERS {
            self.idle.fetch_sub(1, Ordering::AcqRel);
            return None;
        }
        self.handoff.lock().expect("handoff lock").recv().ok()
    }
}

/// Blocks in `accept` until the daemon drains; [`Shared::begin_shutdown`]
/// connects to the listener so the last `accept` returns. Returning
/// drops the hand-off sender, which releases every parked handler.
fn accept_loop(shared: Arc<Shared>, listener: TcpListener, handler: fn(Arc<Shared>, TcpStream)) {
    let (handoff, rx) = mpsc::channel();
    let handlers = Arc::new(Handlers { handoff: Mutex::new(rx), idle: AtomicUsize::new(0) });
    loop {
        let accepted = listener.accept();
        if shared.draining() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                shared.connection_opened();
                if handlers.claim_idle() {
                    // The receiver lives in `handlers`, so the send lands;
                    // the promised thread is parked in or entering `recv`.
                    let _ = handoff.send(stream);
                } else if spawn_handler(&shared, &handlers, handler, stream).is_err() {
                    shared.connection_closed();
                }
            }
            // A failed accept (an aborted handshake, fd exhaustion) backs
            // off briefly rather than spinning; it is not a request path.
            Err(_) => thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Starts a connection thread on `stream`; it serves further handed-off
/// connections until [`Handlers::park`] turns it away.
fn spawn_handler(
    shared: &Arc<Shared>,
    handlers: &Arc<Handlers>,
    handler: fn(Arc<Shared>, TcpStream),
    stream: TcpStream,
) -> io::Result<()> {
    let (hub, handlers) = (Arc::clone(shared), Arc::clone(handlers));
    thread::Builder::new().name("ppchecker-conn".to_string()).spawn(move || {
        let mut next = Some(stream);
        while let Some(stream) = next {
            {
                let _guard = ConnGuard(&hub);
                handler(Arc::clone(&hub), stream);
            }
            next = handlers.park();
        }
    })?;
    Ok(())
}

/// Decrements the connection count when a handler finishes a
/// connection, however it finishes.
struct ConnGuard<'a>(&'a Arc<Shared>);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.connection_closed();
    }
}

/// A [`Read`] wrapper that turns socket timeouts into either a retry
/// (normal operation) or EOF (the daemon is draining), so keep-alive
/// connections park cheaply yet exit promptly on shutdown.
pub(crate) struct PatientReader {
    pub(crate) stream: TcpStream,
    pub(crate) shared: Arc<Shared>,
}

impl Read for PatientReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if self.shared.draining() {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

/// What `route` decided: a status, a body, and lifecycle side effects.
struct Response {
    status: u16,
    body: String,
    close: bool,
    begin_shutdown: bool,
}

impl Response {
    fn ok(body: String) -> Self {
        Response { status: 200, body, close: false, begin_shutdown: false }
    }

    fn error(status: u16, message: &str) -> Self {
        Response { status, body: json::error_body(message), close: false, begin_shutdown: false }
    }
}

fn handle_http_connection(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(PatientReader { stream, shared: Arc::clone(&shared) });
    let mut out = Vec::new();
    loop {
        match http::read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(request) => {
                shared.counters.http_requests.fetch_add(1, Ordering::Relaxed);
                let _span = ppchecker_obs::span!("serve.request");
                let response = route(&shared, &request);
                let keep_alive = request.keep_alive && !response.close;
                let written = http::write_response(
                    &mut writer,
                    &mut out,
                    response.status,
                    &response.body,
                    keep_alive,
                );
                if response.begin_shutdown {
                    shared.begin_shutdown();
                }
                if written.is_err() || !keep_alive {
                    return;
                }
            }
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed(message)) => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                let body = json::error_body(&message);
                let _ = http::write_response(&mut writer, &mut out, 400, &body, false);
                return;
            }
            Err(ReadError::TooLarge(len)) => {
                shared.counters.oversized.fetch_add(1, Ordering::Relaxed);
                let message =
                    format!("body of {len} bytes exceeds cap of {}", shared.config.max_body_bytes);
                let body = json::error_body(&message);
                let _ = http::write_response(&mut writer, &mut out, 413, &body, false);
                return;
            }
            Err(ReadError::Io(_)) => return,
        }
    }
}

fn route(shared: &Arc<Shared>, request: &HttpRequest) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/check") => handle_check(shared, &request.body),
        ("POST", "/batch") => handle_batch(shared, &request.body),
        ("GET", "/metrics") => Response::ok(metrics_to_json(shared)),
        ("GET", "/healthz") => Response::ok(healthz_to_json(shared)),
        ("POST", "/shutdown") => Response {
            status: 200,
            body: "{\"status\":\"draining\"}".to_string(),
            close: true,
            begin_shutdown: true,
        },
        ("GET", "/check" | "/batch" | "/shutdown") | ("POST", "/metrics" | "/healthz") => {
            Response::error(405, "method not allowed")
        }
        _ => Response::error(404, "no such route"),
    }
}

fn handle_check(shared: &Arc<Shared>, body: &str) -> Response {
    let parsed = json::parse(body).and_then(|doc| json::parse_app(&doc));
    let app = match parsed {
        Ok(app) => app,
        Err(message) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &message);
        }
    };
    match shared.pool.try_admit(1) {
        Ok(ticket) => Response::ok(shared.run_check(ticket, app)),
        Err(AdmitError::Overloaded) => {
            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            Response::error(429, "overloaded")
        }
        Err(AdmitError::Draining) => Response::error(503, "draining"),
    }
}

fn handle_batch(shared: &Arc<Shared>, body: &str) -> Response {
    let doc = match json::parse(body) {
        Ok(doc) => doc,
        Err(message) => {
            shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
            return Response::error(400, &message);
        }
    };
    let Some(entries) = doc.get("apps").and_then(json::Value::as_array) else {
        shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
        return Response::error(400, "missing \"apps\" array");
    };
    let mut apps = Vec::with_capacity(entries.len());
    for (index, entry) in entries.iter().enumerate() {
        match json::parse_app(entry) {
            Ok(app) => apps.push(app),
            Err(message) => {
                shared.counters.malformed.fetch_add(1, Ordering::Relaxed);
                return Response::error(400, &format!("apps[{index}]: {message}"));
            }
        }
    }
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    let count = apps.len();
    if count == 0 {
        return Response::ok("{\"count\":0,\"results\":[]}".to_string());
    }
    // All-or-nothing admission: either the queue holds the whole batch
    // or the caller gets an immediate `overloaded` and retries later —
    // never a half-admitted batch wedged against its own remainder.
    let mut ticket = match shared.pool.try_admit(count) {
        Ok(ticket) => ticket,
        Err(AdmitError::Overloaded) => {
            shared.counters.overloaded.fetch_add(1, Ordering::Relaxed);
            return Response::error(429, "overloaded");
        }
        Err(AdmitError::Draining) => return Response::error(503, "draining"),
    };
    let (tx, rx) = mpsc::sync_channel(count);
    for (index, app) in apps.into_iter().enumerate() {
        shared.submit_check(&mut ticket, app, index as u64, tx.clone());
    }
    drop(tx);
    let mut results = vec![String::new(); count];
    for (index, rendered) in rx {
        results[index as usize] = rendered;
    }
    Response::ok(format!("{{\"count\":{count},\"results\":[{}]}}", results.join(",")))
}

fn healthz_to_json(shared: &Shared) -> String {
    let status = if shared.draining() { "draining" } else { "ok" };
    format!(
        "{{\"status\":\"{status}\",\"inflight\":{},\"uptime_ms\":{}}}",
        shared.pool.stats().inflight,
        shared.started.elapsed().as_millis(),
    )
}

fn cache_to_json(stats: &CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"entries\":{},\"hit_rate\":{:.4}}}",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.hit_rate(),
    )
}

fn memo_to_json(stats: &SentenceMemoStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"entries\":{},\"bytes\":{},\"full\":{},\"hit_rate\":{:.4}}}",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.bytes,
        stats.full,
        stats.hit_rate(),
    )
}

/// Renders the persistent-store section of `/metrics`, or the literal
/// `null` when the daemon runs without a store.
fn store_to_json(store: Option<&ppchecker_engine::StoreSummary>) -> String {
    let Some(s) = store else {
        return "null".to_string();
    };
    let kind = |stats: &ppchecker_store::StoreStats| {
        format!(
            "{{\"hits\":{},\"misses\":{},\"writes\":{},\"corrupt\":{}}}",
            stats.hits, stats.misses, stats.writes, stats.corrupt,
        )
    };
    format!(
        "{{\"apps_skipped\":{},\"reports\":{},\"policies\":{},\"lib_summaries\":{}}}",
        s.apps_skipped,
        kind(&s.reports),
        kind(&s.policies),
        kind(&s.lib_summaries),
    )
}

/// Renders the full `/metrics` document: request counters, queue
/// occupancy, cache effectiveness, interner occupancy, and per-span
/// latency quantiles — cumulative since process start (scrape twice and
/// difference for a window).
fn metrics_to_json(shared: &Shared) -> String {
    let counters = &shared.counters;
    let detectors: Vec<String> = DetectorId::ALL
        .iter()
        .map(|&id| {
            format!(
                "\"{}\":{}",
                id.as_str(),
                counters.detector_findings[id.rank()].load(Ordering::Relaxed)
            )
        })
        .collect();
    let queue = shared.pool.stats();
    let engine = shared.engine.metrics_snapshot();
    let interner = engine.interner;
    let spans: Vec<String> = ppchecker_obs::snapshot()
        .iter()
        .map(|(name, snap)| {
            format!(
                "\"{}\":{{\"count\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\
                 \"max_us\":{},\"total_us\":{}}}",
                json::escape(name),
                snap.count,
                snap.p50().as_micros(),
                snap.p90().as_micros(),
                snap.p99().as_micros(),
                snap.max_duration().as_micros(),
                snap.total().as_micros(),
            )
        })
        .collect();
    format!(
        "{{\"uptime_ms\":{},\
         \"requests\":{{\"http\":{},\"jsonl_lines\":{},\"checks_ok\":{},\"check_errors\":{},\
         \"overloaded\":{},\"malformed\":{},\"oversized\":{},\"batches\":{}}},\
         \"detectors\":{{{}}},\
         \"queue\":{{\"workers\":{},\"capacity\":{},\"inflight\":{},\"draining\":{}}},\
         \"lib_policies\":{},\
         \"taint_reference_fallbacks\":{},\
         \"caches\":{{\"policy\":{},\"policy_cap\":{},\"sentence_memo\":{},\"esa_vectors\":{},\
         \"esa_pair_memo\":{},\"esa_pruned\":{},\"taint_summaries\":{}}},\
         \"store\":{},\
         \"interner\":{{\"symbols\":{},\"preseeded\":{},\"bytes\":{},\"soft_cap_bytes\":{},\
         \"over_soft_cap\":{},\"over_cap_interns\":{}}},\
         \"spans\":{{{}}}}}",
        shared.started.elapsed().as_millis(),
        counters.http_requests.load(Ordering::Relaxed),
        counters.jsonl_lines.load(Ordering::Relaxed),
        counters.checks_ok.load(Ordering::Relaxed),
        counters.check_errors.load(Ordering::Relaxed),
        counters.overloaded.load(Ordering::Relaxed),
        counters.malformed.load(Ordering::Relaxed),
        counters.oversized.load(Ordering::Relaxed),
        counters.batches.load(Ordering::Relaxed),
        detectors.join(","),
        queue.workers,
        queue.capacity,
        queue.inflight,
        queue.draining,
        engine.lib_policies,
        engine.taint_reference_fallbacks,
        cache_to_json(&engine.policy_cache),
        shared.engine.cache().cap(),
        memo_to_json(&engine.sentence_memo),
        cache_to_json(&engine.esa_cache),
        cache_to_json(&engine.esa_pair_memo),
        engine.esa_pruned,
        cache_to_json(&engine.taint_summary_cache),
        store_to_json(engine.store.as_ref()),
        interner.symbols,
        interner.preseeded,
        interner.bytes,
        interner.soft_cap_bytes,
        interner.over_soft_cap,
        ppchecker_nlp::Interner::global().over_cap_interns(),
        spans.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parked_handlers_take_handed_off_connections_up_to_the_cap() {
        let (handoff, rx) = mpsc::channel();
        let handlers = Arc::new(Handlers { handoff: Mutex::new(rx), idle: AtomicUsize::new(0) });
        assert!(!handlers.claim_idle(), "no thread is parked yet");

        let parked = {
            let handlers = Arc::clone(&handlers);
            thread::spawn(move || handlers.park().map(|s| s.peer_addr().unwrap()))
        };
        while handlers.idle.load(Ordering::Acquire) == 0 {
            thread::yield_now();
        }
        assert!(handlers.claim_idle());
        assert!(!handlers.claim_idle(), "one parked thread, one promise");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        handoff.send(stream).unwrap();
        assert_eq!(parked.join().unwrap(), Some(client.local_addr().unwrap()));

        // A full parking lot turns the next thread away untouched.
        handlers.idle.store(IDLE_HANDLERS, Ordering::Release);
        assert!(handlers.park().is_none());
        assert_eq!(handlers.idle.load(Ordering::Acquire), IDLE_HANDLERS);

        // Once the acceptor's sender is gone, a parked thread is released.
        handlers.idle.store(0, Ordering::Release);
        drop(handoff);
        assert!(handlers.park().is_none());
    }

    #[test]
    fn wildcard_binds_are_woken_on_loopback() {
        let at = |s: &str| s.parse::<SocketAddr>().unwrap();
        assert_eq!(reachable(at("0.0.0.0:7171")), at("127.0.0.1:7171"));
        assert_eq!(reachable(at("[::]:7171")), at("[::1]:7171"));
        assert_eq!(reachable(at("10.1.2.3:80")), at("10.1.2.3:80"));
    }
}
