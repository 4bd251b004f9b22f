//! `varbench serve` — a std-only HTTP/1.1 + JSON study server over the
//! shared measurement cache.
//!
//! The paper's score matrices are community infrastructure: queried far
//! more often than they are computed. This module turns the one-shot CLI
//! into a long-running service — a bounded pool of handler threads fed
//! by a fixed-capacity accept queue, where every request runs against
//! **one** [`RunContext`], so the `MeasureCache` answers warm requests
//! instantly from memory or disk, schedules only the missing matrix
//! delta for cold ones, and coalesces concurrent identical requests
//! into a single computation.
//!
//! When every handler is busy and the queue is full, new connections
//! are **shed** with `503 Service Unavailable` instead of being read:
//! the listener stays responsive under overload, and clients retry
//! with backoff ([`http_request_retry`] is the matching transport).
//!
//! # Endpoints
//!
//! | method & path | body | answers |
//! |---|---|---|
//! | `GET /health` | — | liveness probe (the process answers) |
//! | `GET /v1/ready` | — | readiness: fleet health, 503 when all quarantined |
//! | `GET /v1/workloads` | — | registered workload names + sources |
//! | `GET /v1/artifacts` | — | registry artifact names |
//! | `GET /v1/cache/stats` | — | cache hit/miss/coalescing counters |
//! | `POST /v1/run` | [`RunRequest`] | `varbench-report/1` envelope |
//! | `POST /v1/study` | [`StudyRequest`] | `varbench-report/1` envelope |
//! | `POST /v1/shutdown` | — | acks, then drains and stops |
//!
//! # Connections and the fleet
//!
//! Connections are HTTP/1.1 **keep-alive** by default: a handler serves
//! up to [`MAX_KEEPALIVE_REQUESTS`] requests per connection, waiting
//! [`KEEPALIVE_IDLE`] between them and giving each request
//! [`REQUEST_READ`] per read to arrive (`Connection: close`, HTTP/1.0,
//! or either limit ends the session). Every `503` carries a
//! `Retry-After` hint that [`http_request_retry`] honors.
//!
//! A [`StudyRequest`] with `"dispatch": true` routes the study's plan
//! through the PR-9 worker-fleet machinery: rows are enqueued into the
//! cache-dir lease queue, a supervised fleet (see [`crate::supervisor`])
//! computes them, the driver's stall-detection reclaims dead owners'
//! leases, and the response is then assembled **in-process from the warm
//! cache** — so served bytes stay identical to offline runs no matter
//! which process computed which row. Shutdown drains gracefully: stop
//! accepting, finish in-flight requests, stop the fleet via its stop
//! file, release any lease the fleet still holds, then exit.
//!
//! Report responses are **byte-identical** to the equivalent offline CLI
//! invocation (`varbench run ... --json` / `varbench study ... --json`):
//! the protocol layer shares the CLI's envelope and builders, and the
//! cache guarantees cached == uncached bytes, so where a value is
//! computed — this process, an earlier process, a fleet worker — never
//! shows in the response.
//!
//! The server reads no wall clock (socket timeouts are plain
//! `Duration`s); it is deterministic in its inputs like everything else
//! in the workspace.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::args::Effort;
use crate::protocol::{RunRequest, StudyRequest};
use crate::registry;
use crate::supervisor::Supervisor;
use crate::worker;
use crate::workloads;
use varbench_core::ctx::{BootstrapMode, RunContext};
use varbench_core::json::Json;
use varbench_core::report::json_string;
use varbench_pipeline::faultpoint::faultpoint;

/// Per-connection write timeout (and the client-side socket timeout).
/// Generous: a cold `--full` study computes for a while before the
/// response starts.
const IO_TIMEOUT: Duration = Duration::from_secs(600);

/// Per-read deadline while a request is arriving. Bounded reads
/// (`MAX_HEAD`/`MAX_BODY`) make this an effective per-request
/// deadline: a half-sent request cannot hold a handler forever.
pub const REQUEST_READ: Duration = Duration::from_secs(30);

/// How long a keep-alive connection may sit idle between requests
/// before the server closes it and returns the handler to the pool.
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// Requests served per connection before the server closes it (bounds
/// how long one chatty client can monopolize a handler).
pub const MAX_KEEPALIVE_REQUESTS: usize = 1024;

/// Maximum accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body.
const MAX_BODY: usize = 1024 * 1024;

/// Default handler-pool size.
pub const DEFAULT_HANDLERS: usize = 8;

/// Default accept-queue capacity (connections waiting for a handler
/// beyond the ones being served; past this, connections are shed).
pub const DEFAULT_QUEUE: usize = 32;

/// Shared server state: the one execution context every request runs
/// against (sharing the context is the entire point — it is what makes
/// request N answerable from the matrices requests 1..N-1 computed),
/// plus the optional supervised worker fleet behind `"dispatch": true`
/// studies.
pub struct ServeState {
    ctx: RunContext,
    fleet: Option<Supervisor>,
    dispatch_wait: Duration,
    dispatch_row_timeout: Duration,
    dispatch_poll: Duration,
}

impl ServeState {
    /// Wraps an execution context for serving (no fleet; dispatch
    /// requests still work — they degrade to the in-process fallback
    /// after the dispatch wait, exactly like an offline driver whose
    /// fleet never showed up).
    pub fn new(ctx: RunContext) -> ServeState {
        ServeState {
            ctx,
            fleet: None,
            dispatch_wait: Duration::from_millis(20_000),
            dispatch_row_timeout: Duration::from_millis(2_000),
            dispatch_poll: Duration::from_millis(50),
        }
    }

    /// Attaches a supervised worker fleet: dispatched studies are
    /// computed by its workers, and `GET /v1/ready` reflects its health.
    pub fn with_fleet(mut self, fleet: Supervisor) -> ServeState {
        self.fleet = Some(fleet);
        self
    }

    /// Overrides the dispatch pacing: total wait budget before the
    /// in-process fallback, and the per-row stall timeout after which a
    /// held lease is reclaimed.
    pub fn with_dispatch_tuning(mut self, wait: Duration, row_timeout: Duration) -> ServeState {
        self.dispatch_wait = wait;
        self.dispatch_row_timeout = row_timeout;
        self.dispatch_poll = row_timeout
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        self
    }

    /// The shared execution context.
    pub fn ctx(&self) -> &RunContext {
        &self.ctx
    }

    /// The supervised fleet, if one is attached.
    pub fn fleet(&self) -> Option<&Supervisor> {
        self.fleet.as_ref()
    }
}

/// Dispatches one parsed request to its handler — the pure core of the
/// server (no sockets), so tests and benches drive it directly.
/// Returns `(status, body)`; bodies are JSON and newline-terminated.
pub fn route(state: &ServeState, method: &str, path: &str, body: &str) -> (u16, String) {
    match (method, path) {
        ("GET", "/health") => (200, "{\"ok\":true}\n".into()),
        ("GET", "/v1/ready") => ready_body(state),
        ("GET", "/v1/workloads") => (200, workloads_body()),
        ("GET", "/v1/artifacts") => (200, artifacts_body()),
        ("GET", "/v1/cache/stats") => (200, cache_stats_body(state)),
        ("POST", "/v1/run") => match parse_body(body).and_then(|doc| RunRequest::from_json(&doc)) {
            Ok(req) => (200, req.run(state.ctx())),
            Err(e) => (400, error_body(&e)),
        },
        ("POST", "/v1/study") => {
            match parse_body(body).and_then(|doc| StudyRequest::from_json(&doc)) {
                Ok(req) if req.dispatch => match run_study_dispatched(state, &req) {
                    Ok(body) => (200, body),
                    Err(e) => (400, error_body(&e)),
                },
                Ok(req) => match req.run_json(state.ctx()) {
                    Ok(body) => (200, body),
                    Err(e) => (400, error_body(&e)),
                },
                Err(e) => (400, error_body(&e)),
            }
        }
        ("POST", "/v1/shutdown") => (200, "{\"ok\":true,\"shutting_down\":true}\n".into()),
        // Known path, wrong method → 405; anything else → 404.
        (_, "/health" | "/v1/ready" | "/v1/workloads" | "/v1/artifacts" | "/v1/cache/stats") => {
            (405, error_body("use GET for this endpoint"))
        }
        (_, "/v1/run" | "/v1/study" | "/v1/shutdown") => {
            (405, error_body("use POST for this endpoint"))
        }
        _ => (404, error_body(&format!("no such endpoint: {path}"))),
    }
}

fn parse_body(body: &str) -> Result<Json, String> {
    if body.trim().is_empty() {
        return Err("request body must be a JSON object".into());
    }
    Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}\n", json_string(message))
}

fn workloads_body() -> String {
    let items: Vec<String> = workloads::all(Effort::Quick.scale())
        .iter()
        .map(|w| {
            let sources: Vec<String> = w
                .active_sources()
                .iter()
                .map(|s| json_string(s.label()))
                .collect();
            format!(
                "{{\"name\":{},\"metric\":{},\"sources\":[{}]}}",
                json_string(w.name()),
                json_string(w.metric_name()),
                sources.join(",")
            )
        })
        .collect();
    format!("{{\"workloads\":[{}]}}\n", items.join(","))
}

fn artifacts_body() -> String {
    let items: Vec<String> = registry::all()
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":{},\"title\":{},\"description\":{}}}",
                json_string(s.name),
                json_string(s.title),
                json_string(s.description)
            )
        })
        .collect();
    format!("{{\"artifacts\":[{}]}}\n", items.join(","))
}

fn cache_stats_body(state: &ServeState) -> String {
    let s = state.ctx().cache().stats();
    format!(
        "{{\"full_hits\":{},\"extensions\":{},\"misses\":{},\"rows_computed\":{},\
         \"rows_served\":{},\"records_computed\":{},\"records_served\":{},\
         \"record_fits_computed\":{},\"disk_loads\":{},\"coalesced\":{},\
         \"persistent\":{}}}\n",
        s.full_hits,
        s.extensions,
        s.misses,
        s.rows_computed,
        s.rows_served,
        s.records_computed,
        s.records_served,
        s.record_fits_computed,
        s.disk_loads,
        s.coalesced,
        state.ctx().cache().is_persistent(),
    )
}

/// `GET /v1/ready`: readiness as distinct from `/health` liveness. A
/// fleetless server is ready (every request computes in-process); a
/// fleet-backed one is ready while at least one worker slot is live —
/// when the whole fleet is quarantined, dispatched studies would all
/// burn the dispatch wait before falling back, so the server says 503
/// and lets the load balancer route elsewhere.
fn ready_body(state: &ServeState) -> (u16, String) {
    match state.fleet() {
        None => (200, "{\"ready\":true,\"fleet\":null}\n".into()),
        Some(fleet) => {
            let s = fleet.status();
            let ready = s.slots.is_empty() || s.running() > 0;
            let body = format!(
                "{{\"ready\":{ready},\"fleet\":{{\"workers\":{},\"running\":{},\
                 \"quarantined\":{},\"respawns\":{}}}}}\n",
                s.slots.len(),
                s.running(),
                s.quarantined(),
                s.respawns(),
            );
            (if ready { 200 } else { 503 }, body)
        }
    }
}

/// The fleet-backed study path (`"dispatch": true`): enqueue the plan
/// into the lease queue, wait on the fleet with the offline driver's
/// stall-detection/reclaim loop, then assemble the response in-process
/// from the warm cache. The assembly step is what pins the bytes: it is
/// the same single-process code path as a non-dispatched request, so
/// fleet or no fleet, crashes or none, equal requests answer equal
/// bytes.
fn run_study_dispatched(state: &ServeState, req: &StudyRequest) -> Result<String, String> {
    let ctx = state.ctx();
    let Some(dir) = ctx.cache().dir() else {
        return Err(
            "dispatch needs a disk-backed cache: restart serve with VARBENCH_CACHE_DIR set".into(),
        );
    };
    if ctx.bootstrap() != BootstrapMode::Serial {
        return Err(
            "dispatch requires the default serial bootstrap mode: restart serve without \
             VARBENCH_PAR_BOOTSTRAP"
                .into(),
        );
    }
    let workload = req.find_workload()?;
    let plan = req.configure(workload.as_ref())?.plan();
    let jobs = worker::study_jobs(&req.workload, req.effort, workload.as_ref(), plan, ctx);
    faultpoint("serve:mid-dispatch");
    let mut dcfg = worker::DispatchConfig::new(dir, 0);
    // The serve fleet is supervised and long-lived: never spawn
    // per-request workers, just enqueue and watch the cache.
    dcfg.exe = None;
    dcfg.wait = state.dispatch_wait;
    dcfg.row_timeout = state.dispatch_row_timeout;
    dcfg.poll = state.dispatch_poll;
    let outcome = worker::dispatch(&dcfg, jobs, ctx);
    eprintln!(
        "serve dispatch: {} unit(s), {} already cached, {} fleet-completed, {} lease reclaim(s){}",
        outcome.jobs,
        outcome.satisfied_upfront,
        outcome.completed,
        outcome.reclaims,
        if outcome.timed_out {
            "; wait budget expired — computing the rest in-process"
        } else {
            ""
        }
    );
    req.run_json(ctx)
}

struct Request {
    method: String,
    path: String,
    body: String,
    /// The client asked for (or its HTTP version defaults to) connection
    /// close after this response.
    close: bool,
}

/// What one attempt to read a request produced.
enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean EOF or idle timeout *before any request bytes*: the normal
    /// end of a keep-alive session — close silently, nothing to answer.
    Quiet,
    /// A broken or oversized request, as a ready-to-send `(status,
    /// body)`; the connection closes after the error response.
    Failed(u16, String),
}

/// Reads and parses one HTTP/1.x request. The caller sets the read
/// timeout for the *first* byte (the keep-alive idle window); once
/// request bytes start arriving this switches to the per-read
/// [`REQUEST_READ`] deadline.
fn read_request(stream: &mut TcpStream) -> ReadOutcome {
    use ReadOutcome::Failed;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD {
            return Failed(413, error_body("request head too large"));
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return ReadOutcome::Quiet,
            Ok(0) => return Failed(400, error_body("connection closed mid-request")),
            Ok(n) => {
                if buf.is_empty() {
                    // First bytes of a request: idle window over, the
                    // per-request read deadline applies from here.
                    let _ = stream.set_read_timeout(Some(REQUEST_READ));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if is_timeout(&e) && buf.is_empty() => return ReadOutcome::Quiet,
            Err(e) => return Failed(408, error_body(&format!("read failed: {e}"))),
        }
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head,
        Err(_) => return Failed(400, error_body("request head is not UTF-8")),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let (method, path, http11) = match parse_request_line(request_line) {
        Ok(parsed) => parsed,
        Err(e) => return Failed(400, error_body(&format!("malformed request line: {e}"))),
    };
    let mut content_length = 0usize;
    let mut connection: Option<String> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return Failed(400, error_body("bad Content-Length")),
                };
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header overrides either way.
    let close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => !http11,
    };
    if content_length > MAX_BODY {
        return Failed(413, error_body("request body too large"));
    }
    let mut body_bytes = buf[head_end + 4..].to_vec();
    while body_bytes.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Failed(400, error_body("connection closed mid-body")),
            Ok(n) => body_bytes.extend_from_slice(&chunk[..n]),
            Err(e) => return Failed(408, error_body(&format!("read failed: {e}"))),
        }
    }
    body_bytes.truncate(content_length);
    let body = match String::from_utf8(body_bytes) {
        Ok(body) => body,
        Err(_) => return Failed(400, error_body("request body is not UTF-8")),
    };
    ReadOutcome::Request(Request {
        method,
        path,
        body,
        close,
    })
}

/// Whether `e` is a read-timeout (both kinds a blocking socket with
/// `SO_RCVTIMEO` reports, platform-dependent).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// Parses an HTTP/1.x request line into `(method, path, is_http11)`.
/// Pure, so the error taxonomy — empty line, too few tokens, wrong
/// protocol — is unit-testable without a socket. Every failure maps to
/// a 400.
fn parse_request_line(line: &str) -> Result<(String, String, bool), String> {
    let mut parts = line.split_whitespace();
    let Some(method) = parts.next() else {
        return Err("empty request line".into());
    };
    let (Some(path), Some(version)) = (parts.next(), parts.next()) else {
        return Err(format!("expected `METHOD PATH VERSION`, got {line:?}"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version {version:?}"));
    }
    Ok((method.to_string(), path.to_string(), version == "HTTP/1.1"))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn render_response(status: u16, body: &str, close: bool) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    // Every 503 — shed, unready, whatever — carries the pacing hint
    // `varbench query` honors.
    let retry_after = if status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

/// Serves one connection — up to [`MAX_KEEPALIVE_REQUESTS`] requests,
/// keep-alive between them — and returns whether a shutdown request was
/// acknowledged on it.
fn handle_connection(mut stream: TcpStream, state: &ServeState) -> bool {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut shutdown = false;
    for served in 0..MAX_KEEPALIVE_REQUESTS {
        // First request: a whole request-read window. Afterwards: the
        // shorter keep-alive idle window, so a silent client returns
        // this handler to the pool quickly.
        let idle = if served == 0 {
            REQUEST_READ
        } else {
            KEEPALIVE_IDLE
        };
        let _ = stream.set_read_timeout(Some(idle));
        match read_request(&mut stream) {
            ReadOutcome::Request(req) => {
                // A panicking handler (a bug, or a workload assert) must
                // kill one response, not the server.
                let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(state, &req.method, &req.path, &req.body)
                }));
                let (status, body) = routed.unwrap_or_else(|_| {
                    (500, error_body("internal error: request handler panicked"))
                });
                let is_shutdown =
                    status == 200 && req.method == "POST" && req.path == "/v1/shutdown";
                shutdown |= is_shutdown;
                let close = req.close || is_shutdown || served + 1 == MAX_KEEPALIVE_REQUESTS;
                let _ = stream.write_all(render_response(status, &body, close).as_bytes());
                let _ = stream.flush();
                if close {
                    break;
                }
            }
            ReadOutcome::Quiet => break,
            ReadOutcome::Failed(status, body) => {
                let _ = stream.write_all(render_response(status, &body, true).as_bytes());
                let _ = stream.flush();
                break;
            }
        }
    }
    shutdown
}

/// Rejects a connection at the accept gate without reading it: the
/// queue is full, so the client gets an immediate `503` and the
/// listener moves on. Shedding is what keeps the server answering
/// health checks while a burst drains.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let body = error_body("server at capacity; retry with backoff");
    let _ = stream.write_all(render_response(503, &body, true).as_bytes());
    let _ = stream.flush();
    // Drain whatever the client already sent before closing: dropping
    // a socket with unread bytes in its receive buffer turns the close
    // into an RST, which can destroy the 503 on its way out.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 4096];
    while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    handlers: usize,
    queue: usize,
    drain: Duration,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for an
    /// OS-assigned one) with the default pool shape (8 handlers, a
    /// queue of 32 waiting connections) and a 2 s fleet-drain budget.
    pub fn bind(addr: &str, state: ServeState) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(state),
            handlers: DEFAULT_HANDLERS,
            queue: DEFAULT_QUEUE,
            drain: Duration::from_secs(2),
        })
    }

    /// Overrides the drain budget: how long shutdown waits for fleet
    /// workers to finish their in-flight row before killing them.
    pub fn with_drain(mut self, drain: Duration) -> Server {
        self.drain = drain;
        self
    }

    /// Overrides the pool shape: `handlers` concurrent request threads
    /// (clamped to at least 1) fed by a queue holding up to `queue`
    /// waiting connections. `queue = 0` is a rendezvous: a connection
    /// is either handed to an idle handler immediately or shed.
    pub fn with_pool(mut self, handlers: usize, queue: usize) -> Server {
        self.handlers = handlers.max(1);
        self.queue = queue;
        self
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a `POST /v1/shutdown` is acknowledged,
    /// dispatching each to the handler pool — or shedding it with a
    /// `503` when the pool and queue are both full — then drains
    /// queued and in-flight requests and returns.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(self.queue);
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::with_capacity(self.handlers);
        for _ in 0..self.handlers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            let shutdown_flag = Arc::clone(&shutdown);
            workers.push(std::thread::spawn(move || loop {
                // Hold the lock only to dequeue, never while handling,
                // so the other handlers keep draining the queue.
                let next = { rx.lock().expect("accept queue lock").recv() };
                let Ok(stream) = next else { break };
                if handle_connection(stream, &state) {
                    shutdown_flag.store(true, Ordering::SeqCst);
                    // Poke the accept loop so it observes the flag; the
                    // poke connection is accepted and dropped unserved.
                    let _ = TcpStream::connect(addr);
                }
            }));
        }
        for conn in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(std::sync::mpsc::TrySendError::Full(stream)) => shed(stream),
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => break,
            }
        }
        // Closing the sender lets each handler finish its queue drain
        // and fall out of `recv()`.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        // In-flight requests are done; now drain the fleet — stop file,
        // bounded wait, kill stragglers, release held leases.
        if let Some(fleet) = self.state.fleet() {
            let d = fleet.shutdown(self.drain);
            eprintln!(
                "serve: fleet drained ({} exited, {} killed, {} lease(s) released)",
                d.exited, d.killed, d.leases_released
            );
        }
        Ok(())
    }
}

/// A response as the client transport sees it: status, body, and the
/// two headers the clients act on.
struct RawResponse {
    status: u16,
    /// `Retry-After` seconds, when the server sent one (503s do).
    retry_after: Option<u64>,
    /// The server announced it will close the connection.
    close: bool,
    body: String,
}

fn write_request(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    close: bool,
) -> std::io::Result<()> {
    let body = body.unwrap_or("");
    let connection = if close { "close" } else { "keep-alive" };
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
             Connection: {connection}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.flush()
}

/// Reads one Content-Length-framed response. EOF before a complete
/// response maps to `ConnectionAborted` — the server died mid-exchange,
/// which is a *transient* transport failure for the retrying clients
/// (the restarted server answers the retry from its warm cache).
fn read_response(stream: &mut TcpStream) -> std::io::Result<RawResponse> {
    let aborted = || {
        std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "connection closed before a complete response",
        )
    };
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        match stream.read(&mut chunk)? {
            0 => return Err(aborted()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    let invalid =
        || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response head");
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid())?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(invalid)?;
    let mut content_length: Option<usize> = None;
    let mut retry_after = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse().map_err(|_| invalid())?);
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let content_length = content_length.ok_or_else(invalid)?;
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk)? {
            0 => return Err(aborted()),
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| invalid())?;
    Ok(RawResponse {
        status,
        retry_after,
        close,
        body,
    })
}

/// A minimal std-only HTTP/1.1 client for one request/response exchange
/// (`Connection: close`) — the `varbench query` transport, the CI smoke
/// test's curl replacement, and the serve bench driver.
///
/// `body = None` sends a bare request (GET-style); `Some` posts it.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let resp = http_request_raw(addr, method, path, body)?;
    Ok((resp.status, resp.body))
}

fn http_request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<RawResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write_request(&mut stream, addr, method, path, body, true)?;
    read_response(&mut stream)
}

/// A keep-alive HTTP/1.1 client: one connection reused across
/// requests, reconnecting transparently when the server closes it (idle
/// timeout, per-connection request cap, or restart). The serve bench
/// uses this to measure reused-connection throughput; anything issuing
/// many requests against one server should prefer it over per-request
/// [`http_request`].
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr` (eagerly, so a dead server fails here, not on
    /// the first request).
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        Ok(HttpClient {
            addr,
            stream: Some(Self::open(addr)?),
        })
    }

    fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(stream)
    }

    /// One request/response exchange over the held connection. A failed
    /// exchange on a *reused* connection (the server idle-closed it
    /// under us) is retried once on a fresh connection before the error
    /// surfaces.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        for fresh in [false, true] {
            if fresh || self.stream.is_none() {
                self.stream = Some(Self::open(self.addr)?);
            }
            let stream = self.stream.as_mut().expect("connection just ensured");
            let exchange = write_request(stream, self.addr, method, path, body, false)
                .and_then(|()| read_response(stream));
            match exchange {
                Ok(resp) => {
                    if resp.close {
                        self.stream = None;
                    }
                    return Ok((resp.status, resp.body));
                }
                Err(e) if fresh => return Err(e),
                Err(_) => self.stream = None,
            }
        }
        unreachable!("second iteration returns either way")
    }
}

/// [`http_request`] with bounded retry under `policy`'s backoff
/// schedule — the `varbench query --retries` transport. Retried:
/// *transport* failures (connection refused/reset/aborted and timeouts:
/// the server is starting up, restarting, or died mid-exchange) and
/// `503` responses (load shedding or an unready fleet), pausing at
/// least the server's `Retry-After` hint — clamped to the policy's
/// per-pause cap, schedule-paced, no wall clock. Any other HTTP
/// response is an answer and is returned as-is; exhaustion surfaces the
/// last transport error or the last `503`.
pub fn http_request_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &varbench_core::retry::RetryPolicy,
) -> std::io::Result<(u16, String)> {
    let mut attempt = 0u32;
    loop {
        match http_request_raw(addr, method, path, body) {
            Ok(resp) if resp.status == 503 => match policy.backoff_after(attempt) {
                Some(pause) => {
                    let hinted =
                        Duration::from_secs(resp.retry_after.unwrap_or(0)).min(policy.max_pause());
                    std::thread::sleep(pause.max(hinted));
                    attempt += 1;
                }
                None => return Ok((resp.status, resp.body)),
            },
            Ok(resp) => return Ok((resp.status, resp.body)),
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::Interrupted
                );
                match policy.backoff_after(attempt) {
                    Some(pause) if transient => std::thread::sleep(pause),
                    _ => return Err(e),
                }
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let head_end = find_head_end(raw)?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let body = String::from_utf8(raw[head_end + 4..].to_vec()).ok()?;
    Some((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::json_envelope;

    fn state() -> ServeState {
        ServeState::new(RunContext::serial_cached())
    }

    #[test]
    fn route_serves_discovery_endpoints() {
        let s = state();
        let (status, body) = route(&s, "GET", "/health", "");
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}\n"));

        // The whole body is pinned: order, names, metrics and sources.
        let (status, body) = route(&s, "GET", "/v1/workloads", "");
        assert_eq!(status, 200);
        let golden = concat!(
            "{\"workloads\":[",
            "{\"name\":\"glue-rte-bert\",\"metric\":\"accuracy\",\"sources\":[\"data_split\",\"weights_init\",\"data_order\",\"dropout\",\"hyperopt\"]},",
            "{\"name\":\"glue-sst2-bert\",\"metric\":\"accuracy\",\"sources\":[\"data_split\",\"weights_init\",\"data_order\",\"dropout\",\"hyperopt\"]},",
            "{\"name\":\"mhc-mlp\",\"metric\":\"AUC\",\"sources\":[\"data_split\",\"weights_init\",\"data_order\",\"hyperopt\"]},",
            "{\"name\":\"pascalvoc-resnet\",\"metric\":\"mean IoU\",\"sources\":[\"data_split\",\"weights_init\",\"data_order\",\"numerical_noise\",\"hyperopt\"]},",
            "{\"name\":\"cifar10-vgg11\",\"metric\":\"accuracy\",\"sources\":[\"data_split\",\"data_augment\",\"weights_init\",\"data_order\",\"hyperopt\"]},",
            "{\"name\":\"linear-logreg\",\"metric\":\"accuracy\",\"sources\":[\"data_split\",\"weights_init\",\"data_order\",\"hyperopt\"]},",
            "{\"name\":\"synthetic-ridge\",\"metric\":\"AUC\",\"sources\":[\"data_split\",\"hyperopt\"]}",
            "]}\n",
        );
        assert_eq!(body, golden);

        let (status, body) = route(&s, "GET", "/v1/artifacts", "");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("artifacts body is valid JSON");
        let items = doc.get("artifacts").and_then(Json::as_array).unwrap();
        assert_eq!(items.len(), registry::all().len());

        let (status, body) = route(&s, "GET", "/v1/cache/stats", "");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("stats body is valid JSON");
        assert_eq!(doc.get("full_hits").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("coalesced").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn route_maps_errors_to_statuses() {
        let s = state();
        assert_eq!(route(&s, "GET", "/nope", "").0, 404);
        assert_eq!(route(&s, "POST", "/health", "").0, 405);
        assert_eq!(route(&s, "GET", "/v1/run", "").0, 405);
        let (status, body) = route(&s, "POST", "/v1/run", "{not json");
        assert_eq!(status, 400);
        assert!(body.contains("invalid JSON"), "{body}");
        let (status, body) = route(&s, "POST", "/v1/run", "");
        assert_eq!(status, 400);
        assert!(body.contains("JSON object"), "{body}");
        let (status, body) = route(&s, "POST", "/v1/study", r#"{"workload":"nope"}"#);
        assert_eq!(status, 400);
        assert!(body.contains("unknown workload"), "{body}");
    }

    #[test]
    fn route_run_matches_cli_bytes_and_reuses_the_cache() {
        let s = state();
        let (status, body) = route(
            &s,
            "POST",
            "/v1/run",
            r#"{"artifacts":["workload-synth"],"effort":"test"}"#,
        );
        assert_eq!(status, 200);
        let spec = registry::find("workload-synth").unwrap();
        let report = spec.run(Effort::Test, &RunContext::serial());
        let expect = json_envelope(Effort::Test, &[report.to_json()]) + "\n";
        assert_eq!(body, expect, "serve response == CLI --json stdout");

        let computed = s.ctx().cache().stats().rows_computed;
        assert!(computed > 0, "cold request computed the matrices");
        // Same request again: answered entirely from the shared cache.
        let (status, warm) = route(
            &s,
            "POST",
            "/v1/run",
            r#"{"artifacts":["workload-synth"],"effort":"test"}"#,
        );
        assert_eq!(status, 200);
        assert_eq!(warm, body, "warm response is bit-identical");
        assert_eq!(
            s.ctx().cache().stats().rows_computed,
            computed,
            "warm request computed nothing new"
        );
    }

    #[test]
    fn server_round_trips_over_a_real_socket() {
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        let (status, body) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}\n"));

        let study = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#;
        let (status, body) = http_request(addr, "POST", "/v1/study", Some(study)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(
            body.starts_with("{\"schema\":\"varbench-report/1\""),
            "{body}"
        );
        assert!(body.ends_with('\n'));

        let (status, _) = http_request(addr, "GET", "/bogus", None).unwrap();
        assert_eq!(status, 404);

        let (status, body) = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("shutting_down"), "{body}");
        handle
            .join()
            .expect("server thread exits cleanly")
            .expect("accept loop exits without io error");
    }

    #[test]
    fn request_line_parser_names_each_failure() {
        let err = parse_request_line("").unwrap_err();
        assert!(err.contains("empty request line"), "{err}");

        let err = parse_request_line("GET").unwrap_err();
        assert!(err.contains("expected `METHOD PATH VERSION`"), "{err}");

        let err = parse_request_line("GET /health").unwrap_err();
        assert!(err.contains("expected `METHOD PATH VERSION`"), "{err}");

        let err = parse_request_line("BLARGH blargh blargh").unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");

        let err = parse_request_line("GET /health HTTP/2").unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");

        let ok = parse_request_line("POST /v1/study HTTP/1.1").unwrap();
        assert_eq!(ok, ("POST".to_string(), "/v1/study".to_string(), true));
        let ok = parse_request_line("GET /health HTTP/1.0").unwrap();
        assert!(!ok.2, "HTTP/1.0 is accepted but not 1.1");
    }

    #[test]
    fn full_queue_sheds_connections_with_503() {
        // One handler, rendezvous queue: a connection is either handed
        // to the idle handler immediately or shed.
        let server = Server::bind("127.0.0.1:0", state())
            .expect("bind loopback")
            .with_pool(1, 0);
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        // Prove the pipeline works (retrying: right after startup the
        // handler may not have reached the queue yet, shedding the
        // probe), then give the handler time to return to the queue.
        loop {
            let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
            if status == 200 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        std::thread::sleep(Duration::from_millis(200));

        // Occupy the single handler with a half-sent request: it
        // blocks reading the head, holding the only handler slot.
        let mut hog = TcpStream::connect(addr).unwrap();
        hog.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(200));

        // The next connection finds no idle handler and no queue room.
        let (status, body) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("at capacity"), "{body}");

        // Releasing the hog frees the handler; service resumes.
        drop(hog);
        std::thread::sleep(Duration::from_millis(200));
        let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        // A rendezvous queue can shed even the shutdown request (the
        // handler may not be back on the queue yet): retry until acked.
        loop {
            let (status, _) = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
            if status == 200 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn retry_transport_exhausts_on_dead_addr_and_passes_responses_through() {
        use varbench_core::retry::RetryPolicy;

        // Dead address: retries, exhausts the budget, surfaces the
        // last transport error.
        let dead = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
            // listener dropped: nothing is bound here any more
        };
        let policy = RetryPolicy::new(3).initial_backoff(Duration::from_millis(1));
        let err = http_request_retry(dead, "GET", "/health", None, &policy).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

        // A live server's responses — including error statuses — pass
        // through without burning retry attempts on them.
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());
        let policy = RetryPolicy::new(5).initial_backoff(Duration::from_millis(1));
        let (status, _) = http_request_retry(addr, "GET", "/health", None, &policy).unwrap();
        assert_eq!(status, 200);
        let (status, _) = http_request_retry(addr, "GET", "/bogus", None, &policy).unwrap();
        assert_eq!(status, 404, "HTTP errors are answers, not outages");
        let _ = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        let mut client = HttpClient::connect(addr).expect("connect");
        let baseline = http_request(addr, "GET", "/health", None).unwrap();
        for _ in 0..5 {
            let (status, body) = client.request("GET", "/health", None).unwrap();
            assert_eq!((status, body), baseline, "keep-alive bytes == one-shot");
        }
        // Mixed methods and bodies frame correctly back to back.
        let study = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#;
        let (status, first) = client.request("POST", "/v1/study", Some(study)).unwrap();
        assert_eq!(status, 200, "{first}");
        let (_, second) = client.request("POST", "/v1/study", Some(study)).unwrap();
        assert_eq!(second, first, "warm keep-alive replay is byte-identical");
        drop(client);

        let _ = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn ready_reflects_fleet_health() {
        // No fleet: always ready.
        let s = state();
        let (status, body) = route(&s, "GET", "/v1/ready", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"fleet\":null"), "{body}");

        // A fleet whose only worker dies on arrival quarantines; ready
        // flips to 503 once no slot is live.
        #[cfg(unix)]
        {
            use crate::supervisor::SupervisorConfig;
            use varbench_core::retry::RetryPolicy;
            let dir = std::env::temp_dir().join(format!("varbench-ready-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = SupervisorConfig::new(&dir, 1);
            cfg.argv = Some(vec!["/bin/sh".into(), "-c".into(), "exit 1".into()]);
            cfg.respawn = RetryPolicy::new(1);
            cfg.poll = Duration::from_millis(5);
            let s = state().with_fleet(Supervisor::start(cfg).unwrap());
            let mut last = (0, String::new());
            for _ in 0..500 {
                last = route(&s, "GET", "/v1/ready", "");
                if last.0 == 503 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(last.0, 503, "{}", last.1);
            assert!(last.1.contains("\"ready\":false"), "{}", last.1);
            assert!(last.1.contains("\"quarantined\":1"), "{}", last.1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn dispatched_study_without_a_fleet_falls_back_and_matches_plain_bytes() {
        use varbench_core::exec::Runner;
        use varbench_pipeline::MeasureCache;
        let dir = std::env::temp_dir().join(format!("varbench-dispatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let s = ServeState::new(ctx)
            .with_dispatch_tuning(Duration::from_millis(100), Duration::from_millis(50));
        let req = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3,"dispatch":true}"#;
        let (status, served) = route(&s, "POST", "/v1/study", req);
        assert_eq!(status, 200, "{served}");
        // Same study, no dispatch, fresh in-memory state: identical bytes.
        let plain_req = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#;
        let (_, plain) = route(&state(), "POST", "/v1/study", plain_req);
        assert_eq!(served, plain, "dispatch fallback == in-process bytes");
        assert!(
            varbench_pipeline::lease::scan_queue(&dir).is_empty(),
            "leftover jobs cancelled"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // Dispatch against a memory-only cache is a client error, not a
        // hang: there is no queue directory a fleet could watch.
        let (status, body) = route(&state(), "POST", "/v1/study", req);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("disk-backed cache"), "{body}");
    }

    #[test]
    fn malformed_requests_get_4xx_not_hangs() {
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        // Garbage request line.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"BLARGH\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let (status, _) = parse_response(&raw).expect("well-formed error response");
        assert_eq!(status, 400);

        // Connection dropped before the head completes.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
        drop(s);

        // Server still answers afterwards.
        let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        let _ = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        handle.join().unwrap().unwrap();
    }
}
