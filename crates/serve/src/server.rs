//! The daemon: a TCP listener serving the newline-delimited JSON
//! protocol of [`crate::proto`] from a byte-budgeted LRU registry
//! ([`crate::registry::SessionRegistry`]) of geometry-keyed
//! [`SharedSession`]s.
//!
//! One thread accepts connections; each connection gets its own handler
//! thread. The daemon is built to stay healthy under hostile load:
//!
//! * **Admission control** — at most
//!   [`ServeConfig::max_connections`] handler threads exist at once
//!   (excess connections get one typed `overloaded` response and a
//!   close); a solve waits at most [`ServeConfig::checkout_wait_ms`]
//!   for a scratch slot (split over a few jittered attempts) before it
//!   is shed with `overloaded` + `retry_after_ms`; an optional
//!   per-connection request rate cap ([`ServeConfig::max_rps_per_conn`])
//!   sheds pipelined floods the same way without closing the
//!   connection.
//! * **Deadlines** — every solve carries a wall-clock deadline (its
//!   `deadline_ms`, or [`ServeConfig::deadline_default_ms`]) that
//!   propagates into the engine outer loops as a cooperative
//!   cancellation check; expiry surfaces as a typed
//!   `deadline-exceeded` error, never a hung request.
//! * **Bounded framing** — a request line longer than
//!   [`ServeConfig::max_line_bytes`] or a partial line stalled longer
//!   than ten seconds gets `malformed-request` and a close, so no
//!   client can grow the read buffer (or park a handler) without bound.
//! * **Fault injection** — [`ServeConfig::chaos`] (or the
//!   `VOLTPROP_CHAOS` environment variable) makes the daemon abuse its
//!   own clients — dropped, truncated, and stalled responses, starved
//!   solves — so soak tests can assert the server survives abuse.
//!
//! Shutdown is graceful: a `shutdown` request (or
//! [`ServerHandle::shutdown`]) stops the accept loop, handler threads
//! notice within their read-timeout tick, and every thread is joined
//! before the handle returns — [`ServerHandle::stats`] then shows
//! `handlers_spawned == handlers_finished` (the no-leaked-threads
//! invariant the soak suite asserts).

use std::io::{BufRead, BufReader, ErrorKind as IoKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use voltprop_core::{Deadline, LoadCase, SessionError, SharedSession, TryCheckout, VpConfig};
use voltprop_grid::rng::SmallRng;
use voltprop_grid::Stack3d;
use voltprop_solvers::SolverError;

use crate::chaos::{ChaosConfig, ResponseFate};
use crate::json::Json;
use crate::proto::{
    parse_request, BuildPolicy, ErrorKind, Request, ServeError, SolveRequest, PROTOCOL_VERSION,
};
use crate::registry::SessionRegistry;

/// How often blocked reads wake up to check the stop flag.
const POLL_TICK: Duration = Duration::from_millis(100);

/// How long a partial request line may sit without progress before the
/// connection is closed (anti-slowloris: a handler thread is never
/// parked indefinitely on a half-written line).
const PARTIAL_LINE_STALL: Duration = Duration::from_secs(10);

/// Admission attempts a solve's checkout wait is split across.
const ADMISSION_ATTEMPTS: u32 = 3;

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Scratch slots per cached session — the number of solves one
    /// geometry serves concurrently before requests queue.
    pub slots: usize,
    /// Worker-thread parallelism each session is built with.
    pub parallelism: usize,
    /// Connection cap: accepts beyond this many live handler threads
    /// get one typed `overloaded` response and are closed unserved.
    pub max_connections: usize,
    /// Registry byte budget: once cached sessions exceed it, idle ones
    /// are evicted least-recently-used-first (`usize::MAX` = unbounded).
    pub registry_bytes: usize,
    /// Default wall-clock budget in milliseconds applied to solves that
    /// do not set their own `deadline_ms` (`0` = no default deadline).
    pub deadline_default_ms: u64,
    /// Longest a solve waits for a scratch slot before it is shed with
    /// a typed `overloaded` error.
    pub checkout_wait_ms: u64,
    /// Per-connection request rate cap (requests per second, `0` =
    /// unlimited). Excess requests get `overloaded` + `retry_after_ms`
    /// without closing the connection.
    pub max_rps_per_conn: u32,
    /// Longest accepted request line in bytes; longer lines get
    /// `malformed-request` and a close.
    pub max_line_bytes: usize,
    /// Fault injection (off by default; see [`ChaosConfig`]).
    pub chaos: ChaosConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            slots: 4,
            parallelism: 1,
            max_connections: 64,
            registry_bytes: usize::MAX,
            deadline_default_ms: 0,
            checkout_wait_ms: 250,
            max_rps_per_conn: 0,
            max_line_bytes: 1 << 20,
            chaos: ChaosConfig::OFF,
        }
    }
}

/// Monotonic counters kept by the daemon (see [`ServeStats`]).
#[derive(Debug, Default)]
struct Counters {
    connections_accepted: AtomicU64,
    connections_shed: AtomicU64,
    requests: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    malformed: AtomicU64,
    chaos_faults: AtomicU64,
    handlers_spawned: AtomicU64,
    handlers_finished: AtomicU64,
}

/// A point-in-time snapshot of the daemon's health counters, read via
/// [`ServerHandle::stats`]. After [`ServerHandle::shutdown`] returns,
/// `handlers_spawned == handlers_finished` must hold — the soak suite
/// asserts it as the no-leaked-threads invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections admitted to a handler thread.
    pub connections_accepted: u64,
    /// Connections refused at the cap (one `overloaded` line, closed).
    pub connections_shed: u64,
    /// Request lines dispatched (any op, any outcome).
    pub requests: u64,
    /// Requests shed with a typed `overloaded` error.
    pub overloaded: u64,
    /// Solves that expired with a typed `deadline-exceeded` error.
    pub deadline_exceeded: u64,
    /// Connections closed for oversized or stalled request lines.
    pub malformed_closes: u64,
    /// Responses the chaos layer dropped, truncated, or stalled.
    pub chaos_faults: u64,
    /// Handler threads ever spawned.
    pub handlers_spawned: u64,
    /// Handler threads that have run to completion.
    pub handlers_finished: u64,
    /// Cached sessions in the registry.
    pub sessions: usize,
    /// Bytes the cached sessions occupy.
    pub registry_bytes: usize,
    /// Sessions evicted by the byte budget since startup.
    pub registry_evictions: u64,
}

/// State shared between the accept loop and every connection handler.
struct Shared {
    stop: AtomicBool,
    registry: SessionRegistry,
    config: ServeConfig,
    /// Live handler threads (admission-control connection count).
    connections: AtomicUsize,
    /// Total connections ever admitted (chaos stream ordinal).
    ordinal: AtomicU64,
    counters: Counters,
}

/// A running daemon. Dropping the handle shuts the daemon down and joins
/// its threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// Signals shutdown and joins the accept loop and all connection
    /// handlers. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop; it re-checks the flag per connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Blocks until the daemon stops (a `shutdown` request arrives),
    /// joining all of its threads.
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// The daemon's health counters. Safe to call at any point; after
    /// [`ServerHandle::shutdown`] (or [`ServerHandle::wait`] returning)
    /// the counters are final and `handlers_spawned ==
    /// handlers_finished` holds.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        let reg = self.shared.registry.stats();
        ServeStats {
            connections_accepted: c.connections_accepted.load(Ordering::SeqCst),
            connections_shed: c.connections_shed.load(Ordering::SeqCst),
            requests: c.requests.load(Ordering::SeqCst),
            overloaded: c.overloaded.load(Ordering::SeqCst),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::SeqCst),
            malformed_closes: c.malformed.load(Ordering::SeqCst),
            chaos_faults: c.chaos_faults.load(Ordering::SeqCst),
            handlers_spawned: c.handlers_spawned.load(Ordering::SeqCst),
            handlers_finished: c.handlers_finished.load(Ordering::SeqCst),
            sessions: reg.sessions,
            registry_bytes: reg.total_bytes,
            registry_evictions: reg.evictions,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `addr` and starts serving in background threads.
///
/// # Errors
///
/// Propagates the listener bind failure; everything after the bind is
/// reported per-request on the wire instead.
pub fn serve(addr: impl ToSocketAddrs, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        registry: SessionRegistry::new(config.registry_bytes.max(1)),
        config,
        connections: AtomicUsize::new(0),
        ordinal: AtomicU64::new(0),
        counters: Counters::default(),
    });
    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(&listener, addr, &accept_shared));
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

fn accept_loop(listener: &TcpListener, addr: SocketAddr, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Each response goes out as one write; without this,
                // Nagle's algorithm can hold it until the client's
                // delayed ACK (~40 ms) arrives.
                let _ = stream.set_nodelay(true);
                // Reap finished handlers eagerly (join is immediate for
                // them) so the vec tracks only live threads.
                let mut live = Vec::with_capacity(handlers.len());
                for handler in handlers {
                    if handler.is_finished() {
                        let _ = handler.join();
                    } else {
                        live.push(handler);
                    }
                }
                handlers = live;
                // Connection cap: the increment happens here, before the
                // spawn, so a burst of accepts cannot over-admit.
                let open = shared.connections.fetch_add(1, Ordering::SeqCst);
                if open >= shared.config.max_connections {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    shed_connection(stream, shared);
                    continue;
                }
                shared
                    .counters
                    .connections_accepted
                    .fetch_add(1, Ordering::SeqCst);
                shared
                    .counters
                    .handlers_spawned
                    .fetch_add(1, Ordering::SeqCst);
                let ordinal = shared.ordinal.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || {
                    // Count the exit (and release the connection slot)
                    // even if the handler panics.
                    let _guard = HandlerGuard(&conn_shared);
                    handle_connection(stream, addr, &conn_shared, ordinal);
                }));
            }
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    for handler in handlers {
        let _ = handler.join();
    }
}

/// Decrements the live-connection count and records the handler exit on
/// drop — unwind-safe bookkeeping for `accept_loop`'s admission cap and
/// the no-leaked-threads accounting.
struct HandlerGuard<'a>(&'a Arc<Shared>);

impl Drop for HandlerGuard<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
        self.0
            .counters
            .handlers_finished
            .fetch_add(1, Ordering::SeqCst);
    }
}

/// Refuses a connection at the cap: one typed `overloaded` response,
/// then close. No handler thread is spawned for it.
fn shed_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    shared
        .counters
        .connections_shed
        .fetch_add(1, Ordering::SeqCst);
    shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
    let err = ServeError::overloaded(
        format!(
            "connection limit ({}) reached",
            shared.config.max_connections
        ),
        retry_after_hint(&mut SmallRng::new(
            shared.ordinal.load(Ordering::SeqCst) ^ 0xc0a1,
        )),
    );
    let _ = stream.set_write_timeout(Some(POLL_TICK));
    let _ = write_line(&mut stream, err.to_response());
}

/// A jittered `retry_after_ms` hint in 25–75 ms: load spreads instead
/// of re-arriving in one synchronized wave.
fn retry_after_hint(rng: &mut SmallRng) -> u64 {
    25 + rng.next_u64() % 51
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (without the newline) is in the buffer.
    Line,
    /// The peer closed the connection.
    Closed,
    /// Read-timeout tick: check the stop flag, then resume.
    Tick,
    /// The line exceeded `max_line_bytes` before its newline arrived.
    TooLong,
    /// Unrecoverable socket error.
    Failed,
}

/// Reads until a newline, the byte cap, EOF, or the poll tick — at most
/// `max_bytes` of one line are ever buffered, so a malicious client
/// cannot grow memory without bound. Partial data persists in `buf`
/// across `Tick` returns.
fn read_bounded_line(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max_bytes: usize,
) -> LineRead {
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return LineRead::Closed,
            Ok(chunk) => chunk,
            Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {
                return LineRead::Tick
            }
            Err(e) if e.kind() == IoKind::Interrupted => continue,
            Err(_) => return LineRead::Failed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                let take = &chunk[..pos];
                if buf.len() + take.len() > max_bytes {
                    reader.consume(pos + 1);
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(take);
                reader.consume(pos + 1);
                return LineRead::Line;
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > max_bytes {
                    reader.consume(len);
                    return LineRead::TooLong;
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
                // No newline yet; loop for more (or a Tick).
            }
        }
    }
}

/// Per-connection request-rate limiter: a one-second counting window.
struct RateWindow {
    started: Instant,
    count: u32,
}

impl RateWindow {
    fn new() -> RateWindow {
        RateWindow {
            started: Instant::now(),
            count: 0,
        }
    }

    /// Admits or sheds one request; on shed, returns how many
    /// milliseconds remain in the window (the natural retry hint).
    fn admit(&mut self, limit: u32) -> Result<(), u64> {
        if limit == 0 {
            return Ok(());
        }
        let elapsed = self.started.elapsed();
        if elapsed >= Duration::from_secs(1) {
            self.started = Instant::now();
            self.count = 0;
        }
        if self.count >= limit {
            let left = Duration::from_secs(1).saturating_sub(elapsed);
            return Err((left.as_millis() as u64).max(1));
        }
        self.count += 1;
        Ok(())
    }
}

fn handle_connection(stream: TcpStream, addr: SocketAddr, shared: &Arc<Shared>, ordinal: u64) {
    // The read timeout turns blocked reads into periodic stop-flag
    // checks so shutdown can drain every handler.
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let mut writer = match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut rate = RateWindow::new();
    let mut chaos_rng = shared.config.chaos.rng_for_connection(ordinal);
    let mut partial_since: Option<Instant> = None;
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match read_bounded_line(&mut reader, &mut buf, shared.config.max_line_bytes) {
            LineRead::Closed | LineRead::Failed => return,
            LineRead::Tick => {
                // A partial line making no progress parks this handler;
                // bound that (anti-slowloris) like any other abuse.
                match partial_since {
                    None if !buf.is_empty() => partial_since = Some(Instant::now()),
                    Some(since) if since.elapsed() > PARTIAL_LINE_STALL => {
                        shared.counters.malformed.fetch_add(1, Ordering::SeqCst);
                        let err = ServeError::new(
                            ErrorKind::MalformedRequest,
                            "request line stalled without a newline",
                        );
                        let _ = write_line(&mut writer, err.to_response());
                        return;
                    }
                    _ => {}
                }
                continue;
            }
            LineRead::TooLong => {
                shared.counters.malformed.fetch_add(1, Ordering::SeqCst);
                let err = ServeError::new(
                    ErrorKind::MalformedRequest,
                    format!(
                        "request line exceeds the {} byte limit",
                        shared.config.max_line_bytes
                    ),
                );
                // Framing is unrecoverable mid-line: answer, then close.
                let _ = write_line(&mut writer, err.to_response());
                return;
            }
            LineRead::Line => {
                partial_since = None;
                let line = match std::str::from_utf8(&buf) {
                    Ok(line) => line.trim().to_string(),
                    Err(_) => {
                        // Non-UTF-8 on the wire: line framing survives
                        // (the newline was found), but the request is
                        // garbage; answer typed and close like before.
                        shared.counters.malformed.fetch_add(1, Ordering::SeqCst);
                        let err = ServeError::new(
                            ErrorKind::MalformedRequest,
                            "request line is not valid UTF-8",
                        );
                        let _ = write_line(&mut writer, err.to_response());
                        return;
                    }
                };
                buf.clear();
                if line.is_empty() {
                    continue;
                }
                shared.counters.requests.fetch_add(1, Ordering::SeqCst);
                let (response, stop_after) = match rate.admit(shared.config.max_rps_per_conn) {
                    Ok(()) => handle_line(shared, &line, &mut chaos_rng),
                    Err(left_ms) => {
                        shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
                        let err = ServeError::overloaded(
                            format!(
                                "per-connection rate limit ({}/s) exceeded",
                                shared.config.max_rps_per_conn
                            ),
                            left_ms,
                        );
                        (err.to_response(), false)
                    }
                };
                if deliver(shared, &mut writer, response, &mut chaos_rng).is_err() {
                    return;
                }
                if stop_after {
                    shared.stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it drains.
                    let _ = TcpStream::connect(addr);
                    return;
                }
            }
        }
    }
}

/// Writes one response through the chaos layer: delivered verbatim with
/// chaos off; possibly dropped, truncated, or stalled with it on. `Err`
/// means the connection is done (fault-injected or real I/O failure).
fn deliver(
    shared: &Arc<Shared>,
    writer: &mut TcpStream,
    response: String,
    rng: &mut SmallRng,
) -> Result<(), ()> {
    let chaos = &shared.config.chaos;
    match chaos.response_fate(rng, response.len()) {
        ResponseFate::Deliver => write_line(writer, response).map_err(|_| ()),
        ResponseFate::Drop => {
            shared.counters.chaos_faults.fetch_add(1, Ordering::SeqCst);
            Err(())
        }
        ResponseFate::Truncate { keep } => {
            shared.counters.chaos_faults.fetch_add(1, Ordering::SeqCst);
            let _ = writer.write_all(&response.as_bytes()[..keep]);
            let _ = writer.flush();
            Err(())
        }
        ResponseFate::SlowThenDeliver => {
            shared.counters.chaos_faults.fetch_add(1, Ordering::SeqCst);
            // Stall in poll-tick slices so shutdown still drains us.
            let mut left = Duration::from_millis(chaos.slow_ms);
            while !left.is_zero() && !shared.stop.load(Ordering::SeqCst) {
                let nap = left.min(POLL_TICK);
                std::thread::sleep(nap);
                left -= nap;
            }
            write_line(writer, response).map_err(|_| ())
        }
    }
}

/// Sends `response` and its newline in one write (the newline is
/// appended to the owned line, not copied with it).
fn write_line(writer: &mut TcpStream, mut response: String) -> std::io::Result<()> {
    response.push('\n');
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

/// Dispatches one request line to a `(response, stop_after)` pair. Every
/// failure mode is a typed error response — this function never panics
/// and never asks for the connection to be dropped.
fn handle_line(shared: &Arc<Shared>, line: &str, chaos_rng: &mut SmallRng) -> (String, bool) {
    match parse_request(line) {
        Err(e) => (e.to_response(), false),
        Ok(Request::Ping) => (
            Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("pong".to_string(), Json::Bool(true)),
            ])
            .to_string(),
            false,
        ),
        Ok(Request::Info) => {
            let reg = shared.registry.stats();
            (
                Json::Obj(vec![
                    ("ok".to_string(), Json::Bool(true)),
                    ("protocol".to_string(), Json::from(PROTOCOL_VERSION)),
                    ("sessions".to_string(), Json::from(reg.sessions)),
                    ("slots".to_string(), Json::from(shared.config.slots)),
                    (
                        "parallelism".to_string(),
                        Json::from(shared.config.parallelism),
                    ),
                    ("registry_bytes".to_string(), Json::from(reg.total_bytes)),
                    (
                        "registry_budget_bytes".to_string(),
                        Json::Num(if reg.budget_bytes == usize::MAX {
                            -1.0
                        } else {
                            reg.budget_bytes as f64
                        }),
                    ),
                    ("evictions".to_string(), Json::from(reg.evictions as usize)),
                    (
                        "connections".to_string(),
                        Json::from(shared.connections.load(Ordering::SeqCst)),
                    ),
                    (
                        "max_connections".to_string(),
                        Json::from(shared.config.max_connections),
                    ),
                    (
                        "deadline_default_ms".to_string(),
                        Json::from(shared.config.deadline_default_ms as usize),
                    ),
                    (
                        "chaos".to_string(),
                        Json::Bool(shared.config.chaos.enabled()),
                    ),
                ])
                .to_string(),
                false,
            )
        }
        Ok(Request::Shutdown) => (
            Json::Obj(vec![
                ("ok".to_string(), Json::Bool(true)),
                ("stopping".to_string(), Json::Bool(true)),
            ])
            .to_string(),
            true,
        ),
        Ok(Request::Solve(req)) => (
            solve(shared, &req, chaos_rng).unwrap_or_else(|e| e.to_response()),
            false,
        ),
    }
}

fn solve(
    shared: &Arc<Shared>,
    req: &SolveRequest,
    chaos_rng: &mut SmallRng,
) -> Result<String, ServeError> {
    // The deadline clock starts at request receipt: queueing, admission
    // waits, and the solve itself all spend from one budget.
    let deadline = match req.deadline_ms.or(match shared.config.deadline_default_ms {
        0 => None,
        ms => Some(ms),
    }) {
        Some(ms) => Deadline::after(Duration::from_millis(ms)),
        None => Deadline::NONE,
    };
    let stack = req.stack.build_stack()?;
    let hash = req.stack.geometry_hash();
    let (session, cached) = lookup_session(shared, hash, &stack, req.build)?;

    let mut case = LoadCase::new(&stack)
        .net(req.net)
        .backend(req.backend)
        .deadline(deadline);
    if let Some(params) = req.params {
        case = case.params(params);
    }
    if shared.config.chaos.force_breakdown(chaos_rng) {
        // Starve the budgets so the solve fails like a sick kernel.
        shared.counters.chaos_faults.fetch_add(1, Ordering::SeqCst);
        case = case.params(
            voltprop_core::SolveParams::new()
                .epsilon(1e-300)
                .max_outer_iterations(1)
                .inner_tolerance(1e-300)
                .max_inner_sweeps(1),
        );
    }

    let solution = admit_and_solve(shared, &session, &case, deadline)?;
    let view = solution.view();
    let report = view.report();

    let mut members = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("geometry".to_string(), Json::from(format!("{hash:016x}"))),
        ("cached".to_string(), Json::Bool(cached)),
        ("backend".to_string(), Json::from(backend_name(req.backend))),
        ("converged".to_string(), Json::Bool(view.converged())),
        (
            "iterations".to_string(),
            Json::from(report.outer_iterations),
        ),
        ("sweeps".to_string(), Json::from(report.inner_sweeps)),
        ("residual".to_string(), Json::from(report.pad_mismatch)),
        ("nodes".to_string(), Json::from(view.nodes())),
        (
            "worst_drop".to_string(),
            Json::from(view.worst_drop(stack.vdd())),
        ),
    ];
    if req.voltages {
        members.push((
            "voltages".to_string(),
            Json::Arr(view.voltages().iter().map(|&v| Json::Num(v)).collect()),
        ));
    }
    Ok(Json::Obj(members).to_string())
}

/// Admission control around one solve: the bounded checkout wait is
/// split into [`ADMISSION_ATTEMPTS`] slices with jittered pauses
/// between them (a saturated pool sheds load spread out, not in lock
/// step), and the whole wait is additionally capped by the request's
/// deadline. A pool still busy at the end sheds the request with a
/// typed `overloaded` + `retry_after_ms`.
fn admit_and_solve<'s>(
    shared: &Arc<Shared>,
    session: &'s SharedSession,
    case: &LoadCase<'_>,
    deadline: Deadline,
) -> Result<voltprop_core::SharedSolution<'s>, ServeError> {
    let mut jitter = SmallRng::new(
        shared.counters.requests.load(Ordering::SeqCst) ^ shared.config.chaos.seed ^ 0x51ce,
    );
    let slice = Duration::from_millis(shared.config.checkout_wait_ms) / ADMISSION_ATTEMPTS;
    for attempt in 0..ADMISSION_ATTEMPTS {
        // Never wait past the request's own deadline.
        let wait = match deadline.remaining() {
            Some(left) if left < slice => left,
            _ => slice,
        };
        match session.try_solve_for(case, wait) {
            Ok(TryCheckout::Ready(solution)) => return Ok(solution),
            Ok(TryCheckout::Busy) => {
                if deadline.expired() {
                    break;
                }
                if attempt + 1 < ADMISSION_ATTEMPTS {
                    // Jittered backoff between attempts: 1–5 ms.
                    std::thread::sleep(Duration::from_millis(1 + jitter.next_u64() % 5));
                }
            }
            Err(e) => return Err(map_session_error(shared, e)),
        }
    }
    shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
    Err(ServeError::overloaded(
        format!(
            "all {} scratch slots stayed busy for {} ms",
            session.slots(),
            shared.config.checkout_wait_ms
        ),
        retry_after_hint(&mut jitter),
    ))
}

/// Resolves the session serving `hash`, honoring the build policy.
/// Factoring a new session happens outside the registry lock so a slow
/// build never blocks requests against already-cached geometries; a
/// concurrent duplicate build loses the insert race and is dropped.
fn lookup_session(
    shared: &Arc<Shared>,
    hash: u64,
    stack: &Stack3d,
    policy: BuildPolicy,
) -> Result<(Arc<SharedSession>, bool), ServeError> {
    let mut collided = false;
    if let Some(session) = shared.registry.get(hash) {
        if session.serves(stack) {
            return Ok((session, true));
        }
        // A 64-bit hash collision between distinct geometries: serve
        // correctness over cache residency by rebuilding below.
        collided = true;
    }
    if policy == BuildPolicy::Reject {
        return Err(ServeError::new(
            ErrorKind::GeometryNotCached,
            format!(
                "geometry {hash:016x} is not in the registry and the request set \"build\":\"reject\""
            ),
        ));
    }
    let config = VpConfig::default().parallelism(shared.config.parallelism);
    let session = SharedSession::build(stack, config, shared.config.slots)
        .map_err(|e| ServeError::new(ErrorKind::Build, e.to_string()))?;
    let session = Arc::new(session);
    let session = if collided {
        shared.registry.replace(hash, session)
    } else {
        shared.registry.insert(hash, session)
    };
    if !session.serves(stack) {
        // Lost the insert race to a *different* colliding geometry;
        // serve this request off-registry rather than thrash the entry.
        let session = SharedSession::build(stack, config, shared.config.slots)
            .map_err(|e| ServeError::new(ErrorKind::Build, e.to_string()))?;
        return Ok((Arc::new(session), false));
    }
    Ok((session, false))
}

fn map_session_error(shared: &Arc<Shared>, e: SessionError) -> ServeError {
    let kind = match &e {
        SessionError::BackendUnavailable { .. } => ErrorKind::BackendUnavailable,
        SessionError::Solver(SolverError::DeadlineExceeded { .. }) => {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::SeqCst);
            ErrorKind::DeadlineExceeded
        }
        _ => ErrorKind::Solver,
    };
    ServeError::new(kind, e.to_string())
}

fn backend_name(backend: voltprop_core::Backend) -> &'static str {
    match backend {
        voltprop_core::Backend::VoltProp => "voltprop",
        voltprop_core::Backend::Rb3d => "rb3d",
        voltprop_core::Backend::Pcg => "pcg",
        // `Backend` is non-exhaustive; name future variants once the
        // protocol grows words for them.
        _ => "unknown",
    }
}
