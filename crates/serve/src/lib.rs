//! `voltprop-serve` — a zero-dependency JSON-over-TCP daemon serving
//! IR-drop solves from registry-cached
//! [`SharedSession`](voltprop_core::SharedSession)s.
//!
//! The daemon keeps one prefactored session per distinct grid geometry
//! (keyed by a hash of the geometry fields, never the loads) and serves
//! concurrent solve requests against it through the session's bounded
//! scratch checkout pool: up to `slots` requests solve in parallel,
//! later arrivals queue briefly, and sustained excess is shed with
//! typed errors. The wire protocol is newline-delimited JSON — see
//! [`proto`] for the request/response schema.
//!
//! ```no_run
//! use voltprop_serve::{request, serve, ServeConfig};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = serve("127.0.0.1:0", ServeConfig::default())?;
//! let reply = request(
//!     server.addr(),
//!     r#"{"op":"solve","stack":{"width":8,"height":8,"tiers":2,"loads":1e-4}}"#,
//! )?;
//! assert!(reply.contains("\"ok\":true"));
//! # Ok(())
//! # }
//! ```
//!
//! # Operating voltprop-serve
//!
//! The daemon is engineered to degrade predictably under overload
//! instead of queueing unboundedly. Operators control four limits (all
//! [`ServeConfig`] fields, all exposed as `voltprop-serve` CLI flags):
//!
//! * **`max_connections`** (`--max-connections`) — the connection cap.
//!   A connection accepted past the cap receives exactly one
//!   `overloaded` error line (with a `retry_after_ms` hint) and is
//!   closed; no handler thread is spawned for it.
//! * **`registry_bytes`** (`--registry-bytes`) — the session cache
//!   budget. Each cached geometry costs
//!   [`SharedSession::memory_bytes`](voltprop_core::SharedSession::memory_bytes);
//!   past the budget, idle sessions are evicted
//!   least-recently-used-first. Sessions with in-flight solves are
//!   never evicted — the registry runs over budget until they drain
//!   rather than invalidate live work.
//! * **`deadline_default_ms`** (`--deadline-default-ms`) — the default
//!   wall-clock budget per solve, counted from request receipt through
//!   queueing and the solve itself. Requests may override it with their
//!   own `"deadline_ms"`. Expiry is cooperative (checked between
//!   engine iterations) and surfaces as a typed `deadline-exceeded`
//!   error; a request without either deadline may run arbitrarily
//!   long.
//! * **`checkout_wait_ms` / `max_rps_per_conn` / `max_line_bytes`** —
//!   the admission-control knobs: the bounded wait for a scratch slot
//!   before a solve is shed `overloaded`; an optional per-connection
//!   request rate cap (shed without closing); and the request-line
//!   length cap (`malformed-request`, then close — the only overload
//!   response that closes an admitted connection, because framing is
//!   unrecoverable mid-line).
//!
//! ## The retry contract
//!
//! Every shed is a typed `overloaded` error carrying `retry_after_ms`.
//! Clients should back off at least that long (the hint is jittered
//! server-side, so honoring it avoids synchronized retry waves) and
//! may then retry idempotently — solves are pure functions of their
//! request. `deadline-exceeded` means the work itself exceeded its
//! budget: retrying with the same deadline will likely fail again;
//! raise `deadline_ms`, relax the solve tolerances, or drop `slots`
//! contention instead.
//!
//! ## Fault injection
//!
//! For hardening tests, [`ChaosConfig`] (the `VOLTPROP_CHAOS`
//! environment variable or [`ServeConfig::chaos`]) makes the daemon
//! drop, truncate, and stall its own responses and starve solves at
//! configurable rates. [`ServerHandle::stats`] exposes the counters
//! soak tests assert on: after [`ServerHandle::shutdown`],
//! `handlers_spawned == handlers_finished` (no leaked threads), the
//! registry within budget, and every shed accounted for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod json;
pub mod proto;
pub mod registry;
mod server;

pub use chaos::{ChaosConfig, ResponseFate};
pub use registry::{RegistryStats, SessionRegistry};
pub use server::{serve, ServeConfig, ServeStats, ServerHandle};

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A persistent client connection: send request lines, read response
/// lines, keep the socket open across requests.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates the underlying connect failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests go out as one write each; never hold one back for
        // the daemon's delayed ACK.
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and blocks for the matching response line
    /// (without its trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates socket failures; an empty read (server closed the
    /// connection) surfaces as [`std::io::ErrorKind::UnexpectedEof`].
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let stream = self.reader.get_mut();
        stream.write_all(&framed)?;
        stream.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }
}

/// One-shot convenience: connect, send one request line, return the
/// response line. Used by the CI smoke step and `--smoke`.
///
/// # Errors
///
/// Propagates the underlying socket failures.
pub fn request(addr: impl ToSocketAddrs, line: &str) -> std::io::Result<String> {
    Client::connect(addr)?.request(line)
}
