//! The serve wire protocol: newline-delimited JSON requests and
//! responses, typed request parsing, and the geometry hash that keys the
//! session registry.
//!
//! # Requests
//!
//! Every request is one JSON object on one line with an `"op"` member:
//!
//! * `{"op":"ping"}` — liveness probe.
//! * `{"op":"info"}` — registry statistics.
//! * `{"op":"shutdown"}` — ask the daemon to stop accepting and drain.
//! * `{"op":"solve","stack":{…},…}` — a solve (see [`SolveRequest`]).
//!
//! A solve request describes the stack inline:
//!
//! ```json
//! {"op":"solve",
//!  "stack":{"width":16,"height":16,"tiers":3,"vdd":1.0,
//!           "wire_resistance":0.5,"tsv_resistance":0.05,
//!           "pad_resistance":0.01,"tsv_pitch":2,
//!           "loads":1e-4},
//!  "net":"power","backend":"voltprop",
//!  "params":{"epsilon":1e-6,"precision":"f64"},
//!  "build":"allow","voltages":false}
//! ```
//!
//! `"loads"` is either one number (uniform per-node draw) or an array of
//! `width*height*tiers` per-node values. Everything except
//! `width`/`height`/`tiers` is optional. `"build":"reject"` refuses to
//! factor a new session when the stack's geometry hash is not already in
//! the registry; the default (`"allow"`) builds and caches it.
//!
//! # Responses
//!
//! One JSON object per line. Success responses carry `"ok":true`;
//! failures carry `"ok":false` and a typed
//! `"error":{"kind":…,"message":…}` object. The server never answers a
//! request by dropping the connection.

use crate::json::Json;
use voltprop_core::{Backend, SolveParams};
use voltprop_grid::{NetKind, Stack3d, TsvPattern};

/// Wire protocol version reported by `info` responses.
pub const PROTOCOL_VERSION: usize = 1;

/// A typed request failure, serialized as the `"error"` member of a
/// response. The `kind` is machine-matchable; the message is for humans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Shedding hint rendered as `"retry_after_ms"` in the error object:
    /// how long a well-behaved client should back off before retrying.
    /// Only [`ErrorKind::Overloaded`] responses set it.
    pub retry_after_ms: Option<u64>,
}

/// Machine-readable error categories of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON or not a JSON object.
    MalformedRequest,
    /// The request was well-formed JSON but semantically invalid
    /// (unknown op, missing field, bad enum value, bad load vector…).
    BadRequest,
    /// `"build":"reject"` was set and the stack's geometry hash is not
    /// in the registry.
    GeometryNotCached,
    /// Building a session for the requested stack failed.
    Build,
    /// The requested backend cannot be served by the cached session.
    BackendUnavailable,
    /// The solve itself failed (e.g. convergence budget exhausted).
    Solver,
    /// The request's wall-clock deadline (its `deadline_ms`, or the
    /// server default) expired before the solve finished. The partial
    /// solve was abandoned cooperatively.
    DeadlineExceeded,
    /// The server shed the request under load: every scratch slot stayed
    /// busy for the admission window, the connection cap was hit, or the
    /// per-connection rate limit tripped. The error object carries a
    /// `retry_after_ms` backoff hint.
    Overloaded,
}

impl ErrorKind {
    /// The wire name of the category.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::MalformedRequest => "malformed-request",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::GeometryNotCached => "geometry-not-cached",
            ErrorKind::Build => "build-error",
            ErrorKind::BackendUnavailable => "backend-unavailable",
            ErrorKind::Solver => "solver-error",
            ErrorKind::DeadlineExceeded => "deadline-exceeded",
            ErrorKind::Overloaded => "overloaded",
        }
    }
}

impl ServeError {
    /// A typed error with no retry hint.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError {
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    fn bad(message: impl Into<String>) -> ServeError {
        ServeError::new(ErrorKind::BadRequest, message)
    }

    /// An [`ErrorKind::Overloaded`] shed carrying a backoff hint.
    pub fn overloaded(message: impl Into<String>, retry_after_ms: u64) -> ServeError {
        ServeError {
            kind: ErrorKind::Overloaded,
            message: message.into(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// Serializes the error as a complete response line (without the
    /// trailing newline).
    pub fn to_response(&self) -> String {
        let mut members = vec![
            ("kind".to_string(), Json::from(self.kind.as_str())),
            ("message".to_string(), Json::from(self.message.clone())),
        ];
        if let Some(ms) = self.retry_after_ms {
            members.push(("retry_after_ms".to_string(), Json::Num(ms as f64)));
        }
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(false)),
            ("error".to_string(), Json::Obj(members)),
        ])
        .to_string()
    }
}

/// Whether a solve may factor a new session on a registry miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BuildPolicy {
    /// Build and cache a session for an unseen geometry (the default).
    #[default]
    Allow,
    /// Refuse with [`ErrorKind::GeometryNotCached`] on a registry miss.
    Reject,
}

/// Per-node current loads of a solve request.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSpec {
    /// The same draw at every node.
    Uniform(f64),
    /// Explicit per-node values (`width*height*tiers` entries).
    Explicit(Vec<f64>),
}

/// The inline stack description of a solve request. Geometry fields
/// (everything except `loads`) feed the registry hash; loads are free to
/// vary between requests on one cached session.
#[derive(Debug, Clone, PartialEq)]
pub struct StackSpec {
    /// Nodes along x per tier.
    pub width: usize,
    /// Nodes along y per tier.
    pub height: usize,
    /// Number of stacked tiers.
    pub tiers: usize,
    /// Supply voltage; `None` keeps the builder default.
    pub vdd: Option<f64>,
    /// Uniform wire resistance; `None` keeps the builder default.
    pub wire_resistance: Option<f64>,
    /// TSV pillar resistance; `None` keeps the builder default.
    pub tsv_resistance: Option<f64>,
    /// Package pad resistance; `None` keeps the builder default.
    pub pad_resistance: Option<f64>,
    /// Uniform TSV lattice pitch; `None` keeps the builder default.
    pub tsv_pitch: Option<usize>,
    /// Per-node current draws.
    pub loads: LoadSpec,
}

impl StackSpec {
    /// FNV-1a hash over the geometry fields — deliberately *not* the
    /// loads, so load-only variations of one grid share a registry
    /// entry.
    pub fn geometry_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.usize(self.width);
        h.usize(self.height);
        h.usize(self.tiers);
        h.opt_f64(self.vdd);
        h.opt_f64(self.wire_resistance);
        h.opt_f64(self.tsv_resistance);
        h.opt_f64(self.pad_resistance);
        h.usize(self.tsv_pitch.map_or(usize::MAX, |p| p));
        h.finish()
    }

    /// Materializes the spec into a [`Stack3d`].
    ///
    /// # Errors
    ///
    /// [`ErrorKind::BadRequest`] when the grid model rejects the spec
    /// (zero dimension, load-vector length mismatch, …).
    pub fn build_stack(&self) -> Result<Stack3d, ServeError> {
        let mut builder = Stack3d::builder(self.width, self.height, self.tiers);
        if let Some(v) = self.vdd {
            builder = builder.vdd(v);
        }
        if let Some(r) = self.wire_resistance {
            builder = builder.wire_resistance(r);
        }
        if let Some(r) = self.tsv_resistance {
            builder = builder.tsv_resistance(r);
        }
        if let Some(r) = self.pad_resistance {
            builder = builder.pad_resistance(r);
        }
        if let Some(pitch) = self.tsv_pitch {
            builder = builder.tsv_pattern(TsvPattern::Uniform { pitch });
        }
        builder = match &self.loads {
            LoadSpec::Uniform(amps) => builder.uniform_load(*amps),
            LoadSpec::Explicit(loads) => builder.loads(loads.clone()),
        };
        builder
            .build()
            .map_err(|e| ServeError::bad(format!("invalid stack: {e}")))
    }
}

/// A fully-parsed solve request.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// The stack to solve.
    pub stack: StackSpec,
    /// Which supply net to analyze.
    pub net: NetKind,
    /// Which solver backend to route through.
    pub backend: Backend,
    /// Per-request solve parameters overriding the session defaults.
    pub params: Option<SolveParams>,
    /// Registry-miss policy.
    pub build: BuildPolicy,
    /// Whether the response should carry the full voltage vector.
    pub voltages: bool,
    /// Wall-clock budget for this request in milliseconds. `None` defers
    /// to the server's configured default.
    pub deadline_ms: Option<u64>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Registry statistics.
    Info,
    /// Stop accepting and drain.
    Shutdown,
    /// A solve.
    Solve(Box<SolveRequest>),
}

/// Parses one request line into a typed [`Request`].
///
/// # Errors
///
/// [`ErrorKind::MalformedRequest`] for invalid JSON,
/// [`ErrorKind::BadRequest`] for well-formed JSON that violates the
/// protocol. Never panics on any input.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let value = Json::parse(line)
        .map_err(|e| ServeError::new(ErrorKind::MalformedRequest, format!("invalid JSON: {e}")))?;
    if !matches!(value, Json::Obj(_)) {
        return Err(ServeError::new(
            ErrorKind::MalformedRequest,
            "request must be a JSON object",
        ));
    }
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::bad("missing string member \"op\""))?;
    match op {
        "ping" => Ok(Request::Ping),
        "info" => Ok(Request::Info),
        "shutdown" => Ok(Request::Shutdown),
        "solve" => Ok(Request::Solve(Box::new(parse_solve(&value)?))),
        other => Err(ServeError::bad(format!(
            "unknown op {other:?} (expected ping, info, shutdown, or solve)"
        ))),
    }
}

fn parse_solve(value: &Json) -> Result<SolveRequest, ServeError> {
    let stack = parse_stack(
        value
            .get("stack")
            .ok_or_else(|| ServeError::bad("solve requires a \"stack\" object"))?,
    )?;
    let net = match value.get("net").map(|v| (v, v.as_str())) {
        None => NetKind::Power,
        Some((_, Some("power"))) => NetKind::Power,
        Some((_, Some("ground"))) => NetKind::Ground,
        Some(_) => return Err(ServeError::bad("\"net\" must be \"power\" or \"ground\"")),
    };
    let backend = match value.get("backend").map(|v| (v, v.as_str())) {
        None => Backend::VoltProp,
        Some((_, Some("voltprop"))) => Backend::VoltProp,
        Some((_, Some("rb3d"))) => Backend::Rb3d,
        Some((_, Some("pcg"))) => Backend::Pcg,
        Some(_) => {
            return Err(ServeError::bad(
                "\"backend\" must be \"voltprop\", \"rb3d\", or \"pcg\"",
            ))
        }
    };
    let params = match value.get("params") {
        None | Some(Json::Null) => None,
        Some(p) => Some(parse_params(p)?),
    };
    let build = match value.get("build").map(|v| (v, v.as_str())) {
        None => BuildPolicy::Allow,
        Some((_, Some("allow"))) => BuildPolicy::Allow,
        Some((_, Some("reject"))) => BuildPolicy::Reject,
        Some(_) => return Err(ServeError::bad("\"build\" must be \"allow\" or \"reject\"")),
    };
    let voltages = match value.get("voltages") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ServeError::bad("\"voltages\" must be a bool"))?,
    };
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .filter(|&ms| ms > 0)
                .map(|ms| ms as u64)
                .ok_or_else(|| ServeError::bad("\"deadline_ms\" must be a positive integer"))?,
        ),
    };
    Ok(SolveRequest {
        stack,
        net,
        backend,
        params,
        build,
        voltages,
        deadline_ms,
    })
}

fn parse_stack(value: &Json) -> Result<StackSpec, ServeError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(ServeError::bad("\"stack\" must be a JSON object"));
    }
    let dim = |name: &str| -> Result<usize, ServeError> {
        value
            .get(name)
            .and_then(Json::as_usize)
            .filter(|&n| n > 0)
            .ok_or_else(|| ServeError::bad(format!("stack.{name} must be a positive integer")))
    };
    let opt_num = |name: &str| -> Result<Option<f64>, ServeError> {
        match value.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| ServeError::bad(format!("stack.{name} must be a number"))),
        }
    };
    let width = dim("width")?;
    let height = dim("height")?;
    let tiers = dim("tiers")?;
    let tsv_pitch = match value.get("tsv_pitch") {
        None | Some(Json::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .filter(|&p| p > 0)
                .ok_or_else(|| ServeError::bad("stack.tsv_pitch must be a positive integer"))?,
        ),
    };
    let loads =
        match value.get("loads") {
            None | Some(Json::Null) => {
                return Err(ServeError::bad(
                    "stack.loads must be a number (uniform) or an array of per-node values",
                ))
            }
            Some(Json::Num(amps)) => LoadSpec::Uniform(*amps),
            Some(Json::Arr(items)) => {
                let expected = width * height * tiers;
                if items.len() != expected {
                    return Err(ServeError::bad(format!(
                        "stack.loads has {} entries, expected width*height*tiers = {expected}",
                        items.len()
                    )));
                }
                let mut loads = Vec::with_capacity(items.len());
                for item in items {
                    loads.push(item.as_f64().ok_or_else(|| {
                        ServeError::bad("stack.loads entries must all be numbers")
                    })?);
                }
                LoadSpec::Explicit(loads)
            }
            Some(_) => {
                return Err(ServeError::bad(
                    "stack.loads must be a number (uniform) or an array of per-node values",
                ))
            }
        };
    Ok(StackSpec {
        width,
        height,
        tiers,
        vdd: opt_num("vdd")?,
        wire_resistance: opt_num("wire_resistance")?,
        tsv_resistance: opt_num("tsv_resistance")?,
        pad_resistance: opt_num("pad_resistance")?,
        tsv_pitch,
        loads,
    })
}

fn parse_params(value: &Json) -> Result<SolveParams, ServeError> {
    if !matches!(value, Json::Obj(_)) {
        return Err(ServeError::bad("\"params\" must be a JSON object"));
    }
    let num = |name: &str| -> Result<Option<f64>, ServeError> {
        match value.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_f64()
                .map(Some)
                .ok_or_else(|| ServeError::bad(format!("params.{name} must be a number"))),
        }
    };
    let count = |name: &str| -> Result<Option<usize>, ServeError> {
        match value.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v.as_usize().map(Some).ok_or_else(|| {
                ServeError::bad(format!("params.{name} must be a non-negative integer"))
            }),
        }
    };
    let mut params = SolveParams::new();
    if let Some(v) = num("epsilon")? {
        params = params.epsilon(v);
    }
    if let Some(v) = num("damping")? {
        params = params.damping(v);
    }
    if let Some(v) = count("max_outer_iterations")? {
        params = params.max_outer_iterations(v);
    }
    if let Some(v) = num("sor_omega")? {
        params = params.sor_omega(v);
    }
    if let Some(v) = num("inner_tolerance")? {
        params = params.inner_tolerance(v);
    }
    if let Some(v) = count("max_inner_sweeps")? {
        params = params.max_inner_sweeps(v);
    }
    // Every solve runs in f64: `"f64"` is accepted and changes nothing.
    // Any other value is refused, so a client still asking for the
    // removed mixed precision is told rather than silently served f64.
    match value.get("precision") {
        None | Some(Json::Null) => {}
        Some(v) if v.as_str() == Some("f64") => {}
        Some(_) => {
            return Err(ServeError::bad(
                "params.precision: mixed precision was removed; only \"f64\" is accepted",
            ))
        }
    }
    Ok(params)
}

/// Incremental FNV-1a 64-bit hasher over canonical little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            // Distinguish "absent" from any real value.
            None => self.bytes(&[0]),
            Some(x) => {
                self.bytes(&[1]);
                self.bytes(&x.to_bits().to_le_bytes());
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(line: &str) -> SolveRequest {
        match parse_request(line).unwrap() {
            Request::Solve(req) => *req,
            other => panic!("expected solve, got {other:?}"),
        }
    }

    #[test]
    fn ops_parse() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"op\":\"info\"}").unwrap(), Request::Info);
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn solve_defaults() {
        let req = spec(
            "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1e-4}}",
        );
        assert_eq!(req.net, NetKind::Power);
        assert_eq!(req.backend, Backend::VoltProp);
        assert_eq!(req.build, BuildPolicy::Allow);
        assert!(req.params.is_none());
        assert!(!req.voltages);
        assert!(req.stack.build_stack().is_ok());
    }

    #[test]
    fn hash_ignores_loads_but_not_geometry() {
        let a = spec(
            "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1e-4}}",
        );
        let b = spec(
            "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":2e-3}}",
        );
        let c = spec(
            "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":3,\"loads\":1e-4}}",
        );
        assert_eq!(a.stack.geometry_hash(), b.stack.geometry_hash());
        assert_ne!(a.stack.geometry_hash(), c.stack.geometry_hash());
    }

    #[test]
    fn deadline_ms_parses_and_validates() {
        let req = spec(
            "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1e-4},\"deadline_ms\":250}",
        );
        assert_eq!(req.deadline_ms, Some(250));
        let req = spec(
            "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1e-4}}",
        );
        assert_eq!(req.deadline_ms, None);
        for bad in ["0", "-5", "\"fast\"", "1.5"] {
            let line = format!(
                "{{\"op\":\"solve\",\"stack\":{{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1e-4}},\"deadline_ms\":{bad}}}"
            );
            let err = parse_request(&line).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "for deadline_ms={bad}");
        }
    }

    #[test]
    fn overloaded_renders_retry_after_hint() {
        let err = ServeError::overloaded("all slots busy", 40);
        let back = Json::parse(&err.to_response()).unwrap();
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(false));
        let error = back.get("error").unwrap();
        assert_eq!(error.get("kind").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(
            error.get("retry_after_ms").and_then(Json::as_usize),
            Some(40)
        );
        // Errors without a hint must not render the member at all.
        let plain = ServeError::new(ErrorKind::Solver, "x");
        assert!(!plain.to_response().contains("retry_after_ms"));
    }

    #[test]
    fn precision_accepts_only_f64() {
        let line = |p: &str| {
            format!(
                "{{\"op\":\"solve\",\"stack\":{{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1}},\"params\":{{\"precision\":\"{p}\"}}}}"
            )
        };
        // `"f64"`, the only precision, parses and changes nothing.
        assert_eq!(spec(&line("f64")).params, Some(SolveParams::new()));
        let err = parse_request(&line("mixedf32")).unwrap_err();
        assert!(
            err.message.contains("mixed precision was removed"),
            "{err:?}"
        );
    }

    #[test]
    fn typed_errors_not_panics() {
        let cases: &[(&str, ErrorKind)] = &[
            ("not json", ErrorKind::MalformedRequest),
            ("[1,2,3]", ErrorKind::MalformedRequest),
            ("{\"op\":\"fly\"}", ErrorKind::BadRequest),
            ("{\"op\":\"solve\"}", ErrorKind::BadRequest),
            (
                "{\"op\":\"solve\",\"stack\":{\"width\":0,\"height\":8,\"tiers\":2,\"loads\":1}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":[1,2]}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1},\"backend\":\"gpu\"}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1},\"params\":{\"precision\":\"f16\"}}",
                ErrorKind::BadRequest,
            ),
            (
                "{\"op\":\"solve\",\"stack\":{\"width\":8,\"height\":8,\"tiers\":2,\"loads\":1},\"params\":{\"precision\":\"mixedf32\"}}",
                ErrorKind::BadRequest,
            ),
        ];
        for (line, kind) in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, *kind, "for {line:?}");
            // The error must serialize into a well-formed response line.
            let rendered = err.to_response();
            let back = Json::parse(&rendered).unwrap();
            assert_eq!(back.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(
                back.get("error")
                    .and_then(|e| e.get("kind"))
                    .and_then(Json::as_str),
                Some(err.kind.as_str())
            );
        }
    }
}
