//! `serve_mixed`: many tools sharing one daemon. An in-process
//! `voltprop_serve::serve` on 127.0.0.1:0 (parallelism 1, 2 slots, a
//! registry budget that holds the hot geometries plus two cold ones)
//! takes an open-loop mix on two connections:
//!
//! * ~80% uniform-load solves on three hot geometries (64, 96, 128 ×3);
//! * ~10% explicit per-node loads on 128×128×3 (request-heavy lines);
//! * ~7% `"voltages": true` on 64×64×3 (response-heavy);
//! * ~3% cold 64×64×3 geometries with a distinct wire resistance, each
//!   forcing a registry build and an LRU eviction.
//!
//! Power and ground are split evenly. With ideal pads a ground answer's
//! `worst_drop` is VDD whatever the interior holds, so the first and
//! then every fourth ground request of each class and geometry also
//! asks for its voltages, which are checked node by node. The other
//! ground answers can only be checked by their flags, and are counted
//! as flag-checked.
//!
//! The offered rate climbs a doubling ladder from 12 rps until a rung
//! misses p95 ≤ 100 ms or the generator's lateness keeps growing.
//! Latency counts from the time a request was due. Two closed-loop
//! phases on the same mix follow: serial clients (one request in flight
//! per connection), whose send-to-answer latencies give the reported
//! `latency_p50_ms` and `latency_p95_ms`, then the daemon's capacity at
//! eight in flight.
//!
//! The latencies come from the serial phase because the 12 rps rung's p50 is
//! not steady on a shared host: that rung is mostly idle, so its per-class
//! medians move by a fifth between runs of one seed, and its median falls
//! where the share of answers held back by a delayed ACK (about one in
//! six) decides which class it lands in. A serial client meets the
//! daemon's delayed-ACK floor on every answer. The p95 comes from the same
//! answers, so the two describe one distribution; the 12 rps rung's p50
//! and p95 stay in the metrics' notes.
//!
//! The generator owns its sockets: `TCP_NODELAY`, every line rendered
//! (newline included) before timing starts and sent with one
//! `write_all`, a sender and a receiver thread per connection, so the
//! latency floor it measures belongs to the daemon. The receiver stamps
//! each answer's arrival, then checks it and keeps only the verdict.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use voltprop_bench::alloc;
use voltprop_core::{LoadCase, Session, SharedSession, TryCheckout, VpConfig};
use voltprop_grid::{NetKind, Stack3d};
use voltprop_serve::json::Json;
use voltprop_serve::proto::{parse_request, LoadSpec, Request, StackSpec};
use voltprop_serve::{serve, ServeConfig, ServerHandle, SessionRegistry};

use crate::check::{self, pcg_reference, rail, Deviation};
use crate::stats::{self, median, Metric};
use crate::sys::{Rng, MIB};
use crate::trace::Tracer;
use crate::{Budget, Outcome, SHORT_SETUP_ROUNDS};

const TIERS: usize = 3;
const HOT_EDGES: [usize; 3] = [64, 96, 128];
const EXPLICIT_EDGE: usize = 128;
const VOLTAGES_EDGE: usize = 64;
const COLD_EDGE: usize = 64;
/// Seeded per-node load patterns; explicit requests send them in turn.
const EXPLICIT_PATTERNS: usize = 4;
/// Distinct cold geometries; cold requests take them in turn, so one
/// recurs only long after the registry has evicted it.
const COLD_GEOMETRIES: usize = 32;
/// Of each class's and geometry's ground requests, the first and then
/// every this many-th also ask for their voltages.
const GROUND_VOLTAGES_EVERY: usize = 4;
/// Uniform per-node draw the references are solved at.
const REF_AMPS: f64 = 1e-4;
const SLOTS: usize = 2;
const CONNECTIONS: usize = 2;
const FIRST_RUNG_RPS: f64 = 12.0;
/// The ladder's safety cap, 12 · 2⁹ = 6144 rps, far above what a
/// two-slot daemon answers: the ladder stops at its first failing rung
/// well before.
const MAX_RUNGS: usize = 10;
/// Share of `--seconds` the first rung takes. It carries the reported
/// latencies: 192 samples at 20 s, so 10 lie beyond its p95.
const FIRST_RUNG_SHARE: f64 = 0.8;
/// Every higher rung holds its rate this long; the ladder runs after
/// the first rung, so a run lasts `0.8 × --seconds` plus one second per
/// rung climbed, then the closed-loop phases.
const LADDER_RUNG_SECONDS: f64 = 1.0;
/// The capacity phase after the ladder: each connection keeps this many
/// requests in flight, sending the next as an answer arrives, for
/// [`CAPACITY_SECONDS`]. Offered load then follows the daemon, so the
/// answer rate is its capacity at a fixed queue depth; the ladder's
/// failing rung queues without bound and its rate swings with the depth.
const WINDOW: usize = 8;
const CAPACITY_SECONDS: f64 = 4.0;
/// The serial phase before it: each connection keeps one request in
/// flight, as a tool that waits for every answer does, for this long.
const SERIAL_SECONDS: f64 = 4.0;
/// A closed-loop phase's answer rate is taken over this many equal slices
/// of it, so the capacity (the median slice) ignores a stalled slice.
const CAPACITY_BINS: usize = 16;
/// Requests rendered per connection for the closed-loop phases (more
/// than either can send), in blocks of the exact mix.
const CLOSED_REQUESTS: usize = 3000;
const CLOSED_BLOCK: usize = 100;
/// A sender this late gives up the rest of its rung: the rung has failed.
const ABORT_LATE: Duration = Duration::from_secs(2);
const PROBE_SECONDS: f64 = 3.0;
/// A receiver gives up on a daemon that has answered nothing for this long.
const STALL: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Hot,
    Explicit,
    Voltages,
    Cold,
}

const CLASSES: [Class; 4] = [Class::Hot, Class::Explicit, Class::Voltages, Class::Cold];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Explicit => "explicit",
            Class::Voltages => "voltages",
            Class::Cold => "cold",
        }
    }
}

/// What a correct answer looks like, by linearity from a reference.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Power net: `worst_drop` of `scale × reference`, which moves with
    /// the voltage of every node.
    WorstDrop { reference: usize, scale: f64 },
    /// Every voltage of `scale × reference`.
    Voltages { reference: usize, scale: f64 },
    /// Ground net without voltages: with ideal pads the reported
    /// `worst_drop` is VDD whatever the interior holds, so only `ok` and
    /// `converged` can be checked.
    Flags,
}

/// A rendered request.
struct Planned {
    class: Class,
    /// Offset of the due time from the rung start.
    due: Duration,
    line: Arc<[u8]>,
    expect: Expect,
}

/// One reference: a deviation from the rail for one geometry and net.
struct Reference {
    vdd: f64,
    rail: f64,
    dev: Deviation,
}

/// What a connection observed for one request.
struct Observed {
    due: Instant,
    sent: Instant,
    received: Instant,
    correct: bool,
}

fn hot_stack(edge: usize, loads: Option<Vec<f64>>) -> Stack3d {
    let b = Stack3d::builder(edge, edge, TIERS);
    match loads {
        Some(l) => b.loads(l),
        None => b.uniform_load(REF_AMPS),
    }
    .build()
    .expect("valid serve stack")
}

fn cold_stack(wire: f64) -> Stack3d {
    Stack3d::builder(COLD_EDGE, COLD_EDGE, TIERS)
        .wire_resistance(wire)
        .uniform_load(REF_AMPS)
        .build()
        .expect("valid cold stack")
}

/// PCG references for both nets of one stack (at the stack's loads),
/// indexed power then ground.
fn references(stack: &Stack3d, refs: &mut Vec<Reference>) -> [usize; 2] {
    let mut session = Session::build(stack, VpConfig::default()).expect("reference session");
    [NetKind::Power, NetKind::Ground].map(|net| {
        refs.push(Reference {
            vdd: stack.vdd(),
            rail: rail(stack, net),
            dev: pcg_reference(&mut session, stack, net).expect("PCG reference converges"),
        });
        refs.len() - 1
    })
}

fn net_name(net: NetKind) -> &'static str {
    match net {
        NetKind::Power => "power",
        NetKind::Ground => "ground",
    }
}

fn stack_json(edge: usize, wire: Option<f64>, loads: &str) -> String {
    let wire = wire.map_or(String::new(), |w| format!(",\"wire_resistance\":{w}"));
    format!("{{\"width\":{edge},\"height\":{edge},\"tiers\":{TIERS}{wire},\"loads\":{loads}}}")
}

fn request_line(stack: &str, net: NetKind, voltages: bool) -> Arc<[u8]> {
    format!(
        "{{\"op\":\"solve\",\"stack\":{stack},\"net\":\"{}\",\"voltages\":{voltages}}}\n",
        net_name(net)
    )
    .into_bytes()
    .into()
}

/// One rung of the ladder, rendered.
struct Rung {
    rate: f64,
    /// Per connection, in due order.
    schedules: Vec<Vec<Planned>>,
}

/// Everything the run sends, rendered up front, with its references.
struct Plan {
    rungs: Vec<Rung>,
    /// Per connection: the closed-loop phases' requests, in sending order
    /// (empty in a probe).
    closed: Vec<Vec<Planned>>,
    refs: Vec<Reference>,
}

fn rung_seconds(budget: Budget, rung: usize) -> f64 {
    match (budget, rung) {
        (Budget::Timed(limit), 0) => FIRST_RUNG_SHARE * limit.as_secs_f64(),
        (Budget::Timed(_), _) => LADDER_RUNG_SECONDS,
        (Budget::Probe, _) => PROBE_SECONDS,
    }
}

/// One request's draw from the mix.
#[derive(Debug, Clone, Copy)]
struct Draw {
    class: Class,
    /// Index into `HOT_EDGES` (hot requests only).
    geometry: usize,
    net: NetKind,
    /// Load multiple of the reference draw (explicit requests send their
    /// pattern unscaled).
    scale: f64,
    /// Whether the request asks for every node voltage.
    voltages: bool,
}

/// Load multiples of a request, like the ±20% corners of `table1_c3`.
const SCALE_RANGE: (f64, f64) = (0.8, 1.2);

/// The request mix of one connection's rung: exact class shares (every
/// class at least once); the hot geometries in equal turns; within each
/// class and geometry, nets alternating, load scales stratified, and
/// the first and then every [`GROUND_VOLTAGES_EVERY`]-th ground request
/// asking for voltages; all in a seeded order. Runs differ in order,
/// timing and loads, not in proportions, so the work per run is the
/// same.
fn mix(n: usize, rng: &mut Rng) -> Vec<Draw> {
    let share = |p: f64| ((p * n as f64).round() as usize).max(1);
    let (explicit, voltages, cold) = (share(0.10), share(0.07), share(0.03));
    let hot = n.saturating_sub(explicit + voltages + cold);
    let mut groups: Vec<(Class, usize, usize)> = (0..HOT_EDGES.len())
        .map(|g| {
            let count = (0..hot).filter(|k| k % HOT_EDGES.len() == g).count();
            (Class::Hot, g, count)
        })
        .collect();
    groups.extend([
        (Class::Explicit, 0, explicit),
        (Class::Voltages, 0, voltages),
        (Class::Cold, 0, cold),
    ]);
    let mut out = Vec::with_capacity(n);
    for (class, geometry, count) in groups {
        let scales = rng.strata(count, SCALE_RANGE.0, SCALE_RANGE.1);
        for (j, scale) in scales.into_iter().enumerate() {
            let ground = j % 2 == 1;
            out.push(Draw {
                class,
                geometry,
                net: if ground {
                    NetKind::Ground
                } else {
                    NetKind::Power
                },
                scale,
                voltages: class == Class::Voltages || j % (2 * GROUND_VOLTAGES_EVERY) == 1,
            });
        }
    }
    out.truncate(n);
    rng.shuffle(&mut out);
    out
}

fn plan(seed: u64, budget: Budget) -> Plan {
    let mut refs = Vec::new();
    let hot_refs: Vec<[usize; 2]> = HOT_EDGES
        .iter()
        .map(|&e| references(&hot_stack(e, None), &mut refs))
        .collect();
    let voltages_geometry = HOT_EDGES
        .iter()
        .position(|&e| e == VOLTAGES_EDGE)
        .expect("voltages geometry is hot");
    // Explicit patterns: seeded per-node draws, rounded to what the wire
    // carries so the reference solves exactly the sent loads. Each
    // (pattern, net, voltages) line is rendered once and shared.
    let mut rng = Rng::stream(seed, 6);
    let nn = EXPLICIT_EDGE * EXPLICIT_EDGE * TIERS;
    let explicit: Vec<(String, [usize; 2])> = (0..EXPLICIT_PATTERNS)
        .map(|_| {
            let p: Vec<f64> = (0..nn)
                .map(|_| {
                    let v = REF_AMPS * rng.range(0.2, 2.0);
                    format!("{v:.6e}").parse().expect("round trip")
                })
                .collect();
            let loads: Vec<String> = p.iter().map(|v| format!("{v:.6e}")).collect();
            let stack = stack_json(EXPLICIT_EDGE, None, &format!("[{}]", loads.join(",")));
            let r = references(&hot_stack(EXPLICIT_EDGE, Some(p)), &mut refs);
            (stack, r)
        })
        .collect();
    let mut explicit_lines: BTreeMap<(usize, bool, bool), Arc<[u8]>> = BTreeMap::new();
    // Cold geometries: distinct wire resistances, none the hot default;
    // references are built the first time a geometry is planned.
    let cold_wires: Vec<f64> = rng
        .strata(COLD_GEOMETRIES, 0.6, 1.4)
        .into_iter()
        .map(|w| {
            let w = (w * 1e4).round() / 1e4;
            if w == 1.0 {
                1.0001
            } else {
                w
            }
        })
        .collect();
    let mut cold_refs: Vec<Option<[usize; 2]>> = vec![None; COLD_GEOMETRIES];
    let (mut explicit_next, mut cold_next) = (0usize, 0usize);

    let mut render = |draw: &Draw, due: Duration| -> Planned {
        let Draw {
            class,
            geometry,
            net,
            scale,
            voltages,
        } = *draw;
        let side = usize::from(net == NetKind::Ground);
        let amps = format!("{:e}", scale * REF_AMPS);
        let (line, reference, scale) = match class {
            Class::Hot => (
                request_line(&stack_json(HOT_EDGES[geometry], None, &amps), net, voltages),
                hot_refs[geometry][side],
                scale,
            ),
            Class::Explicit => {
                let k = explicit_next % EXPLICIT_PATTERNS;
                explicit_next += 1;
                let (stack, r) = &explicit[k];
                let line = explicit_lines
                    .entry((k, side == 1, voltages))
                    .or_insert_with(|| request_line(stack, net, voltages));
                (Arc::clone(line), r[side], 1.0)
            }
            Class::Voltages => (
                request_line(&stack_json(VOLTAGES_EDGE, None, &amps), net, voltages),
                hot_refs[voltages_geometry][side],
                scale,
            ),
            Class::Cold => {
                let k = cold_next % COLD_GEOMETRIES;
                cold_next += 1;
                let wire = cold_wires[k];
                let r =
                    *cold_refs[k].get_or_insert_with(|| references(&cold_stack(wire), &mut refs));
                (
                    request_line(&stack_json(COLD_EDGE, Some(wire), &amps), net, voltages),
                    r[side],
                    scale,
                )
            }
        };
        let expect = if voltages {
            Expect::Voltages { reference, scale }
        } else if net == NetKind::Power {
            Expect::WorstDrop { reference, scale }
        } else {
            Expect::Flags
        };
        Planned {
            class,
            due,
            line,
            expect,
        }
    };

    let rung_count = if matches!(budget, Budget::Probe) {
        1
    } else {
        MAX_RUNGS
    };
    let mut rungs = Vec::new();
    for rung in 0..rung_count {
        let rate = FIRST_RUNG_RPS * 2f64.powi(rung as i32);
        let seconds = rung_seconds(budget, rung);
        let mut schedules = Vec::new();
        for conn in 0..CONNECTIONS {
            let mut rng = Rng::stream(seed, 100 + (rung * CONNECTIONS + conn) as u64);
            let n = ((rate / CONNECTIONS as f64) * seconds).round().max(1.0) as usize;
            // Poisson arrivals (independent users): exponential gaps from
            // stratified quantiles, so every seed gets the same mix of
            // short and long gaps in its own order; normalised so exactly
            // n requests span the rung.
            let gaps: Vec<f64> = rng
                .strata(n, 0.0, 1.0)
                .into_iter()
                .map(|u| -(1.0 - u).ln())
                .collect();
            let total: f64 = gaps.iter().sum();
            let mut at = 0.0;
            let schedule = gaps
                .iter()
                .zip(&mix(n, &mut rng))
                .map(|(gap, draw)| {
                    at += gap / total * seconds;
                    render(draw, Duration::from_secs_f64(at))
                })
                .collect();
            schedules.push(schedule);
        }
        rungs.push(Rung { rate, schedules });
    }

    // The closed-loop phases send in blocks that each hold the exact mix,
    // so however many requests they get through, their mix barely varies.
    let closed = (0..CONNECTIONS)
        .filter(|_| budget.checked())
        .map(|conn| {
            let mut rng = Rng::stream(seed, 200 + conn as u64);
            (0..CLOSED_REQUESTS / CLOSED_BLOCK)
                .flat_map(|_| mix(CLOSED_BLOCK, &mut rng))
                .map(|draw| render(&draw, Duration::ZERO))
                .collect()
        })
        .collect();
    Plan {
        rungs,
        closed,
        refs,
    }
}

/// Whether a response is a converged answer within the accuracy budget.
fn correct(response: &str, expect: Expect, refs: &[Reference]) -> bool {
    let Ok(json) = Json::parse(response) else {
        return false;
    };
    if json.get("ok").and_then(Json::as_bool) != Some(true)
        || json.get("converged").and_then(Json::as_bool) != Some(true)
    {
        return false;
    }
    match expect {
        Expect::WorstDrop { reference, scale } => {
            let r = &refs[reference];
            let want = check::expected_worst_drop(r.vdd, r.rail, &r.dev, scale);
            json.get("worst_drop")
                .and_then(Json::as_f64)
                .is_some_and(|got| (got - want).abs() <= check::TOLERANCE_V)
        }
        Expect::Voltages { reference, scale } => {
            let r = &refs[reference];
            let Some(items) = json.get("voltages").and_then(Json::as_arr) else {
                return false;
            };
            let v: Option<Vec<f64>> = items.iter().map(Json::as_f64).collect();
            v.is_some_and(|v| {
                v.len() == r.dev.0.len() && check::within(&v, r.rail, &[&r.dev], &[scale])
            })
        }
        Expect::Flags => true,
    }
}

/// Reads newline-terminated responses until every sent request is
/// answered and the sender has finished. Each response is stamped on
/// arrival, then checked against its request's expectation (responses
/// come back in request order); only the stamp and verdict are kept.
/// Each answer also hands the sender a token, if it waits for them.
fn receive(
    mut stream: TcpStream,
    schedule: &[Planned],
    refs: &[Reference],
    sent: &AtomicUsize,
    done: &AtomicBool,
    tokens: Option<&mpsc::Sender<()>>,
) -> Vec<(Instant, bool)> {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("read timeout");
    let mut out = Vec::with_capacity(schedule.len());
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut progress = Instant::now();
    loop {
        if done.load(Ordering::SeqCst)
            && (out.len() >= sent.load(Ordering::SeqCst) || progress.elapsed() > STALL)
        {
            return out;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return out,
            Ok(n) => {
                let now = Instant::now();
                progress = now;
                let mut from = pending.len();
                pending.extend_from_slice(&chunk[..n]);
                while let Some(pos) = pending[from..].iter().position(|&b| b == b'\n') {
                    let end = from + pos;
                    let verdict = schedule.get(out.len()).is_some_and(|p| {
                        std::str::from_utf8(&pending[..end])
                            .is_ok_and(|r| correct(r, p.expect, refs))
                    });
                    out.push((now, verdict));
                    if let Some(t) = tokens {
                        let _ = t.send(());
                    }
                    pending.drain(..=end);
                    from = 0;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return out,
        }
    }
}

/// Runs one connection's schedule: returns what was observed for each
/// request it sent (in schedule order).
fn drive(
    addr: SocketAddr,
    schedule: &[Planned],
    refs: &[Reference],
    start: Instant,
) -> Vec<Observed> {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let reader = stream.try_clone().expect("clone socket");
    let sent = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut sent_at = Vec::with_capacity(schedule.len());
    let responses = std::thread::scope(|s| {
        let rx = s.spawn(|| receive(reader, schedule, refs, &sent, &done, None));
        let mut writer = &stream;
        for p in schedule {
            let due = start + p.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            if t.saturating_duration_since(due) > ABORT_LATE || writer.write_all(&p.line).is_err() {
                break;
            }
            sent_at.push(t);
            sent.fetch_add(1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        rx.join().expect("receiver thread")
    });
    sent_at
        .iter()
        .zip(schedule)
        .zip(responses)
        .map(|((&sent, p), (received, correct))| Observed {
            due: start + p.due,
            sent,
            received,
            correct,
        })
        .collect()
}

/// One closed-loop connection's send times, and its answers' arrivals
/// and verdicts, both in sending order.
type Exchange = (Vec<Instant>, Vec<(Instant, bool)>);

/// Runs one connection closed-loop: `window` requests in flight from
/// `start`, the next sent as each answer arrives, until `span` has
/// passed; then waits for the answers still out.
fn saturate(
    addr: SocketAddr,
    schedule: &[Planned],
    refs: &[Reference],
    start: Instant,
    span: Duration,
    window: usize,
) -> Exchange {
    let stream = TcpStream::connect(addr).expect("connect to the daemon");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let reader = stream.try_clone().expect("clone socket");
    let sent = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let (tokens, slots) = mpsc::channel();
    for _ in 0..window {
        tokens.send(()).expect("own channel");
    }
    let mut sent_at = Vec::with_capacity(schedule.len());
    std::thread::scope(|s| {
        let rx = s.spawn(|| receive(reader, schedule, refs, &sent, &done, Some(&tokens)));
        let now = Instant::now();
        if start > now {
            std::thread::sleep(start - now);
        }
        let mut writer = &stream;
        for p in schedule {
            if slots.recv_timeout(STALL).is_err() || start.elapsed() >= span {
                break;
            }
            let t = Instant::now();
            if writer.write_all(&p.line).is_err() {
                break;
            }
            sent_at.push(t);
            sent.fetch_add(1, Ordering::SeqCst);
        }
        done.store(true, Ordering::SeqCst);
        let answers = rx.join().expect("receiver thread");
        (sent_at, answers)
    })
}

/// One closed-loop phase over every connection.
struct ClosedRun {
    /// Correct answers per second in each of [`CAPACITY_BINS`] slices.
    rates: Vec<f64>,
    /// Send-to-answer latency of each correct answer.
    latencies_ms: Vec<f64>,
    sent: usize,
    /// Requests without a correct answer.
    failed: usize,
    /// Sent requests whose answers were checked by their flags only.
    flags: usize,
}

fn closed_loop(addr: SocketAddr, plan: &Plan, window: usize, seconds: f64) -> ClosedRun {
    let span = Duration::from_secs_f64(seconds);
    let refs = &plan.refs;
    let start = Instant::now() + Duration::from_millis(20);
    let runs: Vec<Exchange> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .closed
            .iter()
            .map(|schedule| s.spawn(move || saturate(addr, schedule, refs, start, span, window)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let (mut sent, mut flags) = (0, 0);
    let (mut latencies_ms, mut at) = (Vec::new(), Vec::new());
    for (schedule, (sent_at, answers)) in plan.closed.iter().zip(&runs) {
        sent += sent_at.len();
        // Each connection sent the first requests of its list, in order.
        flags += schedule[..sent_at.len()]
            .iter()
            .filter(|p| p.expect == Expect::Flags)
            .count();
        for (&out, &(back, correct)) in sent_at.iter().zip(answers) {
            if correct {
                latencies_ms.push((back - out).as_secs_f64() * 1e3);
                at.push(back.saturating_duration_since(start).as_secs_f64());
            }
        }
    }
    ClosedRun {
        rates: stats::binned_rates(&at, seconds, CAPACITY_BINS),
        failed: sent - latencies_ms.len(),
        latencies_ms,
        sent,
        flags,
    }
}

/// One answered request.
struct Answer {
    class: Class,
    /// From the due time to the answer.
    latency_ms: f64,
    /// How late the generator sent it.
    late_ms: f64,
    correct: bool,
}

/// One rung's answers, merged across connections in due order.
struct RungRun {
    rate: f64,
    answers: Vec<Answer>,
    unanswered: usize,
    elapsed_s: f64,
}

impl RungRun {
    fn wrong(&self) -> usize {
        self.answers.iter().filter(|a| !a.correct).count()
    }

    /// Due-time latencies of the correct answers, in due order.
    fn latencies(&self) -> Vec<f64> {
        self.answers
            .iter()
            .filter(|a| a.correct)
            .map(|a| a.latency_ms)
            .collect()
    }
}

fn run_rung(addr: SocketAddr, rung: &Rung, refs: &[Reference]) -> RungRun {
    let start = Instant::now() + Duration::from_millis(20);
    let observed: Vec<Vec<Observed>> = std::thread::scope(|s| {
        let handles: Vec<_> = rung
            .schedules
            .iter()
            .map(|schedule| s.spawn(move || drive(addr, schedule, refs, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut answers = Vec::new();
    let mut unanswered = 0;
    for (schedule, obs) in rung.schedules.iter().zip(&observed) {
        unanswered += schedule.len() - obs.len();
        for (p, o) in schedule.iter().zip(obs) {
            answers.push((
                o.due,
                Answer {
                    class: p.class,
                    latency_ms: (o.received - o.due).as_secs_f64() * 1e3,
                    late_ms: o.sent.saturating_duration_since(o.due).as_secs_f64() * 1e3,
                    correct: o.correct,
                },
            ));
        }
    }
    answers.sort_by_key(|(due, _)| *due);
    RungRun {
        rate: rung.rate,
        answers: answers.into_iter().map(|(_, a)| a).collect(),
        unanswered,
        elapsed_s,
    }
}

fn start_server(budget_bytes: usize) -> ServerHandle {
    serve(
        "127.0.0.1:0",
        ServeConfig {
            parallelism: 1,
            slots: SLOTS,
            registry_bytes: budget_bytes,
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds a local port")
}

/// One blocking request on a fresh NODELAY connection (warm-up).
fn request_once(addr: SocketAddr, line: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_nodelay(true).expect("TCP_NODELAY");
    s.write_all(format!("{line}\n").as_bytes()).expect("send");
    let mut buf = Vec::new();
    let mut byte = [0u8; 1 << 14];
    loop {
        let n = s.read(&mut byte).expect("read");
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&byte[..n]);
        if buf.ends_with(b"\n") {
            break;
        }
    }
    String::from_utf8_lossy(&buf).trim().to_string()
}

/// Geometry-session footprint as the daemon would build it.
fn shared_bytes(stack: &Stack3d) -> usize {
    SharedSession::build(stack, VpConfig::default().parallelism(1), SLOTS)
        .expect("session builds")
        .memory_bytes()
}

pub fn run(seed: u64, budget: Budget, tracer: &Tracer) -> Outcome {
    // Registry budget: the hot sessions plus two cold ones. Every cold
    // request after the second then evicts the older cold session; with
    // room for only one, the least recently used session was often a hot
    // one, and its rebuilds made latency and memory swing between runs.
    let hot_bytes: usize = HOT_EDGES
        .iter()
        .map(|&e| {
            let stack = tracer.time("grid.stack", || hot_stack(e, None));
            tracer.time("core.build", || shared_bytes(&stack))
        })
        .sum();
    let cold_bytes = shared_bytes(&cold_stack(0.9));
    let budget_bytes = hot_bytes + cold_bytes * 5 / 2;
    let session_mb = shared_bytes(&hot_stack(EXPLICIT_EDGE, None)) as f64 / MIB;

    let plan = plan(seed, budget);
    // The plan and its references stay live to the end; `mem_mb` counts
    // what the daemon and the generator's bookkeeping add above them.
    let baseline = alloc::reset_peak();

    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..budget.setup_rounds(SHORT_SETUP_ROUNDS) {
        drop(server.take());
        let start = Instant::now();
        let handle = start_server(budget_bytes);
        for &e in &HOT_EDGES {
            for net in ["power", "ground"] {
                let line = format!(
                    "{{\"op\":\"solve\",\"stack\":{},\"net\":\"{net}\"}}",
                    stack_json(e, None, &format!("{REF_AMPS:e}"))
                );
                let reply = request_once(handle.addr(), &line);
                assert!(reply.contains("\"ok\":true"), "warm-up solve: {reply}");
            }
        }
        setup_s.push(start.elapsed().as_secs_f64());
        server = Some(handle);
    }
    let mut server = server.expect("at least one set-up round");
    let addr = server.addr();

    let mut rung_runs = Vec::new();
    let mut verdicts = Vec::new();
    let mut mem_mb = 0.0;
    for rung in &plan.rungs {
        let rr = run_rung(addr, rung, &plan.refs);
        if rung_runs.is_empty() {
            // The daemon's footprint serving the mix at the reported
            // rate; the overload buffering of the ladder's top is not.
            mem_mb = alloc::peak_bytes().saturating_sub(baseline) as f64 / MIB;
        }
        let late: Vec<f64> = rr.answers.iter().map(|a| a.late_ms).collect();
        let verdict = stats::judge_rung(&rr.latencies(), &late, rr.wrong() + rr.unanswered);
        eprintln!(
            "serve rung {} rps: {} answered in {:.1} s, p95 {:.1} ms, backlog grew: {}",
            rung.rate,
            rr.answers.len(),
            rr.elapsed_s,
            verdict.p95_ms,
            verdict.backlog_grew
        );
        verdicts.push(verdict);
        rung_runs.push(rr);
        if !verdict.pass {
            break;
        }
    }

    // Closed loops on the same mix: serial clients, then the capacity.
    let closed: Vec<ClosedRun> = if budget.checked() {
        vec![
            closed_loop(addr, &plan, 1, SERIAL_SECONDS),
            closed_loop(addr, &plan, WINDOW, CAPACITY_SECONDS),
        ]
    } else {
        Vec::new()
    };
    server.shutdown();
    let stats_after = server.stats();

    // Operations: every request of the reported first rung, of every
    // passing rung and of the closed-loop phases. Wrong answers, typed
    // errors and unanswered requests there are failures; the rung that
    // failed the ladder is the probe past capacity, and its misses set
    // the stop, not the failure count.
    let passing = stats::highest_passing(&verdicts);
    let counted = passing.map_or(1, |i| i + 1);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for rr in &rung_runs[..counted] {
        attempted += (rr.answers.len() + rr.unanswered) as u64;
        failed += (rr.wrong() + rr.unanswered) as u64;
    }
    let mut flag_checked = plan.rungs[..counted]
        .iter()
        .flat_map(|r| r.schedules.iter().flatten())
        .filter(|p| p.expect == Expect::Flags)
        .count() as u64;
    for phase in &closed {
        attempted += phase.sent as u64;
        failed += phase.failed as u64;
        flag_checked += phase.flags as u64;
    }
    let (serial_lat, capacity) = match &closed[..] {
        [serial, saturated] => {
            let rate = median(&saturated.rates);
            eprintln!("serve capacity slices (answers/s): {:.0?}", saturated.rates);
            eprintln!(
                "serve capacity: {rate:.1} correct answers/s, {WINDOW} in flight per connection"
            );
            (serial.latencies_ms.clone(), rate)
        }
        _ => (Vec::new(), f64::MIN_POSITIVE),
    };
    // No correct answer reads as infinitely slow (and is already failed).
    let or_never = |lat: Vec<f64>| {
        if lat.is_empty() {
            vec![f64::INFINITY]
        } else {
            lat
        }
    };
    let serial_lat = or_never(serial_lat);
    let first = &rung_runs[0];
    let first_lat = or_never(first.latencies());
    let e2e = vec![
        Metric::median_of("setup_s", "s", &setup_s)
            .note("daemon start + one warm-up solve per hot geometry and net"),
        Metric::one("mem_mb", "MiB", mem_mb).note(
            "heap peak above the live plan and references: daemon sessions and buffers, \
             and the generator's per-rung bookkeeping",
        ),
        Metric::median_of("latency_p50_ms", "ms", &serial_lat).note(format!(
            "send-to-answer latency of serial clients (one request in flight per \
             connection, {SERIAL_SECONDS} s); serve_p50_ms, the due-time p50 at the 12 rps \
             rung, was {:.3} ms",
            median(&first_lat)
        )),
        {
            let p95 = Metric::p95_of("latency_p95_ms", "ms", &serial_lat);
            let rung = Metric::p95_of("serve_p95_ms", "ms", &first_lat);
            let tail = |m: &Metric| m.note.trim_start_matches("p95; ").to_string();
            let note = format!(
                "send-to-answer p95 of the serial clients ({}); serve_p95_ms, the due-time \
                 p95 at the 12 rps rung, was {:.3} ms ({})",
                tail(&p95),
                rung.value,
                tail(&rung)
            );
            p95.note(note)
        },
        Metric::one("throughput_per_s", "1/s", capacity).note(format!(
            "capacity: correct answers per second with {WINDOW} requests in flight per \
             connection, median over {CAPACITY_BINS} slices of {CAPACITY_SECONDS} s; \
             serve_max_rps, the highest passing ladder rung, was {} rps",
            passing.map_or(0.0, |i| rung_runs[i].rate)
        )),
    ];

    let mut layers = Vec::new();
    if tracer.on() {
        layers = vec![
            Metric::median_of("grid.stack_ms", "ms", &tracer.durations_ms("grid.stack"))
                .note("StackBuilder::build of the hot geometries"),
            Metric::median_of("core.build_ms", "ms", &tracer.durations_ms("core.build"))
                .note("SharedSession::build of the hot geometries, parallelism 1, 2 slots"),
            Metric::one("core.session_mb", "MiB", session_mb).note("128x128x3 shared session"),
        ];
        layers.extend(replay(&plan, budget_bytes, first, tracer));
        let late: Vec<f64> = first.answers.iter().map(|a| a.late_ms).collect();
        layers.push(
            Metric::p95_of("serve.late_ms_p95", "ms", &late).note("generator lateness at 12 rps"),
        );
        layers.push(Metric::one(
            "serve.evictions",
            "count",
            stats_after.registry_evictions as f64,
        ));
        layers.push(Metric::one(
            "serve.overloaded",
            "count",
            stats_after.overloaded as f64,
        ));
    }
    Outcome {
        e2e,
        layers,
        attempted,
        failed,
        flag_checked,
    }
}

/// Replays the first rung's request lines in process through the serve
/// layers one by one, timing each, and sets the per-class medians
/// beside the client-observed p50s (their difference is `serve.wire_ms`).
fn replay(plan: &Plan, budget_bytes: usize, first: &RungRun, tracer: &Tracer) -> Vec<Metric> {
    let registry = SessionRegistry::new(budget_bytes);
    let config = VpConfig::default().parallelism(1);
    // Warm the hot geometries, as the daemon was warmed.
    for &e in &HOT_EDGES {
        let spec = StackSpec {
            width: e,
            height: e,
            tiers: TIERS,
            vdd: None,
            wire_resistance: None,
            tsv_resistance: None,
            pad_resistance: None,
            tsv_pitch: None,
            loads: LoadSpec::Uniform(REF_AMPS),
        };
        let stack = hot_stack(e, None);
        registry.insert(
            spec.geometry_hash(),
            Arc::new(SharedSession::build(&stack, config, SLOTS).expect("session builds")),
        );
    }
    let mut times: Vec<(Class, [f64; 5])> = Vec::new();
    for p in plan.rungs[0].schedules.iter().flatten() {
        let line = std::str::from_utf8(&p.line).expect("utf-8 line").trim();
        let mut t = [0.0; 5];
        let (parsed, ms) = tracer.timed("serve.parse", || parse_request(line));
        t[0] = ms;
        let Ok(Request::Solve(req)) = parsed else {
            continue;
        };
        let (stack, ms) = tracer.timed("serve.stack", || req.stack.build_stack());
        t[1] = ms;
        let Ok(stack) = stack else { continue };
        let hash = req.stack.geometry_hash();
        let (hit, ms) = tracer.timed("serve.registry", || registry.get(hash));
        t[2] = ms;
        let session = match hit {
            Some(s) => s,
            None => {
                let built = tracer.time("serve.build", || {
                    Arc::new(SharedSession::build(&stack, config, SLOTS).expect("session builds"))
                });
                let (s, ms) = tracer.timed("serve.registry", || registry.insert(hash, built));
                t[2] += ms;
                s
            }
        };
        let case = LoadCase::new(&stack).net(req.net);
        let (solved, ms) = tracer.timed("serve.solve", || {
            session.try_solve_for(&case, Duration::from_millis(250))
        });
        t[3] = ms;
        let Ok(TryCheckout::Ready(solution)) = solved else {
            continue;
        };
        let (body, ms) = tracer.timed("serve.encode", || {
            let view = solution.view();
            let r = view.report();
            let mut members = vec![
                ("ok".to_string(), Json::Bool(true)),
                ("geometry".to_string(), Json::from(format!("{hash:016x}"))),
                ("cached".to_string(), Json::Bool(true)),
                ("backend".to_string(), Json::from("voltprop")),
                ("converged".to_string(), Json::Bool(view.converged())),
                ("iterations".to_string(), Json::from(r.outer_iterations)),
                ("sweeps".to_string(), Json::from(r.inner_sweeps)),
                ("residual".to_string(), Json::from(r.pad_mismatch)),
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
            Json::Obj(members).to_string()
        });
        t[4] = ms;
        std::hint::black_box(body);
        times.push((p.class, t));
    }

    let builds = tracer.durations_ms("serve.build");
    let build_p50 = if builds.is_empty() {
        0.0
    } else {
        median(&builds)
    };
    let mut out = vec![Metric::median_of(
        "serve.build_ms",
        "ms",
        if builds.is_empty() { &[0.0] } else { &builds },
    )
    .note("SharedSession::build on a registry miss (cold geometries)")];
    for class in CLASSES {
        let rows: Vec<&[f64; 5]> = times
            .iter()
            .filter(|(c, _)| *c == class)
            .map(|(_, t)| t)
            .collect();
        let client: Vec<f64> = first
            .answers
            .iter()
            .filter(|a| a.class == class && a.correct)
            .map(|a| a.latency_ms)
            .collect();
        if rows.is_empty() || client.is_empty() {
            continue;
        }
        let mut layer_sum = if class == Class::Cold { build_p50 } else { 0.0 };
        for (k, layer) in ["parse", "stack", "registry", "solve", "encode"]
            .iter()
            .enumerate()
        {
            let col: Vec<f64> = rows.iter().map(|t| t[k]).collect();
            let m = Metric::median_of(format!("serve.{layer}_ms.{}", class.name()), "ms", &col);
            layer_sum += m.value;
            out.push(m);
        }
        out.push(
            Metric::one(
                format!("serve.wire_ms.{}", class.name()),
                "ms",
                median(&client) - layer_sum,
            )
            .note("client p50 at 12 rps minus the sum of the in-process layer p50s"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_requests_ask_for_voltages_in_every_group() {
        let draws = mix(400, &mut Rng::new(11));
        let count = |f: &dyn Fn(&Draw) -> bool| draws.iter().filter(|d| f(d)).count();
        for class in CLASSES {
            let ground = count(&|d| d.class == class && d.net == NetKind::Ground);
            let checked = count(&|d| d.class == class && d.net == NetKind::Ground && d.voltages);
            assert!(ground > 0 && checked > 0, "{class:?}");
            if class != Class::Voltages {
                // The first, then every fourth: a quarter, rounded up per group.
                assert!(
                    4 * checked >= ground && 4 * checked <= ground + 12,
                    "{class:?}"
                );
            }
        }
        // Power requests outside the voltages class stay light.
        assert_eq!(
            count(&|d| d.class != Class::Voltages && d.net == NetKind::Power && d.voltages),
            0
        );
    }

    #[test]
    fn ladder_rungs_hold_their_rate_for_a_second() {
        let budget = Budget::Timed(Duration::from_secs(20));
        assert_eq!(rung_seconds(budget, 0), 16.0);
        for rung in 1..MAX_RUNGS {
            assert!(rung_seconds(budget, rung) >= 1.0);
        }
        assert!(FIRST_RUNG_RPS * 2f64.powi(MAX_RUNGS as i32 - 1) > 5000.0);
    }
}
