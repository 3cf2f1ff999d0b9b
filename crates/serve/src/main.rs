//! CLI entry point for the `voltprop-serve` daemon.
//!
//! ```text
//! voltprop-serve [--port N] [--slots N] [--parallelism N]
//!                [--max-connections N] [--registry-bytes N]
//!                [--deadline-default-ms N] [--checkout-wait-ms N]
//!                [--max-rps N] [--chaos SPEC]
//! voltprop-serve --smoke [--clients N] [...]
//! voltprop-serve --soak [--seconds N] [--clients N] [...]
//! ```
//!
//! Without a mode flag, binds `127.0.0.1:<port>` (port 0 picks an
//! ephemeral port, printed on stdout) and serves until a `shutdown`
//! request arrives. With `--smoke`, runs an in-process self-test: start
//! on an ephemeral port, fire concurrent solve requests from `--clients`
//! client threads, check the registry cached exactly one session, and
//! shut down cleanly — exiting non-zero on any failed check. With
//! `--soak`, runs the overload/fault-injection harness: a chaos-enabled
//! server under `--clients` mixed abusive clients for `--seconds`,
//! asserting the robustness invariants (typed shedding only, registry
//! within its byte budget, zero leaked threads, bounded p99 for
//! well-behaved requests). The `VOLTPROP_CHAOS` environment variable (or
//! `--chaos`) overrides the soak's default fault mix and enables chaos
//! for the plain serving mode.
//!
//! The flags are strict: `--help` prints the usage and exits 0; an
//! unknown flag, a missing or invalid value, or `--smoke` with `--soak`
//! prints the error and the usage and exits 2, before anything starts.

use std::io::{BufRead, BufReader, Write};
use std::time::{Duration, Instant};

use voltprop_serve::{
    json::Json, serve, ChaosConfig, Client, ServeConfig, ServeStats, ServerHandle,
};

/// The command-line help.
const USAGE: &str = "usage: voltprop-serve [--port N] [--slots N] [--parallelism N]
                      [--max-connections N] [--registry-bytes N]
                      [--deadline-default-ms N] [--checkout-wait-ms N]
                      [--max-rps N] [--chaos drop=F,truncate=F,slow=F,slow_ms=N,breakdown=F,seed=N]
       voltprop-serve --smoke [--clients N] [...]
       voltprop-serve --soak [--seconds N] [--clients N] [...]

Defaults: --port 7317 --slots 4 --parallelism 1 --max-connections 64
          --checkout-wait-ms 250; registry bytes unbounded; no default
          deadline; no rate limit; chaos off (VOLTPROP_CHAOS overrides).";

/// Prints `msg` and the usage to stderr and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut port: u16 = 7317;
    let mut config = ServeConfig::default();
    let mut smoke = false;
    let mut soak = false;
    let mut clients: usize = 4;
    let mut seconds: u64 = 10;
    let mut chaos_flag: Option<ChaosConfig> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} needs a {what} argument")))
        };
        match arg.as_str() {
            "--port" => port = parse(&value("port"), "--port"),
            "--slots" => config.slots = parse_positive(&value("count"), "--slots"),
            "--parallelism" => {
                config.parallelism = parse_positive(&value("count"), "--parallelism")
            }
            "--max-connections" => {
                config.max_connections = parse_positive(&value("count"), "--max-connections")
            }
            "--registry-bytes" => {
                config.registry_bytes = parse_positive(&value("bytes"), "--registry-bytes")
            }
            "--deadline-default-ms" => {
                config.deadline_default_ms = parse(&value("milliseconds"), "--deadline-default-ms")
            }
            "--checkout-wait-ms" => {
                config.checkout_wait_ms = parse(&value("milliseconds"), "--checkout-wait-ms")
            }
            "--max-rps" => config.max_rps_per_conn = parse(&value("count"), "--max-rps"),
            "--chaos" => match ChaosConfig::parse(&value("spec")) {
                Ok(chaos) => chaos_flag = Some(chaos),
                Err(what) => usage_error(&format!("invalid --chaos spec: {what}")),
            },
            "--clients" => clients = parse_positive(&value("count"), "--clients"),
            "--seconds" => seconds = parse_positive(&value("count"), "--seconds") as u64,
            "--smoke" => smoke = true,
            "--soak" => soak = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if smoke && soak {
        usage_error("--smoke and --soak are mutually exclusive");
    }

    // Precedence: explicit --chaos flag, then VOLTPROP_CHAOS, then off
    // (the soak mode supplies its own default mix below).
    match ChaosConfig::from_env() {
        Ok(env_chaos) => config.chaos = chaos_flag.or(env_chaos).unwrap_or(ChaosConfig::OFF),
        Err(what) => {
            eprintln!("error: invalid VOLTPROP_CHAOS: {what}");
            std::process::exit(2);
        }
    }

    if smoke {
        match run_smoke(config, clients) {
            Ok(summary) => println!("smoke ok: {summary}"),
            Err(what) => {
                eprintln!("smoke FAILED: {what}");
                std::process::exit(1);
            }
        }
        return;
    }
    if soak {
        match run_soak(config, clients, seconds) {
            Ok(summary) => println!("soak ok: {summary}"),
            Err(what) => {
                eprintln!("soak FAILED: {what}");
                std::process::exit(1);
            }
        }
        return;
    }

    let server = match serve(("127.0.0.1", port), config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind 127.0.0.1:{port}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "voltprop-serve listening on {} (slots={}, parallelism={}, max-connections={}{})",
        server.addr(),
        config.slots,
        config.parallelism,
        config.max_connections,
        if config.chaos.enabled() {
            ", CHAOS ENABLED"
        } else {
            ""
        }
    );
    server.wait();
    println!("voltprop-serve stopped");
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| usage_error(&format!("invalid value {text:?} for {flag}")))
}

/// Like [`parse`] for counts where zero makes no sense (zero slots can
/// serve nothing, a zero-byte registry can cache nothing, …).
fn parse_positive(text: &str, flag: &str) -> usize {
    let n: usize = parse(text, flag);
    if n == 0 {
        usage_error(&format!("{flag} must be positive, got 0"));
    }
    n
}

/// In-process self-test: N client threads × 3 solve requests each (two
/// load levels and one explicit-params request) against one geometry,
/// then registry and shutdown checks.
fn run_smoke(config: ServeConfig, clients: usize) -> Result<String, String> {
    let server: ServerHandle =
        serve("127.0.0.1:0", config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();

    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client = Client::connect(addr)
                        .map_err(|e| format!("client {c} connect: {e}"))?;
                    let requests = [
                        r#"{"op":"solve","stack":{"width":12,"height":12,"tiers":3,"tsv_pitch":2,"loads":1e-4}}"#.to_string(),
                        format!(
                            r#"{{"op":"solve","stack":{{"width":12,"height":12,"tiers":3,"tsv_pitch":2,"loads":{}}}}}"#,
                            2e-4 * (c + 1) as f64
                        ),
                        r#"{"op":"solve","stack":{"width":12,"height":12,"tiers":3,"tsv_pitch":2,"loads":1e-4},"backend":"pcg","params":{"inner_tolerance":1e-8}}"#.to_string(),
                    ];
                    for (i, line) in requests.iter().enumerate() {
                        let reply = client
                            .request(line)
                            .map_err(|e| format!("client {c} request {i}: {e}"))?;
                        let value = Json::parse(&reply)
                            .map_err(|e| format!("client {c} reply {i} unparsable: {e}"))?;
                        if value.get("ok").and_then(Json::as_bool) != Some(true) {
                            return Err(format!("client {c} request {i} failed: {reply}"));
                        }
                        if value.get("converged").and_then(Json::as_bool) != Some(true) {
                            return Err(format!("client {c} request {i} did not converge: {reply}"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| match h.join() {
                Ok(Ok(())) => None,
                Ok(Err(what)) => Some(what),
                Err(_) => Some("client thread panicked".to_string()),
            })
            .collect()
    });
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }

    let mut client = Client::connect(addr).map_err(|e| format!("info connect: {e}"))?;
    let info = client
        .request(r#"{"op":"info"}"#)
        .map_err(|e| format!("info request: {e}"))?;
    let info_value = Json::parse(&info).map_err(|e| format!("info reply unparsable: {e}"))?;
    let sessions = info_value.get("sessions").and_then(Json::as_usize);
    if sessions != Some(1) {
        return Err(format!(
            "expected exactly 1 cached session for 1 geometry, got {info}"
        ));
    }
    let bye = client
        .request(r#"{"op":"shutdown"}"#)
        .map_err(|e| format!("shutdown request: {e}"))?;
    if !bye.contains("\"stopping\":true") {
        return Err(format!("unexpected shutdown reply: {bye}"));
    }
    drop(server); // joins the accept loop and all handlers

    Ok(format!(
        "{} clients x 3 requests, 1 cached session, clean shutdown",
        clients.max(1)
    ))
}

/// What one soak client observed. Merged across clients for the final
/// invariant checks.
#[derive(Debug, Default)]
struct SoakTally {
    ok: u64,
    typed_errors: u64,
    overloaded: u64,
    deadline_exceeded: u64,
    dropped: u64,
    /// Wall-clock latencies of the well-behaved solves that succeeded.
    latencies_ms: Vec<u64>,
    violations: Vec<String>,
}

/// The overload/fault-injection harness (see the crate docs' "Operating
/// voltprop-serve" section). Runs a chaos-enabled server under abusive
/// mixed clients and asserts the robustness invariants.
fn run_soak(mut config: ServeConfig, clients: usize, seconds: u64) -> Result<String, String> {
    // A deliberately small serving surface so overload actually happens:
    // one scratch slot, a short admission wait, and a per-connection
    // rate cap that pipelined clients will trip.
    config.slots = 1;
    config.checkout_wait_ms = config.checkout_wait_ms.min(40);
    config.max_rps_per_conn = if config.max_rps_per_conn == 0 {
        60
    } else {
        config.max_rps_per_conn
    };
    config.deadline_default_ms = if config.deadline_default_ms == 0 {
        2_000
    } else {
        config.deadline_default_ms
    };
    config.max_connections = config.max_connections.min(clients.max(2) * 2);
    if !config.chaos.enabled() {
        config.chaos = ChaosConfig {
            drop_frac: 0.05,
            truncate_frac: 0.05,
            slow_frac: 0.05,
            slow_ms: 30,
            breakdown_frac: 0.08,
            seed: 42,
        };
    }
    // Budget the registry at the heavy-contention session plus roughly
    // three of the small rotation sessions: the five rotating
    // geometries force evictions while the hot heavy session stays
    // resident (so concurrent heavy solves contend on one pool).
    let probe = |width: usize, tiers: usize| -> Result<usize, String> {
        let stack = voltprop_grid::Stack3d::builder(width, width, tiers)
            .tsv_pattern(voltprop_grid::TsvPattern::Uniform { pitch: 2 })
            .uniform_load(1e-4)
            .build()
            .map_err(|e| format!("probe stack build failed: {e}"))?;
        Ok(voltprop_core::SharedSession::build(
            &stack,
            voltprop_core::VpConfig::default(),
            config.slots,
        )
        .map_err(|e| format!("probe session build failed: {e}"))?
        .memory_bytes())
    };
    if config.registry_bytes == usize::MAX {
        config.registry_bytes = probe(32, 4)? + probe(12, 3)? * 3 + probe(12, 3)? / 2;
    }

    let server: ServerHandle =
        serve("127.0.0.1:0", config).map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.addr();
    let stop_at = Instant::now() + Duration::from_secs(seconds);

    let cap = config.max_connections;
    let tallies: Vec<SoakTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|c| scope.spawn(move || soak_client(addr, c as u64, stop_at, cap)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| SoakTally {
                    violations: vec!["client thread panicked".to_string()],
                    ..SoakTally::default()
                })
            })
            .collect()
    });

    // Drain, shut down, and take the final counters.
    let mut server = server;
    server.shutdown();
    let stats: ServeStats = server.stats();

    let mut merged = SoakTally::default();
    for tally in tallies {
        merged.ok += tally.ok;
        merged.typed_errors += tally.typed_errors;
        merged.overloaded += tally.overloaded;
        merged.deadline_exceeded += tally.deadline_exceeded;
        merged.dropped += tally.dropped;
        merged.latencies_ms.extend(tally.latencies_ms);
        merged.violations.extend(tally.violations);
    }

    // Invariant 1: every answered line was well-formed JSON with a typed
    // outcome (violations collected client-side).
    if !merged.violations.is_empty() {
        let shown = merged
            .violations
            .iter()
            .take(5)
            .cloned()
            .collect::<Vec<_>>();
        return Err(format!(
            "{} protocol violations, e.g.: {}",
            merged.violations.len(),
            shown.join("; ")
        ));
    }
    // Invariant 2: no leaked handler threads after the handle joined.
    if stats.handlers_spawned != stats.handlers_finished {
        return Err(format!(
            "leaked handler threads: {} spawned, {} finished",
            stats.handlers_spawned, stats.handlers_finished
        ));
    }
    // Invariant 3: the registry ended within its byte budget (in-flight
    // pins are gone once every handler joined).
    if stats.registry_bytes > config.registry_bytes {
        return Err(format!(
            "registry over budget after drain: {} > {}",
            stats.registry_bytes, config.registry_bytes
        ));
    }
    // Invariant 4: eviction actually ran (five geometries through a
    // three-session budget must evict).
    if stats.registry_evictions == 0 {
        return Err("expected registry evictions under the soak byte budget".to_string());
    }
    // Invariant 5: the server made real progress and sheds were typed.
    if merged.ok == 0 {
        return Err("no successful solve in the whole soak".to_string());
    }
    // Invariant 5b: the connection storms must have been shed with typed
    // `overloaded` lines (each storm exceeds the cap by construction).
    if merged.overloaded == 0 {
        return Err("no typed overloaded shed despite connection storms".to_string());
    }
    // Invariant 6: bounded tail latency for the well-behaved requests
    // that succeeded (deadline default 2 s + chaos stalls; anything
    // near 10 s means a request hung un-shed).
    merged.latencies_ms.sort_unstable();
    let p99 = merged.latencies_ms[(merged.latencies_ms.len() - 1) * 99 / 100];
    if p99 > 8_000 {
        return Err(format!("p99 of successful solves is {p99} ms (> 8000)"));
    }

    Ok(format!(
        "{} clients x {seconds}s: {} ok (p99 {p99} ms), {} typed errors \
         ({} overloaded, {} deadline-exceeded), {} chaos closes; server: \
         {}/{} threads joined, {} evictions, registry {} <= {} bytes",
        clients.max(1),
        merged.ok,
        merged.typed_errors,
        merged.overloaded,
        merged.deadline_exceeded,
        merged.dropped,
        stats.handlers_finished,
        stats.handlers_spawned,
        stats.registry_evictions,
        stats.registry_bytes,
        config.registry_bytes,
    ))
}

/// One abusive soak client: rotates geometries (forcing eviction
/// churn), short deadlines, garbage lines, pings, info probes, and
/// periodic connection storms until `stop_at`, reconnecting whenever
/// chaos kills its connection.
/// Opens `cap + 1` simultaneous connections and pings each: with the
/// client's own connection already open, at least one must land past the
/// server's cap and receive the typed `overloaded` shed line.
fn connection_storm(addr: std::net::SocketAddr, cap: usize, tally: &mut SoakTally) {
    let streams: Vec<std::net::TcpStream> = (0..cap + 1)
        .filter_map(|_| std::net::TcpStream::connect(addr).ok())
        .collect();
    for stream in streams {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut writer = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        let sent = writer
            .write_all(b"{\"op\":\"ping\"}\n")
            .and_then(|()| writer.flush());
        // A shed connection may close before the ping is even written;
        // either way, read whatever single line the server produced.
        let _ = sent;
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 && reply.ends_with('\n') => match Json::parse(reply.trim()) {
                Ok(value) => match value.get("ok").and_then(Json::as_bool) {
                    Some(true) => tally.ok += 1,
                    Some(false) => {
                        tally.typed_errors += 1;
                        let kind = value
                            .get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(Json::as_str);
                        if kind == Some("overloaded") {
                            tally.overloaded += 1;
                        }
                    }
                    None => tally
                        .violations
                        .push(format!("storm response without \"ok\": {}", reply.trim())),
                },
                Err(e) => tally
                    .violations
                    .push(format!("unparsable storm response {:?}: {e}", reply.trim())),
            },
            // EOF, torn frame, or timeout: a chaos close — allowed.
            _ => tally.dropped += 1,
        }
    }
}

fn soak_client(
    addr: std::net::SocketAddr,
    seed: u64,
    stop_at: Instant,
    max_connections: usize,
) -> SoakTally {
    let mut tally = SoakTally::default();
    let mut step = seed;
    'outer: while Instant::now() < stop_at {
        let stream = match std::net::TcpStream::connect(addr) {
            Ok(stream) => stream,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(12)));
        let _ = stream.set_nodelay(true);
        let mut writer = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => continue,
        };
        let mut reader = BufReader::new(stream);
        loop {
            if Instant::now() >= stop_at {
                break 'outer;
            }
            step = step.wrapping_add(1);
            // Periodic connection storm: briefly hold open more sockets
            // than the server's cap, proving excess connections are shed
            // with a typed `overloaded` line instead of hanging.
            if step % 37 == 0 {
                connection_storm(addr, max_connections, &mut tally);
            }
            // Geometry rotation: five distinct widths through a budget
            // sized for about three sessions.
            let width = 10 + (step % 5) as usize;
            let mut line = match step % 8 {
                // A "well-behaved" request: default deadline, modest
                // grid, latency measured for the p99 invariant.
                0..=2 => format!(
                    r#"{{"op":"solve","stack":{{"width":{width},"height":{width},"tiers":3,"tsv_pitch":2,"loads":1e-4}}}}"#
                ),
                // A deadline-starved request (1 ms on a tight budget).
                3 => format!(
                    r#"{{"op":"solve","stack":{{"width":{width},"height":{width},"tiers":3,"tsv_pitch":2,"loads":1e-4}},"deadline_ms":1,"params":{{"epsilon":1e-12}}}}"#
                ),
                // Garbage (typed malformed-request, connection lives).
                4 => "this is not json".to_string(),
                5 if step % 16 < 8 => r#"{"op":"ping"}"#.to_string(),
                5 => r#"{"op":"info"}"#.to_string(),
                // Heavy solves on one shared (budget-resident) heavy
                // geometry: with two heavy steps per cycle across all
                // clients, its single scratch slot stays hogged long
                // enough that concurrent admissions time out and shed.
                _ => r#"{"op":"solve","stack":{"width":32,"height":32,"tiers":4,"tsv_pitch":2,"loads":6e-4},"deadline_ms":4000,"params":{"epsilon":1e-10,"inner_tolerance":1e-11,"max_inner_sweeps":4000}}"#.to_string(),
            };
            line.push('\n');
            let well_behaved = step % 8 < 3;
            let sent_at = Instant::now();
            if writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                tally.dropped += 1;
                break; // reconnect
            }
            let mut reply = String::new();
            match reader.read_line(&mut reply) {
                Ok(0) => {
                    // Clean close (chaos drop or shed): allowed.
                    tally.dropped += 1;
                    break;
                }
                Ok(_) if !reply.ends_with('\n') => {
                    // Torn frame: the connection died mid-response
                    // (chaos truncate). Allowed — but only as a close.
                    tally.dropped += 1;
                    break;
                }
                Ok(_) => {
                    let trimmed = reply.trim();
                    match Json::parse(trimmed) {
                        Err(e) => {
                            tally
                                .violations
                                .push(format!("unparsable response {trimmed:?}: {e}"));
                            break;
                        }
                        Ok(value) => match value.get("ok").and_then(Json::as_bool) {
                            Some(true) => {
                                tally.ok += 1;
                                if well_behaved {
                                    tally
                                        .latencies_ms
                                        .push(sent_at.elapsed().as_millis() as u64);
                                }
                            }
                            Some(false) => {
                                tally.typed_errors += 1;
                                match value
                                    .get("error")
                                    .and_then(|e| e.get("kind"))
                                    .and_then(Json::as_str)
                                {
                                    Some("overloaded") => {
                                        tally.overloaded += 1;
                                        // Honor the retry contract.
                                        if let Some(ms) = value
                                            .get("error")
                                            .and_then(|e| e.get("retry_after_ms"))
                                            .and_then(Json::as_usize)
                                        {
                                            std::thread::sleep(Duration::from_millis(
                                                (ms as u64).min(100),
                                            ));
                                        }
                                    }
                                    Some("deadline-exceeded") => tally.deadline_exceeded += 1,
                                    Some(_) => {}
                                    None => tally
                                        .violations
                                        .push(format!("untyped error response: {trimmed}")),
                                }
                            }
                            None => tally
                                .violations
                                .push(format!("response without \"ok\": {trimmed}")),
                        },
                    }
                }
                Err(_) => {
                    // Read timeout or reset — count as a close.
                    tally.dropped += 1;
                    break;
                }
            }
        }
    }
    tally
}
