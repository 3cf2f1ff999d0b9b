//! Overload and robustness contract of `voltprop-serve`, exercised
//! deterministically over the wire:
//!
//! * deadlines surface as typed `deadline-exceeded` errors while the
//!   connection stays open;
//! * a saturated scratch pool sheds with typed `overloaded` +
//!   `retry_after_ms` instead of queueing unboundedly;
//! * connections past `max_connections` get one typed shed line, never
//!   a silent hang;
//! * the per-connection rate cap sheds without closing;
//! * an oversized request line gets `malformed-request`, then close
//!   (framing is unrecoverable mid-line);
//! * the registry evicts least-recently-used idle sessions under its
//!   byte budget;
//! * shutdown joins every handler thread (`ServerHandle::stats`).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use voltprop::{SharedSession, Stack3d, TsvPattern, VpConfig};
use voltprop_serve::json::Json;
use voltprop_serve::{serve, Client, ServeConfig, ServerHandle};

/// A solve request that cannot converge (outer epsilon far below
/// attainable, inner tolerance pinned attainable so every inner solve
/// succeeds) and cannot exhaust its iteration
/// budget before `deadline_ms`: it holds its scratch slot until the
/// deadline fires.
fn starved_solve(width: usize, deadline_ms: u64) -> String {
    format!(
        r#"{{"op":"solve","stack":{{"width":{width},"height":{width},"tiers":2,"tsv_pitch":2,"loads":1e-4}},"deadline_ms":{deadline_ms},"params":{{"epsilon":1e-300,"inner_tolerance":1e-5,"max_outer_iterations":1000000000}}}}"#
    )
}

fn plain_solve(width: usize) -> String {
    format!(
        r#"{{"op":"solve","stack":{{"width":{width},"height":{width},"tiers":2,"tsv_pitch":2,"loads":1e-4}}}}"#
    )
}

fn error_kind(value: &Json) -> Option<&str> {
    value
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
}

#[test]
fn budget_starved_solve_is_shed_deadline_exceeded() {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            slots: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let reply = client.request(&starved_solve(10, 150)).unwrap();
    let value = Json::parse(&reply).unwrap();
    assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&value), Some("deadline-exceeded"), "{reply}");

    // The shed is per-request: the connection still serves.
    let warm = Json::parse(&client.request(&plain_solve(10)).unwrap()).unwrap();
    assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        warm.get("cached").and_then(Json::as_bool),
        Some(true),
        "the deadline-shed request still warmed the registry"
    );
}

#[test]
fn saturated_pool_sheds_overloaded_with_retry_hint() {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            slots: 1,
            checkout_wait_ms: 40,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    // Warm the registry so the hog pays no build time inside its window.
    let warm = Json::parse(&voltprop_serve::request(addr, &plain_solve(12)).unwrap()).unwrap();
    assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true));

    std::thread::scope(|scope| {
        // The hog: a non-converging solve that owns the single scratch
        // slot until its 1.5 s deadline.
        let hog = scope.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(&starved_solve(12, 1_500)).unwrap()
        });
        // Give the hog time to be admitted, then contend for the slot.
        std::thread::sleep(Duration::from_millis(400));
        let reply = voltprop_serve::request(addr, &plain_solve(12)).unwrap();
        let value = Json::parse(&reply).unwrap();
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(error_kind(&value), Some("overloaded"), "{reply}");
        let retry_after = value
            .get("error")
            .and_then(|e| e.get("retry_after_ms"))
            .and_then(Json::as_usize)
            .expect("overloaded carries a retry_after_ms hint");
        assert!((1..=10_000).contains(&retry_after));

        let hog_reply = Json::parse(&hog.join().unwrap()).unwrap();
        assert_eq!(
            error_kind(&hog_reply),
            Some("deadline-exceeded"),
            "the hog itself ends via its deadline"
        );
    });

    // Once the hog drained, the same request is admitted again.
    let after = Json::parse(&voltprop_serve::request(addr, &plain_solve(12)).unwrap()).unwrap();
    assert_eq!(after.get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn connection_cap_sheds_with_a_typed_line() {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_connections: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // Fill the cap and prove both connections are live handlers.
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    assert_eq!(
        a.request(r#"{"op":"ping"}"#).unwrap(),
        r#"{"ok":true,"pong":true}"#
    );
    assert_eq!(
        b.request(r#"{"op":"ping"}"#).unwrap(),
        r#"{"ok":true,"pong":true}"#
    );

    // The third connection gets exactly one typed overloaded line…
    let shed = TcpStream::connect(server.addr()).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(shed);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let value = Json::parse(line.trim()).unwrap();
    assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&value), Some("overloaded"), "{line}");
    assert!(value
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .and_then(Json::as_usize)
        .is_some());
    // …followed by a close.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);

    // Freeing a slot re-admits: close one client, retry until the
    // handler's exit is observed by the accept loop.
    drop(b);
    let mut admitted = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(100));
        if let Ok(pong) = voltprop_serve::request(server.addr(), r#"{"op":"ping"}"#) {
            if pong.contains("\"pong\":true") {
                admitted = true;
                break;
            }
        }
    }
    assert!(
        admitted,
        "capacity freed by a closed connection is reusable"
    );
    drop(a);
}

#[test]
fn rate_limited_connection_is_shed_without_closing() {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_rps_per_conn: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut overloaded = 0;
    for _ in 0..6 {
        let reply = client.request(r#"{"op":"ping"}"#).unwrap();
        let value = Json::parse(&reply).unwrap();
        match value.get("ok").and_then(Json::as_bool) {
            Some(true) => {}
            Some(false) => {
                assert_eq!(error_kind(&value), Some("overloaded"), "{reply}");
                overloaded += 1;
            }
            None => panic!("untyped reply: {reply}"),
        }
    }
    assert!(
        overloaded >= 3,
        "6 back-to-back requests at 2 rps must shed at least 3, got {overloaded}"
    );
    // The counting window expires and the same connection serves again.
    std::thread::sleep(Duration::from_millis(1_100));
    assert_eq!(
        client.request(r#"{"op":"ping"}"#).unwrap(),
        r#"{"ok":true,"pong":true}"#
    );
}

#[test]
fn oversized_line_gets_malformed_request_then_close() {
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            max_line_bytes: 512,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    // 2 KiB of newline-free garbage overflows the 512-byte line cap.
    writer.write_all(&[b'x'; 2048]).unwrap();
    writer.flush().unwrap();

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let value = Json::parse(line.trim()).unwrap();
    assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(error_kind(&value), Some("malformed-request"), "{line}");
    // Framing is unrecoverable mid-line: the server closes.
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0);
}

#[test]
fn registry_evicts_lru_sessions_under_its_byte_budget() {
    // Measure real session footprints so the budget fits exactly one of
    // the two geometries the test serves.
    let probe = |width: usize| -> usize {
        let stack = Stack3d::builder(width, width, 2)
            .tsv_pattern(TsvPattern::Uniform { pitch: 2 })
            .uniform_load(1e-4)
            .build()
            .unwrap();
        SharedSession::build(&stack, VpConfig::default(), 1)
            .unwrap()
            .memory_bytes()
    };
    let budget = probe(10).max(probe(11)) + probe(10) / 2;
    let server = serve(
        "127.0.0.1:0",
        ServeConfig {
            slots: 1,
            registry_bytes: budget,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let first = Json::parse(&client.request(&plain_solve(10)).unwrap()).unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    // Same geometry is cached…
    let again = Json::parse(&client.request(&plain_solve(10)).unwrap()).unwrap();
    assert_eq!(again.get("cached").and_then(Json::as_bool), Some(true));

    // …until a second geometry pushes the registry past its budget and
    // evicts the idle LRU entry.
    let second = Json::parse(&client.request(&plain_solve(11)).unwrap()).unwrap();
    assert_eq!(second.get("ok").and_then(Json::as_bool), Some(true));
    let info = Json::parse(&client.request(r#"{"op":"info"}"#).unwrap()).unwrap();
    assert_eq!(
        info.get("sessions").and_then(Json::as_usize),
        Some(1),
        "budget fits one session: {info}"
    );
    assert!(
        info.get("evictions").and_then(Json::as_usize) >= Some(1),
        "eviction must be reported: {info}"
    );
    assert!(
        info.get("registry_bytes").and_then(Json::as_usize) <= Some(budget),
        "registry within budget: {info}"
    );

    // The evicted geometry is served again by a fresh build.
    let rebuilt = Json::parse(&client.request(&plain_solve(10)).unwrap()).unwrap();
    assert_eq!(rebuilt.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        rebuilt.get("cached").and_then(Json::as_bool),
        Some(false),
        "evicted session was rebuilt, not served stale"
    );
}

#[test]
fn shutdown_joins_every_handler_thread() {
    let server: ServerHandle = serve(
        "127.0.0.1:0",
        ServeConfig {
            slots: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // A few concurrent clients, one of which abandons its connection
    // mid-life, so the join accounting covers the unclean path too.
    std::thread::scope(|scope| {
        for c in 0..4 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let reply = client.request(&plain_solve(10 + c % 2)).unwrap();
                assert!(reply.contains("\"ok\":true"));
                if c == 0 {
                    return; // drop without a clean goodbye
                }
                let _ = client.request(r#"{"op":"ping"}"#);
            });
        }
    });

    let mut server = server;
    server.shutdown();
    let stats = server.stats();
    assert!(stats.connections_accepted >= 4);
    assert_eq!(
        stats.handlers_spawned, stats.handlers_finished,
        "every handler thread must be joined after shutdown: {stats:?}"
    );
}
