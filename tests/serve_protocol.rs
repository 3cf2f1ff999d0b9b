//! Wire-protocol contract of `voltprop-serve`:
//!
//! * golden request/response JSON round-trips (member set, order, and
//!   byte-stable re-encoding are pinned);
//! * malformed requests produce typed error responses on a connection
//!   that stays open — never a panic or a drop;
//! * registry behavior on a geometry-hash miss is pinned for both build
//!   policies: the default builds and caches, `"build":"reject"`
//!   returns `geometry-not-cached`.

use voltprop_serve::json::Json;
use voltprop_serve::{request, serve, Client, ServeConfig};

const STACK_A: &str = r#""stack":{"width":8,"height":8,"tiers":2,"tsv_pitch":2,"loads":1e-4}"#;
const STACK_B: &str = r#""stack":{"width":8,"height":8,"tiers":3,"tsv_pitch":2,"loads":1e-4}"#;

fn start() -> voltprop_serve::ServerHandle {
    serve(
        "127.0.0.1:0",
        ServeConfig {
            slots: 2,
            parallelism: 1,
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds an ephemeral port")
}

#[test]
fn golden_ping_and_info_responses() {
    let server = start();
    // Byte-exact golden line for the simplest op.
    let pong = request(server.addr(), r#"{"op":"ping"}"#).unwrap();
    assert_eq!(pong, r#"{"ok":true,"pong":true}"#);

    let info = Json::parse(&request(server.addr(), r#"{"op":"info"}"#).unwrap()).unwrap();
    assert_eq!(info.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(info.get("protocol").and_then(Json::as_usize), Some(1));
    assert_eq!(info.get("sessions").and_then(Json::as_usize), Some(0));
    assert_eq!(info.get("slots").and_then(Json::as_usize), Some(2));
}

#[test]
fn golden_solve_response_roundtrip() {
    let server = start();
    let reply = request(server.addr(), &format!(r#"{{"op":"solve",{STACK_A}}}"#)).unwrap();
    let value = Json::parse(&reply).expect("response is one JSON object");

    // The member set and order are part of the protocol contract.
    let Json::Obj(members) = &value else {
        panic!("response is not an object: {reply}");
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "ok",
            "geometry",
            "cached",
            "backend",
            "converged",
            "iterations",
            "sweeps",
            "residual",
            "nodes",
            "worst_drop"
        ]
    );
    assert_eq!(value.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(value.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(
        value.get("backend").and_then(Json::as_str),
        Some("voltprop")
    );
    assert_eq!(value.get("converged").and_then(Json::as_bool), Some(true));
    assert_eq!(value.get("nodes").and_then(Json::as_usize), Some(8 * 8 * 2));
    let geometry = value.get("geometry").and_then(Json::as_str).unwrap();
    assert_eq!(geometry.len(), 16, "geometry hash is 16 hex chars");

    // Parse → re-encode is byte-identical: the wire format is stable.
    assert_eq!(value.to_string(), reply);

    // The same geometry with different loads reuses the cached session
    // and reports the same hash.
    let second = Json::parse(
        &request(
            server.addr(),
            r#"{"op":"solve","stack":{"width":8,"height":8,"tiers":2,"tsv_pitch":2,"loads":3e-4},"voltages":true}"#,
        )
        .unwrap(),
    )
    .unwrap();
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        second.get("geometry").and_then(Json::as_str),
        Some(geometry)
    );
    let voltages = second.get("voltages").and_then(Json::as_arr).unwrap();
    assert_eq!(voltages.len(), 8 * 8 * 2, "full per-node voltage vector");
    assert!(voltages.iter().all(|v| v.as_f64().is_some()));
}

#[test]
fn malformed_requests_get_typed_errors_without_connection_drop() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();

    let cases: &[(&str, &str)] = &[
        ("this is not json", "malformed-request"),
        ("[1,2,3]", "malformed-request"),
        (r#"{"op":"explode"}"#, "bad-request"),
        (r#"{"op":"solve"}"#, "bad-request"),
        (
            r#"{"op":"solve","stack":{"width":8,"height":8,"tiers":2,"loads":[1,2,3]}}"#,
            "bad-request",
        ),
        (
            r#"{"op":"solve","stack":{"width":8,"height":8,"tiers":2,"loads":1e-4},"backend":"quantum"}"#,
            "bad-request",
        ),
    ];
    for (line, kind) in cases {
        let reply = client
            .request(line)
            .expect("connection survives a malformed request");
        let value = Json::parse(&reply).expect("error response is valid JSON");
        assert_eq!(value.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            value
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some(*kind),
            "for request {line:?}"
        );
        let message = value
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(!message.is_empty());
    }

    // The same connection still serves valid requests afterwards.
    let pong = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(pong, r#"{"ok":true,"pong":true}"#);
}

#[test]
fn geometry_miss_policy_is_pinned_reject_vs_rebuild() {
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();

    // 1. Cold registry + "build":"reject" → typed geometry-not-cached.
    let rejected = Json::parse(
        &client
            .request(&format!(r#"{{"op":"solve",{STACK_A},"build":"reject"}}"#))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(rejected.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        rejected
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("geometry-not-cached")
    );

    // 2. Default policy → builds and caches.
    let built = Json::parse(
        &client
            .request(&format!(r#"{{"op":"solve",{STACK_A}}}"#))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(built.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(built.get("cached").and_then(Json::as_bool), Some(false));

    // 3. Now "reject" succeeds against the cached entry.
    let warm = Json::parse(
        &client
            .request(&format!(r#"{{"op":"solve",{STACK_A},"build":"reject"}}"#))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(warm.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(warm.get("cached").and_then(Json::as_bool), Some(true));

    // 4. A *different* geometry still misses under "reject"…
    let other = Json::parse(
        &client
            .request(&format!(r#"{{"op":"solve",{STACK_B},"build":"reject"}}"#))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        other
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("geometry-not-cached")
    );

    // …and builds its own registry entry under the default policy.
    let other_built = Json::parse(
        &client
            .request(&format!(r#"{{"op":"solve",{STACK_B}}}"#))
            .unwrap(),
    )
    .unwrap();
    assert_eq!(other_built.get("ok").and_then(Json::as_bool), Some(true));
    assert_ne!(
        other_built.get("geometry").and_then(Json::as_str),
        built.get("geometry").and_then(Json::as_str),
        "distinct geometries hash to distinct registry keys"
    );

    let info = Json::parse(&client.request(r#"{"op":"info"}"#).unwrap()).unwrap();
    assert_eq!(info.get("sessions").and_then(Json::as_usize), Some(2));
}

#[test]
fn concurrent_clients_share_one_cached_session() {
    let server = start();
    let addr = server.addr();
    // Warm the registry once so every thread hits the cached session.
    let first =
        Json::parse(&request(addr, &format!(r#"{{"op":"solve",{STACK_A}}}"#)).unwrap()).unwrap();
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));

    let failures: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|c| {
                scope.spawn(move || -> Result<(), String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("client {c}: {e}"))?;
                    for i in 0..3 {
                        let line = format!(
                            r#"{{"op":"solve","stack":{{"width":8,"height":8,"tiers":2,"tsv_pitch":2,"loads":{}}}}}"#,
                            1e-4 * (c * 3 + i + 1) as f64
                        );
                        let reply =
                            client.request(&line).map_err(|e| format!("client {c}: {e}"))?;
                        let value = Json::parse(&reply)
                            .map_err(|e| format!("client {c} reply unparsable: {e}"))?;
                        if value.get("ok").and_then(Json::as_bool) != Some(true)
                            || value.get("cached").and_then(Json::as_bool) != Some(true)
                        {
                            return Err(format!("client {c} bad reply: {reply}"));
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
    assert!(failures.is_empty(), "{failures:?}");

    let info = Json::parse(&request(addr, r#"{"op":"info"}"#).unwrap()).unwrap();
    assert_eq!(
        info.get("sessions").and_then(Json::as_usize),
        Some(1),
        "12 concurrent solves of one geometry share one session"
    );
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let mut server = start();
    let bye = request(server.addr(), r#"{"op":"shutdown"}"#).unwrap();
    assert_eq!(bye, r#"{"ok":true,"stopping":true}"#);
    // Joins the accept loop and all handlers; must not hang.
    server.shutdown();
    // A fresh connection is no longer served a response (a connect that
    // fails outright — listener already gone — is equally fine).
    if let Ok(mut client) = Client::connect(server.addr()) {
        assert!(client.request(r#"{"op":"ping"}"#).is_err());
    }
}

#[test]
fn serial_pings_are_not_held_by_delayed_acks() {
    // A client that waits for every answer before sending the next
    // request makes the peer delay its ACKs. A line split over two
    // writes without TCP_NODELAY then stalls ~40 ms per request (Nagle
    // holds the newline until that ACK), so 20 pings would take ~1.7 s;
    // one write per line on no-delay sockets answers in well under 400 ms.
    let server = start();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(
        client.request(r#"{"op":"ping"}"#).unwrap(),
        r#"{"ok":true,"pong":true}"#
    );
    let start = std::time::Instant::now();
    for _ in 0..20 {
        assert_eq!(
            client.request(r#"{"op":"ping"}"#).unwrap(),
            r#"{"ok":true,"pong":true}"#
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "20 serial pings took {elapsed:?}"
    );
}
