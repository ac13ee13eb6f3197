//! End-to-end daemon tests: a real listener, real sockets, the full
//! frame protocol — covering the hit/miss path, typed errors, load
//! shedding, status counters and clean shutdown.

use dbds_core::OptLevel;
use dbds_server::json::Json;
use dbds_server::{
    serve, Client, CompileRequest, CompileSource, ServerConfig, ServiceError, StoreChoice,
};

fn compile_req(name: &str) -> CompileRequest {
    CompileRequest {
        source: CompileSource::Workload(name.into()),
        level: OptLevel::Dbds,
        deadline_ms: None,
    }
}

fn counter(status: &Json, name: &str) -> u64 {
    status
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("status missing counter {name}: {status:?}"))
}

#[test]
fn tcp_session_hit_miss_status_shutdown() {
    let handle = serve(ServerConfig::default()).expect("serve");
    let addr = handle.addr.clone();

    let mut client = Client::connect(&addr).expect("connect");
    let cold = client.compile(compile_req("wordcount")).expect("compile");
    let warm = client.compile(compile_req("wordcount")).expect("compile");
    let cold = cold.expect("cold request failed");
    let warm = warm.expect("warm request failed");
    assert!(!cold.cached, "first request must miss");
    assert!(warm.cached, "second request must hit");
    assert_eq!(
        cold.artifact, warm.artifact,
        "hit must serve identical bytes"
    );
    assert!(!warm.artifact.ir.is_empty());

    // Typed errors: unknown workload, zero deadline.
    let bad = client
        .compile(compile_req("no-such-workload"))
        .expect("rpc");
    assert!(matches!(bad, Err(ServiceError::BadRequest(_))), "{bad:?}");
    let mut speedy = compile_req("wordcount");
    speedy.level = OptLevel::Dupalot; // distinct key: not already cached
    speedy.deadline_ms = Some(0);
    let timed_out = client.compile(speedy).expect("rpc");
    assert_eq!(timed_out, Err(ServiceError::DeadlineExceeded));

    // A second client sees the same daemon (and the cache).
    let mut other = Client::connect(&addr).expect("connect 2");
    let warm2 = other.compile(compile_req("wordcount")).expect("compile");
    assert!(warm2.expect("request failed").cached);

    let status = client.status().expect("status");
    assert_eq!(
        status.get("proto").and_then(Json::as_str),
        Some(dbds_server::PROTO_VERSION)
    );
    assert_eq!(counter(&status, "hits"), 2);
    assert_eq!(counter(&status, "misses"), 2); // wordcount cold + deadline try
    assert_eq!(counter(&status, "bad_requests"), 1);
    assert_eq!(counter(&status, "deadline_exceeded"), 1);

    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("dbds-daemon-test-{}.sock", std::process::id()));
    let handle = serve(ServerConfig {
        listen: format!("unix:{}", path.display()),
        ..ServerConfig::default()
    })
    .expect("serve");

    let mut client = Client::connect(&handle.addr).expect("connect");
    let served = client
        .compile(CompileRequest {
            source: CompileSource::IrText("func @u(v0: int) {\nb0:\n  return v0\n}\n".into()),
            level: OptLevel::Baseline,
            deadline_ms: None,
        })
        .expect("compile")
        .expect("request failed");
    assert!(!served.cached);
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_queue_sheds_with_typed_overloaded() {
    let handle = serve(ServerConfig {
        max_queue: 0,
        ..ServerConfig::default()
    })
    .expect("serve");

    let mut client = Client::connect(&handle.addr).expect("connect");
    let out = client.compile(compile_req("wordcount")).expect("rpc");
    assert_eq!(out, Err(ServiceError::Overloaded));

    // Status and shutdown are always admitted, and the shed shows up
    // in the counters.
    let status = client.status().expect("status");
    assert_eq!(counter(&status, "shed"), 1);
    assert_eq!(counter(&status, "requests"), 0);
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Regression for the check-then-increment admission race: with many
/// clients racing, the old two-step admission could admit more jobs
/// than `max_queue`. The daemon tracks the high-water mark of the queue
/// depth, so the bound is checked directly — and every request must be
/// either served or shed with the typed error, never dropped.
#[test]
fn concurrent_clients_never_exceed_the_admission_bound() {
    const CLIENTS: usize = 8;
    const REQS_PER_CLIENT: usize = 3;
    let handle = serve(ServerConfig {
        max_queue: 2,
        ..ServerConfig::default()
    })
    .expect("serve");
    let addr = handle.addr.clone();

    let workers: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                let mut served = 0u64;
                let mut shed = 0u64;
                for _ in 0..REQS_PER_CLIENT {
                    match client.compile(compile_req("wordcount")).expect("rpc") {
                        Ok(_) => served += 1,
                        Err(ServiceError::Overloaded) => shed += 1,
                        Err(other) => panic!("unexpected error: {other:?}"),
                    }
                }
                (served, shed)
            })
        })
        .collect();
    let (mut served, mut shed) = (0u64, 0u64);
    for worker in workers {
        let (s, d) = worker.join().expect("client thread");
        served += s;
        shed += d;
    }

    assert_eq!(served + shed, (CLIENTS * REQS_PER_CLIENT) as u64);
    assert!(
        handle.peak_queue() <= 2,
        "admission bound breached: peak queue depth {} > 2",
        handle.peak_queue()
    );
    let mut client = Client::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(counter(&status, "requests"), served);
    assert_eq!(counter(&status, "shed"), shed);
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn disk_store_persists_across_daemon_restarts() {
    let dir = std::env::temp_dir().join(format!("dbds-daemon-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServerConfig {
        store: StoreChoice::Disk(dir.clone()),
        ..ServerConfig::default()
    };

    let handle = serve(config()).expect("serve 1");
    let mut client = Client::connect(&handle.addr).expect("connect");
    let cold = client
        .compile(compile_req("wordcount"))
        .expect("rpc")
        .expect("request failed");
    assert!(!cold.cached);
    client.shutdown().expect("shutdown");
    handle.join();

    // A fresh daemon over the same directory serves from the cache.
    let handle = serve(config()).expect("serve 2");
    let mut client = Client::connect(&handle.addr).expect("connect");
    let warm = client
        .compile(compile_req("wordcount"))
        .expect("rpc")
        .expect("request failed");
    assert!(warm.cached, "restarted daemon must hit the on-disk cache");
    assert_eq!(warm.artifact, cold.artifact);
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deeply_nested_frame_is_a_bad_request_and_the_daemon_keeps_serving() {
    use dbds_server::proto::{read_frame, write_frame};
    use dbds_server::Request;
    use std::io::Write;

    let handle = serve(ServerConfig::default()).expect("serve");
    let mut stream = std::net::TcpStream::connect(&handle.addr).expect("connect");
    // One 200 KB frame of `[`: it used to overflow the connection
    // thread's stack and abort the whole daemon.
    let payload = vec![b'['; 200_000];
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .expect("send length");
    stream.write_all(&payload).expect("send payload");
    let answer = read_frame(&mut stream)
        .expect("read answer")
        .expect("daemon answered");
    assert_eq!(
        answer.get("error").and_then(Json::as_str),
        Some("bad-request")
    );

    // The same connection still speaks the protocol...
    write_frame(&mut stream, &Request::Status.to_json()).expect("send status");
    let status = read_frame(&mut stream)
        .expect("read status")
        .expect("status answered");
    assert!(status.get("counters").is_some(), "{status:?}");
    // ...and so does a fresh client.
    let mut client = Client::connect(&handle.addr).expect("connect 2");
    client.status().expect("status after the hostile frame");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn non_utf8_frame_is_a_bad_request_and_the_connection_keeps_serving() {
    use dbds_server::proto::{read_frame, write_frame};
    use dbds_server::Request;
    use std::io::Write;

    let handle = serve(ServerConfig::default()).expect("serve");
    let mut stream = std::net::TcpStream::connect(&handle.addr).expect("connect");
    // A well-framed payload that is not UTF-8: the daemon used to close
    // the stream without answering.
    let payload = [b'{', 0xff, 0xfe, b'}'];
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .expect("send length");
    stream.write_all(&payload).expect("send payload");
    let answer = read_frame(&mut stream)
        .expect("read answer")
        .expect("daemon answered");
    assert_eq!(
        answer.get("error").and_then(Json::as_str),
        Some("bad-request")
    );

    // The same connection still speaks the protocol.
    write_frame(&mut stream, &Request::Status.to_json()).expect("send status");
    let status = read_frame(&mut stream)
        .expect("read status")
        .expect("status answered");
    assert!(status.get("counters").is_some(), "{status:?}");
    drop(stream);
    let mut client = Client::connect(&handle.addr).expect("connect 2");
    client.shutdown().expect("shutdown");
    handle.join();
}
