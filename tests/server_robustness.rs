//! Robustness tests for the TCP front-end: malformed and hostile input
//! must cost at most the offending connection — never the process, never
//! another session — and the graceful `\shutdown` path must leave a
//! durable engine recoverable from its final snapshot.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use isql::server::{serve, serve_with, Client, ServeOptions, MAX_FRAME};
use isql::Engine;

fn test_engine() -> Engine {
    let engine = Engine::new();
    let mut admin = engine.session();
    admin
        .register("Flights", datagen::flights(1, 3, 5, 2))
        .unwrap();
    engine
}

/// Send raw bytes on a fresh connection and collect everything the
/// server sends back before closing.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(bytes).expect("send");
    stream.flush().unwrap();
    let mut response = Vec::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

/// After each hostile connection, the server must still answer a healthy
/// client on a new connection.
fn assert_still_serving(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("server died");
    let out = client
        .query("select possible Dep from Flights;")
        .expect("server no longer executes scripts");
    assert!(out.contains("distinct answer"), "unexpected output: {out}");
}

#[test]
fn malformed_frames_close_only_their_connection() {
    let server = serve(test_engine(), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // A healthy connection opened *before* the attacks must survive them.
    let mut survivor = Client::connect(addr).unwrap();

    // Oversized length frame: rejected before allocation.
    let huge = format!("#{}\n", MAX_FRAME + 1);
    let resp = raw_exchange(addr, huge.as_bytes());
    assert!(resp.starts_with("ERR "), "oversized frame: {resp:?}");
    assert!(
        resp.contains("exceeds maximum"),
        "oversized frame: {resp:?}"
    );
    assert_still_serving(addr);

    // Absurd length that does not even fit the frame grammar.
    let resp = raw_exchange(addr, b"#not-a-number\nx");
    assert!(resp.starts_with("ERR "), "bad length: {resp:?}");
    assert!(resp.contains("bad length frame"), "bad length: {resp:?}");
    assert_still_serving(addr);

    // Non-UTF-8 payload in a correctly sized frame.
    let mut bytes = b"#4\n".to_vec();
    bytes.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
    let resp = raw_exchange(addr, &bytes);
    assert!(resp.starts_with("ERR "), "non-UTF-8: {resp:?}");
    assert!(resp.contains("UTF-8"), "non-UTF-8: {resp:?}");
    assert_still_serving(addr);

    // Non-UTF-8 bytes in the header line itself.
    let resp = raw_exchange(addr, &[0xc3, 0x28, b'\n']);
    assert!(resp.starts_with("ERR "), "bad header: {resp:?}");
    assert_still_serving(addr);

    // A truncated frame (client dies mid-payload): no response possible,
    // but the server must shrug it off.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"#1000\nonly a few bytes").unwrap();
        // dropped here — connection reset mid-frame
    }
    assert_still_serving(addr);

    // The connection from before the attacks still works.
    let out = survivor
        .query("select certain Dep from Flights choice of Dep;")
        .expect("pre-existing connection was collateral damage");
    assert!(out.contains("distinct answer"), "unexpected output: {out}");

    server.shutdown();
}

#[test]
fn integer_overflow_answers_err_and_keeps_every_connection() {
    // Integer overflow is an error in every build profile, not a debug
    // panic or a wrapped value: the statement answers ERR and its
    // connection stays usable.
    let server = serve(test_engine(), "127.0.0.1:0").unwrap();
    let addr = server.addr();
    let mut other = Client::connect(addr).unwrap();

    let mut client = Client::connect(addr).unwrap();
    let overflowing =
        "select possible Dep from Flights where 9223372036854775807 + 9223372036854775807 = 0;";
    match client.request(overflowing) {
        Ok(Err(msg)) => assert!(msg.contains("integer overflow"), "unexpected error: {msg}"),
        Ok(Ok(out)) => panic!("overflow answered rows: {out}"),
        Err(e) => panic!("transport error instead of ERR response: {e}"),
    }
    let followup = client.query("select possible Dep from Flights;").unwrap();
    assert!(followup.contains("distinct answer"));

    // Other connections and new ones are unaffected.
    let out = other.query("select possible Dep from Flights;").unwrap();
    assert!(out.contains("distinct answer"));
    assert_still_serving(addr);
    server.shutdown();
}

#[test]
fn read_timeout_reaps_idle_connections() {
    let opts = ServeOptions {
        read_timeout: Some(Duration::from_millis(150)),
    };
    let server = serve_with(test_engine(), "127.0.0.1:0", opts).unwrap();
    let addr = server.addr();

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(600));
    // The server dropped the idle connection: reads see EOF (or reset).
    let mut buf = [0u8; 16];
    match idle.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes from a reaped connection"),
        Err(_) => {} // reset is fine too
    }
    // Active clients are unaffected.
    assert_still_serving(addr);
    server.shutdown();
}

#[test]
fn shutdown_command_checkpoints_and_stops_accepting() {
    let dir = std::env::temp_dir().join(format!("wsdb-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let engine = Engine::open(&dir).unwrap();
    assert!(engine.is_durable());
    let mut admin = engine.session();
    admin
        .register("Flights", datagen::flights(1, 3, 5, 2))
        .unwrap();
    admin
        .execute("insert into Flights values ('D777', 'HUB');")
        .unwrap();
    drop(admin);
    let expected = engine.snapshot();

    let server = serve(engine, "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // `\shutdown` is line-framed; the reply must arrive before the stop.
    let resp = raw_exchange(addr, b"\\shutdown\n");
    assert!(resp.starts_with("OK "), "shutdown reply: {resp:?}");
    assert!(resp.contains("shutting down"), "shutdown reply: {resp:?}");

    // The accept loop exits on its own — join() must return.
    server.join();
    assert!(
        Client::connect(addr).is_err(),
        "server still accepting after \\shutdown"
    );

    // The checkpoint left a snapshot at the final sequence number: a
    // reopened engine recovers the identical catalog.
    let snaps: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("snap-"))
        .collect();
    assert!(!snaps.is_empty(), "no snapshot written by \\shutdown");

    let reopened = Engine::open(&dir).unwrap();
    let recovered = reopened.snapshot();
    assert_eq!(recovered.seq(), expected.seq());
    assert!(recovered.world_set() == expected.world_set());
    assert!(recovered.keys() == expected.keys());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_with_retry_rides_out_late_bind() {
    // Reserve a port, free it, then bring the server up late while the
    // client is already retrying.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        serve(test_engine(), addr).unwrap()
    });

    let mut client = Client::connect_with_retry(addr, 30, Duration::from_millis(25))
        .expect("retry should outlast the late bind");
    let out = client.query("select possible Dep from Flights;").unwrap();
    assert!(out.contains("distinct answer"));

    server_thread.join().unwrap().shutdown();
}

#[test]
fn connect_with_retry_gives_up_after_bounded_attempts() {
    // Nothing listens here; the reserved port is closed again.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap()
    };
    let start = std::time::Instant::now();
    let err = match Client::connect_with_retry(addr, 3, Duration::from_millis(10)) {
        Ok(_) => panic!("no server must mean an error"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "bounded retries took too long"
    );
}

#[test]
fn client_rejects_oversized_response_length() {
    // A fake server whose status line announces an absurd payload: the
    // client must refuse it before allocating.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(b"OK 99999999999999\n").unwrap();
        // Hold the connection until the client has read the status line.
        let mut sink = Vec::new();
        let _ = stream.read_to_end(&mut sink);
    });
    let mut client = Client::connect(addr).unwrap();
    let err = client
        .request("select 1;")
        .expect_err("an oversized length must be an error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("exceeds maximum"), "{err}");
    drop(client);
    fake.join().unwrap();
}
