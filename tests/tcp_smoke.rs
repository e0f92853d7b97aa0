//! End-to-end TCP smoke test: start the server on an ephemeral port, run a
//! script over the wire, and require the responses to be **byte-identical**
//! to executing the same script on an in-process session with the shared
//! renderer (`isql::server::execute_rendered`) — the same text the
//! interactive shell prints.

use isql::server::{execute_rendered, serve, Client};
use isql::{Engine, Session};
use relalg::Relation;

fn seed(register: &mut dyn FnMut(&str, Relation)) {
    register("Flights", datagen::flights(1, 5, 8, 3));
    register("Hotels", datagen::hotels(1, 10, 8));
}

/// The scripted conversation: one request per entry, mixing selects
/// (world-splitting and plain), views, `set local`, DML, and errors.
const SCRIPT: &[&str] = &[
    "select certain Arr from Flights choice of Dep;",
    "create view Options as select Dep, Arr from Flights choice of Dep;",
    "select possible Arr from Options;",
    "set local rewrite = off;",
    "select possible Arr from Options;",
    "insert into Hotels values ('H_new', 'BCN');",
    "select possible Name from Hotels where City = 'BCN';",
    "delete from Hotels where Name = 'H_new';",
    "select zzz from NoSuchTable;",
    "select possible Dep from Flights;\nselect certain Dep from Flights choice of Dep;",
];

#[test]
fn tcp_responses_match_in_process_execution() {
    // In-process reference: a plain session executing the same script
    // through the same renderer.
    let mut reference = Session::new();
    seed(&mut |name, rel| reference.register(name, rel).unwrap());

    // Server under test, on an ephemeral port.
    let engine = Engine::new();
    let mut admin = engine.session();
    seed(&mut |name, rel| admin.register(name, rel).unwrap());
    let server = serve(engine, "127.0.0.1:0").expect("bind ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connect");

    for request in SCRIPT {
        let expected = execute_rendered(&mut reference, request);
        let got = client.request(request).expect("transport");
        assert_eq!(
            got, expected,
            "wire response differs from in-process execution for {request:?}"
        );
    }

    server.shutdown();
}

/// Newline framing (one script per line) works for single-line scripts,
/// and a `set local` on one connection does not leak into another.
#[test]
fn newline_framing_and_connection_isolation() {
    let engine = Engine::new();
    let mut admin = engine.session();
    admin
        .register("R", Relation::table(&["A"], &[&["x"], &["y"]]))
        .unwrap();
    let server = serve(engine, "127.0.0.1:0").expect("bind");

    let mut c1 = Client::connect(server.addr()).expect("connect c1");
    let mut c2 = Client::connect(server.addr()).expect("connect c2");

    let set = c1.query("set local rewrite = off;").expect("set local");
    assert_eq!(set, "set local rewrite = off\n");

    // Both connections still compute the same answers; each names its own
    // first answer Q1 (per-session query counters).
    let a1 = c1.query("select possible A from R;").expect("c1 select");
    let a2 = c2.query("select possible A from R;").expect("c2 select");
    assert_eq!(a1, a2);
    assert!(a1.starts_with("Q1: 1 distinct answer(s) across 1 world(s)"));

    // An error leaves the connection usable.
    let err = c2.request("select A from Nope;").expect("transport");
    assert!(err.is_err(), "expected an ERR response");
    assert!(c2.query("select possible A from R;").is_ok());

    server.shutdown();
}
