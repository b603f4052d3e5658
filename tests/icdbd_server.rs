//! End-to-end tests of the `icdbd` TCP server: wire round-trips are
//! byte-identical to the embedded API, connections get isolated sessions,
//! and the connection cap refuses politely.

use icdb::cql::CqlArg;
use icdb::net::{IcdbClient, Server};
use icdb::{Icdb, IcdbError, IcdbService};
use std::sync::Arc;
use std::time::Duration;

fn spawn_server(max_connections: usize) -> (icdb::net::ServerHandle, Arc<IcdbService>) {
    let service = Arc::new(IcdbService::new());
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), max_connections)
        .expect("bind ephemeral port");
    (server.spawn().expect("spawn server"), service)
}

#[test]
fn wire_results_match_the_embedded_api() {
    let (handle, _service) = spawn_server(8);
    let mut client = IcdbClient::connect(handle.addr()).unwrap();

    // Generate a counter over the wire, with a multiline %s constraint
    // input — the paper's §3.2.2 request verbatim.
    let mut args = vec![
        CqlArg::InStr("rdelay Q[4] 10\noload Q[4] 10".into()),
        CqlArg::OutStr(None),
    ];
    client
        .execute(
            "command:request_component; component_name:counter; attribute:(size:5); \
             function:(INC); clock_width:30; comb_delay:%s; set_up_time:30; \
             generated_component:?s",
            &mut args,
        )
        .unwrap();
    let CqlArg::OutStr(Some(name)) = &args[1] else {
        panic!("no instance name");
    };
    assert_eq!(name, "counter$1");

    // Query delay + shape over the wire (multiline outputs).
    let mut args = vec![
        CqlArg::InStr(name.clone()),
        CqlArg::OutStr(None),
        CqlArg::OutStr(None),
    ];
    client
        .execute(
            "command:instance_query; generated_component:%s; delay:?s; shape_function:?s",
            &mut args,
        )
        .unwrap();
    let CqlArg::OutStr(Some(wire_delay)) = &args[1] else {
        panic!("no delay");
    };
    let CqlArg::OutStr(Some(wire_shape)) = &args[2] else {
        panic!("no shape");
    };

    // Byte-identical to the same sequence against an embedded server.
    let mut solo = Icdb::new();
    let mut solo_args = vec![
        CqlArg::InStr("rdelay Q[4] 10\noload Q[4] 10".into()),
        CqlArg::OutStr(None),
    ];
    solo.execute(
        "command:request_component; component_name:counter; attribute:(size:5); \
         function:(INC); clock_width:30; comb_delay:%s; set_up_time:30; \
         generated_component:?s",
        &mut solo_args,
    )
    .unwrap();
    assert_eq!(wire_delay, &solo.delay_string("counter$1").unwrap());
    assert_eq!(wire_shape, &solo.shape_string("counter$1").unwrap());

    // List outputs travel too.
    let mut args = vec![CqlArg::OutStrList(None)];
    client
        .execute(
            "command:function_query; function:(ADD,SUB); implementation:?s[]",
            &mut args,
        )
        .unwrap();
    let CqlArg::OutStrList(Some(impls)) = &args[0] else {
        panic!("no list");
    };
    assert!(impls.contains(&"ADDSUB".to_string()), "{impls:?}");

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn connections_are_isolated_sessions() {
    let (handle, service) = spawn_server(8);
    let mut a = IcdbClient::connect(handle.addr()).unwrap();
    let mut b = IcdbClient::connect(handle.addr()).unwrap();
    let command = "command:request_component; component_name:counter; attribute:(size:4); \
                   generated_component:?s";

    let mut args = vec![CqlArg::OutStr(None)];
    a.execute(command, &mut args).unwrap();
    let CqlArg::OutStr(Some(name_a)) = &args[0] else {
        panic!()
    };
    let mut args = vec![CqlArg::OutStr(None)];
    b.execute(command, &mut args).unwrap();
    let CqlArg::OutStr(Some(name_b)) = &args[0] else {
        panic!()
    };
    // Independent per-session naming counters…
    assert_eq!(name_a, "counter$1");
    assert_eq!(name_b, "counter$1");
    // …but one shared generation cache underneath.
    assert_eq!(service.cache_stats().result.hits, 1);

    // B cannot see A's instance beyond the name coincidence: query B's own
    // session for an instance that only A created more of.
    let mut args = vec![CqlArg::OutStr(None)];
    a.execute(command, &mut args).unwrap(); // counter$2 in A
    let mut args = vec![CqlArg::InStr("counter$2".into()), CqlArg::OutStr(None)];
    let err = b
        .execute(
            "command:instance_query; generated_component:%s; delay:?s",
            &mut args,
        )
        .unwrap_err();
    assert!(err.to_string().contains("counter$2"), "{err}");

    // A malformed command errors without killing the connection.
    let mut args = vec![];
    assert!(b.execute("command:bogus_command", &mut args).is_err());
    let mut args = vec![CqlArg::OutInt(None)];
    b.execute("command:cache_query; hits:?d", &mut args)
        .unwrap();

    // ERR reason codes distinguish protocol-parse failures from command
    // failures: bad slot syntax never reaches the executor (`ERR parse`),
    // while an unknown command executes and fails (`ERR cql`).
    let parse_err = b.execute("command:x; y:%q", &mut []).unwrap_err();
    assert!(
        matches!(&parse_err, IcdbError::Parse(m) if m.contains("slot")),
        "expected a parse-coded error, got {parse_err:?}"
    );
    let cql_err = b.execute("command:bogus_command", &mut []).unwrap_err();
    assert!(
        matches!(&cql_err, IcdbError::Cql(m) if m.contains("bogus_command")),
        "expected a cql-coded error, got {cql_err:?}"
    );

    a.quit().unwrap();
    b.quit().unwrap();
    handle.shutdown();
}

#[test]
fn explore_runs_over_the_wire() {
    let (handle, _service) = spawn_server(4);
    let mut client = IcdbClient::connect(handle.addr()).unwrap();

    // Sweep the counter implementations over three widths with the delay
    // bound arriving through a typed %r constraint slot.
    let command = "command:explore; component:counter; widths:(3,4,5); \
                   strategies:(cheapest,fastest); max_delay:%r; workers:2; \
                   winner:?s; front:?s[]; points:?d; front_size:?d";
    let mut args = vec![
        CqlArg::InReal(1e9), // any point qualifies: winner = min area
        CqlArg::OutStr(None),
        CqlArg::OutStrList(None),
        CqlArg::OutInt(None),
        CqlArg::OutInt(None),
    ];
    client.execute(command, &mut args).unwrap();
    let CqlArg::OutStr(Some(wire_winner)) = &args[1] else {
        panic!("no winner");
    };
    let CqlArg::OutStrList(Some(wire_front)) = &args[2] else {
        panic!("no front");
    };
    let (CqlArg::OutInt(Some(points)), CqlArg::OutInt(Some(front_size))) = (&args[3], &args[4])
    else {
        panic!("no counts");
    };
    assert!(
        *points >= 18,
        "3+ impls x 3 widths x 2 strategies: {points}"
    );
    assert_eq!(*front_size as usize, wire_front.len());
    assert!(!wire_winner.is_empty());

    // Byte-identical to the embedded sweep.
    let icdb = Icdb::new();
    let report = icdb
        .explore(
            &icdb::ExploreSpec::by_component("counter")
                .widths([3, 4, 5])
                .strategies(["cheapest", "fastest"])
                .objective(icdb::Objective::MinAreaUnderDelay(1e9))
                .workers(2),
        )
        .unwrap();
    assert_eq!(wire_front, &report.front_lines());
    assert_eq!(wire_winner, &report.winner_point().unwrap().label());

    client.quit().unwrap();
    handle.shutdown();
}

#[test]
fn connection_cap_refuses_politely_and_recovers() {
    let (handle, service) = spawn_server(2);
    let a = IcdbClient::connect(handle.addr()).unwrap();
    let b = IcdbClient::connect(handle.addr()).unwrap();

    // Third connection is refused with an `ERR capacity` greeting, which
    // the client maps onto `Unsupported` — distinguishable from the
    // `Cql`/`Parse` errors a live session produces.
    let err = IcdbClient::connect(handle.addr()).unwrap_err();
    assert!(
        matches!(&err, IcdbError::Unsupported(m) if m.contains("connection capacity")),
        "unexpected error: {err:?}"
    );

    // Capacity frees up once a client leaves (the server tears the session
    // down asynchronously, so poll briefly).
    a.quit().unwrap();
    let mut again = None;
    for _ in 0..100 {
        match IcdbClient::connect(handle.addr()) {
            Ok(c) => {
                again = Some(c);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    let mut again = again.expect("capacity should free after quit");
    let mut args = vec![CqlArg::OutInt(None)];
    again
        .execute("command:cache_query; capacity:?d", &mut args)
        .unwrap();

    // Every live connection is one open session on the service.
    assert!(service.session_count() >= 2);
    again.quit().unwrap();
    b.quit().unwrap();
    handle.shutdown();
}

/// A hostile request nested far past the IIF parser's bound gets an `ERR`
/// reply instead of overflowing a worker's stack and aborting the daemon,
/// which keeps greeting new connections.
#[test]
fn deeply_nested_iif_is_refused_and_the_daemon_survives() {
    use std::io::{BufRead, BufReader, Write};

    let (handle, _service) = spawn_server(8);
    let depth = 100_000;
    let iif = format!(
        "NAME: DEEP; INORDER: A; OUTORDER: O; {{ O = {}A{}; }}",
        "(".repeat(depth),
        ")".repeat(depth)
    );
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    assert!(greeting.starts_with("OK icdbd"), "{greeting}");
    let line = format!(
        "{}\ts:{}\n",
        icdb::net::escape("command:insert_component; IIF:%s"),
        icdb::net::escape(&iif)
    );
    writer.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ERR "), "{reply}");
    assert!(reply.contains("nesting"), "{reply}");

    let mut fresh = IcdbClient::connect(handle.addr()).unwrap();
    fresh.hello().unwrap();
    fresh.quit().unwrap();
    handle.shutdown();
}
