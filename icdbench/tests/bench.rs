//! The benchmark's own tests: its inputs are deterministic, and a tiny
//! run of every workload passes every output check.
//!
//! Run with `cargo test --release --manifest-path icdbench/Cargo.toml`.

use icdb::net::Server;
use icdb::IcdbService;
use icdbench::gen::{self, wire_line, ColdGen, SessionGen, Workload};
use icdbench::load::Kind;
use icdbench::trace::Tracer;
use icdbench::{check, drive, layer_inputs, prebuild, probe, verify, Budget, Plan};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// A fresh scratch directory under the build's temporary directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The wire bytes of the first requests of every stream of a seed.
fn stream_bytes(seed: u64) -> String {
    let plan = Plan::new(Workload::ExploreSweeps, seed);
    let mut out = String::new();
    let mut sessions = SessionGen::new(seed, 0, plan.pool.len());
    for _ in 0..20 {
        let s = sessions.next_session();
        for (i, &p) in s.requests.iter().enumerate() {
            let (command, args) = plan.pool[p].request(false);
            out.push_str(&wire_line(&command, &args));
            for read in &s.reads[i] {
                out.push_str(&format!("{read:?}\n"));
            }
        }
    }
    let mut cold = ColdGen::new(seed, 0, &plan.pool);
    for _ in 0..400 {
        let r = cold.next_request();
        let (command, args) = r.key.request(r.layout);
        out.push_str(&wire_line(&command, &args));
    }
    let mut sweeps = gen::sweep_stream(seed, &plan.history);
    for _ in 0..60 {
        let (command, args) = sweeps.next_sweep().command();
        out.push_str(&wire_line(&command, &args));
    }
    out
}

#[test]
fn the_same_seed_gives_the_same_cql_stream() {
    let a = stream_bytes(7);
    assert_eq!(a, stream_bytes(7));
    assert_ne!(a, stream_bytes(8));
    for w in Workload::ALL {
        assert_eq!(Plan::new(w, 7).history, Plan::new(w, 7).history);
    }
}

/// A plan with a short history, so debug builds stay quick.
fn small_plan(workload: Workload, seed: u64) -> Plan {
    let mut plan = Plan::new(workload, seed);
    plan.history.sessions.truncate(4);
    plan.history.sweeps.truncate(6);
    plan
}

fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("data dir exists")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("readable"),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn the_same_seed_gives_a_byte_identical_data_dir() {
    let plan = small_plan(Workload::ExploreSweeps, 3);
    let (a, b) = (scratch("det-a"), scratch("det-b"));
    let events = prebuild(&plan, &a).expect("prebuild a");
    prebuild(&plan, &b).expect("prebuild b");
    assert!(events > 0);
    assert_eq!(files(&a), files(&b));
}

#[test]
fn the_full_history_holds_twenty_thousand_installs() {
    for w in Workload::ALL {
        let plan = Plan::new(w, 5);
        let installs: usize = plan.history.sessions.iter().map(Vec::len).sum();
        assert!(installs >= gen::HISTORY_INSTALLS, "{installs}");
    }
}

/// Runs one workload briefly against an in-process server on its
/// pre-built directory and returns the drive.
fn tiny_run(workload: Workload, trace: bool) -> (Plan, icdbench::Drive) {
    let plan = small_plan(workload, 11);
    let dir = scratch(&format!("tiny-{}-{trace}", workload.name()));
    prebuild(&plan, &dir).expect("prebuild");
    let service = Arc::new(
        IcdbService::open_with_options(&dir, true, Duration::ZERO).expect("open data dir"),
    );
    let server = Server::bind("127.0.0.1:0", service, 8)
        .expect("bind")
        .spawn()
        .expect("spawn");
    let refs = check::WarmRef::build(&plan.pool).expect("reference");
    let budget = Budget {
        seconds: 0.5,
        tail_cold: 24,
        tail_sweeps: 6,
        tail_ops: 300,
    };
    let d = drive(&plan, server.addr(), &refs, budget, trace);
    server.shutdown();
    (plan, d)
}

fn assert_clean(workload: Workload, d: &icdbench::Drive) {
    assert_eq!(d.window.failed, 0, "{workload:?}: {:?}", d.window.errors);
    assert_eq!(d.tail.failed, 0, "{workload:?}: {:?}", d.tail.errors);
    let checked = verify(d);
    assert!(checked.checked > 0, "{workload:?} checked nothing");
    assert!(
        checked.failures.is_empty(),
        "{workload:?}: {:?}",
        checked.failures
    );
    for kind in [Kind::Warm, Kind::Read, Kind::Cold, Kind::Sweep] {
        assert!(
            !d.nanos(kind, None).is_empty(),
            "{workload:?} has no {kind:?}"
        );
    }
}

#[test]
fn a_tiny_design_sessions_run_passes_every_check() {
    let (_, d) = tiny_run(Workload::DesignSessions, false);
    assert_clean(Workload::DesignSessions, &d);
}

#[test]
fn a_tiny_cold_generate_run_passes_every_check() {
    let (_, d) = tiny_run(Workload::ColdGenerate, false);
    assert_clean(Workload::ColdGenerate, &d);
    assert!(!d.cold.is_empty());
}

#[test]
fn a_tiny_explore_sweeps_run_passes_every_check() {
    let (_, d) = tiny_run(Workload::ExploreSweeps, false);
    assert_clean(Workload::ExploreSweeps, &d);
    assert!(!d.sweeps.is_empty());
}

#[test]
fn a_traced_run_records_spans_for_every_layer() {
    let (plan, d) = tiny_run(Workload::ColdGenerate, true);
    assert_clean(Workload::ColdGenerate, &d);
    let inputs = layer_inputs(&plan, &d);
    let mut tracer = Tracer::default();
    probe::cql(&mut tracer, &inputs.lines[..50]).expect("parse");
    probe::pipeline(&mut tracer, &inputs.keys[..3]).expect("pipeline");
    for name in [
        "cql.parse",
        "gen.request",
        "iif.expand",
        "logic.optimize",
        "logic.map",
        "estimate.shape",
        "estimate.power",
        "vhdl.emit",
        "layout.place",
    ] {
        assert!(!tracer.durations(name).is_empty(), "no `{name}` span");
    }
    let selfs = tracer.self_times();
    let stages: u64 = tracer.durations("gen.stages").iter().sum();
    let children: u64 = ["iif.expand", "logic.optimize", "logic.map"]
        .iter()
        .map(|n| tracer.durations(n).iter().sum::<u64>())
        .sum();
    assert!(selfs["gen.stages"] <= stages - children);
    let traced = d
        .window
        .tracer
        .as_ref()
        .expect("traced connections keep spans");
    assert!(!traced.durations(Kind::Cold.span()).is_empty());
}

/// Generation must be a function of the request: recovery and
/// replication replay it and expect the same instance. Some keys break
/// this today: `COUNTER` size 4 with up_or_down 1, enable 1, load 1 and
/// `fastest` sizing yields one of two shape functions from one fresh
/// `Icdb` to the next (the shape estimator rounds a hash-order float sum
/// up to whole routing tracks). The cold-instance check therefore
/// compares a differing shape view with re-estimations of the reference
/// netlist's shape.
#[test]
#[ignore = "known defect: generation of some keys is nondeterministic"]
fn identical_requests_generate_identical_instances() {
    let request = icdb::ComponentRequest::by_implementation("COUNTER")
        .attribute("size", "4")
        .attribute("up_or_down", "1")
        .attribute("enable", "1")
        .attribute("load", "1")
        .strategy("fastest");
    let shapes: std::collections::BTreeSet<String> = (0..16)
        .map(|_| {
            let mut icdb = icdb::Icdb::new();
            let name = icdb.request_component(&request).expect("generates");
            icdb.shape_string(&name).expect("shape view")
        })
        .collect();
    assert_eq!(shapes.len(), 1, "{shapes:#?}");
}

/// The cold key of [`identical_requests_generate_identical_instances`].
fn unstable_key() -> gen::GenKey {
    gen::GenKey {
        imp: "COUNTER",
        attrs: vec![("size", 4), ("up_or_down", 1), ("enable", 1), ("load", 1)],
        sizing: gen::Sizing::Fastest,
        inline: false,
    }
}

/// Generates `key` on a fresh `Icdb`; returns the instance name and the
/// filled arguments of the cold check's view query.
fn cold_views(key: &gen::GenKey) -> (String, Vec<icdb::cql::CqlArg>) {
    let mut icdb = icdb::Icdb::new();
    let (command, mut args) = key.request(false);
    icdb.execute(&command, &mut args).expect("generates");
    let name = check::out_str(&args, 0).expect("name").to_string();
    let mut views = icdbench::load::cold_check_args(&name);
    icdb.execute(icdbench::load::COLD_CHECK, &mut views)
        .expect("views");
    (name, views)
}

/// Runs the cold check on one reply.
fn check_one(key: &gen::GenKey, name: String, wire: Vec<icdb::cql::CqlArg>) -> check::Checked {
    let record = icdbench::load::ColdRecord {
        req: gen::ColdRequest {
            key: key.clone(),
            layout: false,
            check: true,
        },
        name,
        cif: None,
    };
    check::check_cold(&[(record, wire)])
}

#[test]
fn the_cold_check_accepts_every_shape_the_estimator_gives() {
    let key = unstable_key();
    let mut shapes = std::collections::BTreeMap::new();
    for _ in 0..64 {
        let (name, wire) = cold_views(&key);
        let shape = format!("{:?}", wire[2]);
        shapes.entry(shape).or_insert((name, wire));
        if shapes.len() == 2 {
            break;
        }
    }
    assert_eq!(shapes.len(), 2, "the key's shape no longer varies");
    for (name, wire) in shapes.into_values() {
        let checked = check_one(&key, name, wire);
        assert_eq!(checked.checked, 1);
        assert!(checked.failures.is_empty(), "{:?}", checked.failures);
    }
}

#[test]
fn the_cold_check_rejects_a_changed_view() {
    use icdb::cql::CqlArg;
    let key = unstable_key();
    // Output 1 is the shape, output 0 the delay report.
    for (slot, from, to) in [(2, "height=", "height=9"), (1, "CW ", "CW 9")] {
        let (name, mut wire) = cold_views(&key);
        let CqlArg::OutStr(Some(view)) = &wire[slot] else {
            panic!("{wire:?}");
        };
        wire[slot] = CqlArg::OutStr(Some(view.replacen(from, to, 1)));
        let checked = check_one(&key, name, wire);
        assert_eq!(checked.failures.len(), 1, "{slot}: {checked:?}");
    }
}
