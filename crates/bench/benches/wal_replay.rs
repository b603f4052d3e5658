//! Perf claim of the durability layer: recovering a server from its data
//! directory must be fast — WAL replay re-runs the deterministic pipeline
//! (through the generation cache, so repeated requests replay warm), and
//! a snapshot short-circuits replay entirely.
//!
//! Besides the criterion groups, `main` runs an explicit measurement pass
//! and writes `BENCH_wal_replay.json` next to this crate's manifest;
//! `perfgate` enforces the floors committed in `BENCH_baseline.json`:
//!
//! * `replay/events_per_sec` — startup throughput when the whole history
//!   (snapshot + WAL tail) is replayed at boot. The history is large
//!   (over 10k events) so that replay, not process-independent boot work
//!   such as building the builtin library, dominates the measured time;
//! * `snapshot/speedup` — how much faster booting from a checkpoint is
//!   than replaying the same history from the WAL (a ratio, so it
//!   transfers between machines).

use criterion::{black_box, Criterion};
use icdb::{ComponentRequest, Icdb};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Events in the benchmark history (installs + designs + publishes).
const TARGET_EVENTS: u64 = 10_000;

/// Design sessions in the history and the installs each makes.
const SESSIONS: usize = 40;
const INSTALLS_PER_SESSION: usize = 250;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "icdb-wal-replay-bench-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A representative mutation history: design sessions that each install
/// a few hundred components (mostly repeats of a few keys, which replay
/// through the warm cache like real traffic) and then close, plus root
/// installs, design transactions and table publishes.
fn build_history(icdb: &mut Icdb) {
    let kinds = ["counter", "register", "shifter"];
    for s in 0..SESSIONS {
        let ns = icdb.create_namespace();
        for i in 0..INSTALLS_PER_SESSION {
            let kind = kinds[(s + i) % 3];
            let size = 2 + i % 4;
            icdb.request_component_in(
                ns,
                &ComponentRequest::by_component(kind).attribute("size", size.to_string()),
            )
            .expect("session install");
        }
        icdb.drop_namespace(ns);
    }
    for i in 0..18u32 {
        let kind = kinds[(i % 3) as usize];
        let size = 2 + (i % 3);
        icdb.request_component(
            &ComponentRequest::by_component(kind).attribute("size", size.to_string()),
        )
        .expect("bench install");
    }
    for i in 0..6u32 {
        let design = format!("d{i}");
        icdb.start_design(&design).expect("design");
        icdb.start_transaction(&design).expect("txn");
        let name = icdb
            .request_component(
                &ComponentRequest::by_implementation("ADDER")
                    .attribute("size", (2 + i % 4).to_string()),
            )
            .expect("txn install");
        if i % 2 == 0 {
            icdb.put_in_component_list(&design, &name).expect("keep");
        }
        icdb.end_transaction(&design).expect("end txn");
    }
    for _ in 0..3 {
        icdb.publish_cache_stats().expect("publish");
    }
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn bench_recovery(c: &mut Criterion) {
    let dir = temp_dir("criterion");
    {
        let mut icdb = Icdb::open_with_sync(&dir, false).expect("open");
        build_history(&mut icdb);
        icdb.sync_journal().expect("sync");
    }
    let mut group = c.benchmark_group("wal_replay");
    group.sample_size(10);
    group.bench_function("wal_replay_startup", |b| {
        b.iter(|| black_box(Icdb::open_with_sync(&dir, false).expect("recover")))
    });
    {
        let mut icdb = Icdb::open_with_sync(&dir, false).expect("open");
        icdb.checkpoint().expect("checkpoint");
    }
    group.bench_function("snapshot_startup", |b| {
        b.iter(|| black_box(Icdb::open_with_sync(&dir, false).expect("recover")))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Explicit measurement pass feeding the JSON artifact and the verdict
/// printed at the end of the run.
fn measure_summary() -> String {
    let dir = temp_dir("summary");
    {
        let mut icdb = Icdb::open_with_sync(&dir, false).expect("open");
        build_history(&mut icdb);
        icdb.sync_journal().expect("sync");
    }
    let events = {
        let icdb = Icdb::open_with_sync(&dir, false).expect("probe");
        icdb.persist_stats().expect("stats").recovered_events
    };
    assert!(events >= TARGET_EVENTS, "history too small: {events}");

    let wal_replay = median(
        (0..7)
            .map(|_| {
                let t = Instant::now();
                black_box(Icdb::open_with_sync(&dir, false).expect("recover"));
                t.elapsed()
            })
            .collect(),
    );
    {
        let mut icdb = Icdb::open_with_sync(&dir, false).expect("open");
        icdb.checkpoint().expect("checkpoint");
    }
    let snapshot = median(
        (0..7)
            .map(|_| {
                let t = Instant::now();
                black_box(Icdb::open_with_sync(&dir, false).expect("recover"));
                t.elapsed()
            })
            .collect(),
    );
    std::fs::remove_dir_all(&dir).ok();

    let events_per_sec = events as f64 / wal_replay.as_secs_f64().max(1e-9);
    let speedup = wal_replay.as_nanos() as f64 / snapshot.as_nanos().max(1) as f64;
    println!(
        "wal_replay: {events} events: wal-replay startup {wal_replay:?} \
         ({events_per_sec:.0} events/s), snapshot startup {snapshot:?} \
         (snapshot speedup {speedup:.1}x)"
    );
    format!(
        "{{\n  \"bench\": \"wal_replay\",\n  \"startup\": [\n    \
         {{\"subject\": \"replay\", \"events\": {events}, \"wal_replay_ns\": {}, \
         \"events_per_sec\": {events_per_sec:.1}}},\n    \
         {{\"subject\": \"snapshot\", \"snapshot_ns\": {}, \"speedup\": {speedup:.1}}}\n  ]\n}}\n",
        wal_replay.as_nanos(),
        snapshot.as_nanos()
    )
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_recovery(&mut criterion);

    let json = measure_summary();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_wal_replay.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wal_replay: wrote {path}"),
        Err(e) => eprintln!("wal_replay: could not write {path}: {e}"),
    }
}
