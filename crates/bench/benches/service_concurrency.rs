//! Concurrent multi-session throughput of the `IcdbService`: N client
//! threads, each with its own session, hammer warm requests against one
//! shared knowledge base + generation cache. The headline metric is the
//! per-request warm speedup over cold generation measured in the same run
//! (machine-portable, gated by `perfgate` in CI).
//!
//! It also times `Session::close` by namespace size (k = 256, 1024 and
//! 4096 warm instances): closing must scale linearly in k, which
//! `perfgate` checks as a ceiling on the k4096/k256 time ratio.
//!
//! Besides the criterion groups, `main` runs an explicit measurement pass
//! and writes `BENCH_service_concurrency.json` next to this crate's
//! manifest so CI can archive and gate the perf trajectory.

use criterion::{black_box, Criterion};
use icdb::{ComponentRequest, Icdb, IcdbService};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The gated workload: the paper's §3.2.2 counter.
fn subject() -> ComponentRequest {
    ComponentRequest::by_component("counter")
        .attribute("size", "5")
        .attribute("up_or_down", "3")
}

/// Session counts the throughput sweep covers. The 64-session point is
/// connections ≫ cores territory: it gates the sharded service's warm
/// path against lock-convoy regressions.
const SESSION_COUNTS: [usize; 5] = [1, 2, 4, 8, 64];

/// Warm requests per session in the JSON measurement pass.
const WARM_REQUESTS_PER_SESSION: usize = 100;

/// Runs `per_session` warm requests on `sessions` concurrent sessions of
/// a pre-primed service; returns the wall-clock total.
fn run_warm(service: &Arc<IcdbService>, sessions: usize, per_session: usize) -> Duration {
    let request = subject();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..sessions {
            let service = Arc::clone(service);
            let request = request.clone();
            scope.spawn(move || {
                let session = service.open_session();
                for _ in 0..per_session {
                    black_box(session.request_component(&request).unwrap());
                }
            });
        }
    });
    start.elapsed()
}

/// Namespace sizes the close measurement covers.
const CLOSE_SIZES: [usize; 3] = [256, 1024, 4096];

/// Median time to close a session holding `k` warm instances of the
/// subject on a pre-primed service.
fn close_median(service: &Arc<IcdbService>, k: usize) -> Duration {
    let mut samples: Vec<Duration> = (0..3)
        .map(|_| {
            let session = service.open_session();
            for _ in 0..k {
                black_box(session.request_component(&subject()).unwrap());
            }
            let t = Instant::now();
            assert_eq!(black_box(session.close()), k);
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Median cold generation time of the subject on a dedicated server.
fn cold_median() -> Duration {
    let mut icdb = Icdb::new();
    let request = subject();
    let mut samples: Vec<Duration> = (0..5)
        .map(|_| {
            icdb.clear_generation_cache();
            let t = Instant::now();
            black_box(icdb.request_component(&request).unwrap());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

fn bench_concurrent_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_concurrency");
    group.sample_size(10);
    for sessions in SESSION_COUNTS {
        let service = Arc::new(IcdbService::new());
        // Prime the shared cache once so the measured loop is pure warm
        // multi-session traffic.
        service
            .open_session()
            .request_component(&subject())
            .unwrap();
        group.bench_function(format!("warm/sessions={sessions}"), |b| {
            b.iter(|| run_warm(&service, sessions, 10))
        });
    }
    group.finish();
}

fn bench_mixed_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_concurrency_mixed");
    group.sample_size(10);
    // 4 sessions each: one warm request + three shared-lock read queries.
    let service = Arc::new(IcdbService::new());
    service
        .open_session()
        .request_component(&subject())
        .unwrap();
    group.bench_function("mixed/sessions=4", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let service = Arc::clone(&service);
                    scope.spawn(move || {
                        let session = service.open_session();
                        let name = session.request_component(&subject()).unwrap();
                        black_box(session.delay_string(&name).unwrap());
                        black_box(session.shape_string(&name).unwrap());
                        black_box(session.vhdl_netlist(&name).unwrap());
                    });
                }
            })
        })
    });
    group.finish();
}

/// Explicit measurement pass feeding the JSON artifact and the verdict
/// lines printed at the end of the run.
fn measure_summary() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cold = cold_median();
    let mut rows = Vec::new();
    for sessions in SESSION_COUNTS {
        let service = Arc::new(IcdbService::new());
        service
            .open_session()
            .request_component(&subject())
            .unwrap();
        // One throwaway sweep to settle thread start-up, then the median
        // of three measured sweeps.
        run_warm(&service, sessions, 10);
        let mut samples: Vec<Duration> = (0..3)
            .map(|_| run_warm(&service, sessions, WARM_REQUESTS_PER_SESSION))
            .collect();
        samples.sort();
        let total = samples[samples.len() / 2];
        let requests = sessions * WARM_REQUESTS_PER_SESSION;
        let warm_per_req = total / requests as u32;
        let speedup = cold.as_nanos() as f64 / warm_per_req.as_nanos().max(1) as f64;
        let rps = requests as f64 / total.as_secs_f64();
        println!(
            "service_concurrency: sessions={sessions} (cores={cores}): {requests} warm requests \
             in {total:?} ({warm_per_req:?}/req, {rps:.0} req/s), cold {cold:?}, \
             speedup {speedup:.0}x (target >=10x: {})",
            if speedup >= 10.0 { "PASS" } else { "FAIL" }
        );
        rows.push(format!(
            "    {{\"sessions\": {sessions}, \"cores\": {cores}, \"requests\": {requests}, \
             \"cold_ns\": {}, \"warm_ns_per_req\": {}, \"requests_per_sec\": {rps:.0}, \
             \"speedup\": {speedup:.1}}}",
            cold.as_nanos(),
            warm_per_req.as_nanos()
        ));
    }
    let service = Arc::new(IcdbService::new());
    service
        .open_session()
        .request_component(&subject())
        .unwrap();
    let closes: Vec<(usize, Duration)> = CLOSE_SIZES
        .iter()
        .map(|&k| (k, close_median(&service, k)))
        .collect();
    let mut fields = Vec::new();
    for (k, t) in &closes {
        println!("service_concurrency: close k={k} (cores={cores}): {t:?}");
        fields.push(format!("\"k{k}_ns\": {}", t.as_nanos()));
    }
    let scaling = closes[2].1.as_secs_f64() / closes[0].1.as_secs_f64().max(1e-9);
    println!("service_concurrency: close k4096/k256 = {scaling:.1} (linear scaling gives 16)");
    format!(
        "{{\n  \"bench\": \"service_concurrency\",\n  \"scenarios\": [\n{}\n  ],\n  \
         \"close\": {{\"subject\": \"close\", \"cores\": {cores}, {}, \
         \"k4096_over_k256\": {scaling:.2}}}\n}}\n",
        rows.join(",\n"),
        fields.join(", ")
    )
}

fn main() {
    let mut criterion = Criterion::default().configure_from_args();
    bench_concurrent_warm(&mut criterion);
    bench_mixed_queries(&mut criterion);

    let json = measure_summary();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/BENCH_service_concurrency.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("service_concurrency: wrote {path}"),
        Err(e) => eprintln!("service_concurrency: could not write {path}: {e}"),
    }
}
