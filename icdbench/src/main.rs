//! `icdbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root: builds `icdbd` in release mode, runs one
//! workload against it and prints one JSON result as the last line of
//! standard output (a human-readable table goes to standard error).

use icdbench::gen::Workload;
use icdbench::load::{self, Kind};
use icdbench::server::{build_icdbd, client_policy, copy_dir, Daemon};
use icdbench::trace::Tracer;
use icdbench::{check, e2e_metrics, prebuild, probe, verify, Budget, Drive, Metrics, Plan};
use std::path::Path;
use std::process::ExitCode;

/// Daemon starts timed per run (`setup_s` is their median).
const SETUP_STARTS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The outcome of one run.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("icdbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let work = root.join(".icdbench_run").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(out) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.failed == 0,
                out.attempted.max(1),
                out.failed,
                out.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("icdbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let bin = build_icdbd(root)?;
    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;

    let plan = Plan::new(args.workload, args.seed);
    let base = work.join("base");
    let events = prebuild(&plan, &base)?;
    let refs = check::WarmRef::build(&plan.pool)?;

    // Set-up: start the daemon on copies of the pre-built directory; the
    // last start serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_STARTS {
        let dir = work.join(format!("data{i}"));
        copy_dir(&base, &dir).map_err(|e| format!("copy data dir: {e}"))?;
        let d = Daemon::start(&bin, &dir)?;
        setups.push(d.setup.as_secs_f64());
        if i + 1 == SETUP_STARTS {
            daemon = Some(d);
        }
    }
    let mut daemon = daemon.expect("at least one start");
    let run_dir = work.join(format!("data{}", SETUP_STARTS - 1));

    let budget = Budget::full(args.seconds);
    let mut drive = icdbench::Drive::new();
    let mut tail = icdbench::Tail::new(&plan);
    icdbench::drive_tail(
        &mut drive,
        &mut tail,
        &plan,
        daemon.addr,
        &refs,
        budget,
        args.trace,
    );
    // Cache-layer deltas cover the window only (traced runs).
    let mut cache = (Vec::new(), Vec::new());
    if args.trace {
        cache.0 = cache_stats(&daemon)?;
    }
    icdbench::drive_window(&mut drive, &plan, daemon.addr, &refs, budget, args.trace);
    if args.trace {
        cache.1 = cache_stats(&daemon)?;
    }
    icdbench::drive_tail(
        &mut drive,
        &mut tail,
        &plan,
        daemon.addr,
        &refs,
        budget,
        args.trace,
    );
    let rss = daemon.peak_rss_mb().unwrap_or(0.0);

    let checked = verify(&drive);
    let attempted = drive.window.attempted + drive.tail.attempted + checked.checked;
    let failed = drive.window.failed + drive.tail.failed + checked.failures.len() as u64;
    for e in drive
        .window
        .errors
        .iter()
        .chain(&drive.tail.errors)
        .chain(&checked.failures)
        .take(10)
    {
        eprintln!("icdbench: FAILED {e}");
    }

    let e2e = e2e_metrics(&drive, &setups, rss);
    report(args, &drive, &e2e, events, attempted, failed);
    // Known generator defect: kept visible, not counted as a serving fault.
    eprintln!(
        "  nondeterministic references: {} of {} checked replies",
        checked.unstable.len(),
        checked.checked
    );
    for u in checked.unstable.iter().take(5) {
        eprintln!("    {u}");
    }
    let metrics = if args.trace {
        traced_layers(
            args,
            &plan,
            &mut daemon,
            work,
            &base,
            &run_dir,
            &mut drive,
            &e2e,
            (&cache.0, &cache.1),
        )?
    } else {
        e2e
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// `(hits, misses, evictions)` of the result, flat and netlist layers.
type LayerCounts = Vec<(i64, i64, i64)>;

/// Reads [`LayerCounts`] over the wire.
fn cache_stats(daemon: &Daemon) -> Result<LayerCounts, String> {
    let mut client = icdb::net::IcdbClient::connect_with(daemon.addr, client_policy())
        .map_err(|e| e.to_string())?;
    let stats = ["result", "flat", "netlist"]
        .iter()
        .map(|layer| load::cache_layer(&mut client, layer).ok_or("cache_query failed"))
        .collect::<Result<Vec<_>, _>>()?;
    let _ = client.quit();
    Ok(stats)
}

/// The human-readable summary on standard error, with the machine shape.
fn report(args: &Args, drive: &Drive, e2e: &Metrics, events: u64, attempted: u64, failed: u64) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "icdbench {} seed={} window={:.1}s cores={cores} fs={} durability=fsync,group-commit-window=0ms \
         history_events={events}",
        args.workload.name(),
        args.seed,
        drive.window_s(),
        filesystem(Path::new(".")),
    );
    let count = |k| drive.nanos(k, None).len();
    eprintln!(
        "  samples: warm={} read={} cold={} sweep={} hello={}",
        count(Kind::Warm),
        count(Kind::Read),
        count(Kind::Cold),
        count(Kind::Sweep),
        count(Kind::Hello)
    );
    let int = |args: &[icdb::cql::CqlArg], i| match args.get(i) {
        Some(icdb::cql::CqlArg::OutInt(Some(n))) => *n,
        _ => 0,
    };
    let (points, evaluated) = drive.sweeps.iter().fold((0, 0), |(p, e), (_, out)| {
        (p + int(out, 2), e + int(out, 3))
    });
    eprintln!(
        "  sweeps: {} with {points} points, {evaluated} evaluated",
        drive.sweeps.len()
    );
    for m in &e2e.0 {
        eprintln!("  {:<24} {:>14.3} {}", m.name, m.value, m.unit);
    }
    for m in &icdbench::ungated_metrics(drive).0 {
        eprintln!("  {:<24} {:>14.3} {} (not gated)", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:<24} {:>14.6} fraction ({failed} of {attempted}, not gated)",
        "failed_ratio",
        failed as f64 / attempted.max(1) as f64
    );
}

/// The filesystem type holding `path` (from `/proc/self/mounts`).
fn filesystem(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    args: &Args,
    plan: &Plan,
    daemon: &mut Daemon,
    work: &Path,
    base: &Path,
    run_dir: &Path,
    drive: &mut Drive,
    e2e: &Metrics,
    (before, after): (&LayerCounts, &LayerCounts),
) -> Result<Metrics, String> {
    let mut tracer = Tracer::default();
    let inputs = icdbench::layer_inputs(plan, drive);

    probe::cql(&mut tracer, &inputs.lines)?;
    let overhead = probe::serve(
        &mut tracer,
        daemon.addr,
        &work.join("serve"),
        &plan.pool,
        plan.seed,
        3000,
    )?;
    let gates = probe::pipeline(&mut tracer, &inputs.keys)?;
    let explore = probe::explore(&mut tracer, base, &work.join("explore"), &inputs.sweeps)?;
    daemon.stop();
    let store = probe::store(&mut tracer, run_dir, &work.join("store"), 1000)?;

    let mut m = Metrics::default();
    let med = |t: &Tracer, name: &str| probe::median_us(&t.durations(name));
    m.put("net.rtt_us", med(&tracer, "net.rtt"), "us");
    m.put("net.overhead_us", probe::median_us(&overhead), "us");
    m.put(
        "net.connect_hello_us",
        med(&tracer, "net.connect_hello"),
        "us",
    );
    m.put("cql.parse_us", med(&tracer, "cql.parse"), "us");
    m.put(
        "service.execute_warm_us",
        med(&tracer, "service.execute_warm"),
        "us",
    );
    m.put(
        "service.execute_read_us",
        med(&tracer, "service.execute_read"),
        "us",
    );
    m.put(
        "service.open_session_us",
        med(&tracer, "service.open_session"),
        "us",
    );
    for k in ["k256", "k1024", "k4096"] {
        let span = format!("service.close.{k}");
        let v = tracer
            .spans()
            .iter()
            .find(|s| s.name == span)
            .map_or(0.0, |s| s.nanos() as f64 / 1e6);
        m.put(format!("service.close_ms.{k}"), v, "ms");
    }
    for (i, layer) in ["result", "flat", "netlist"].iter().enumerate() {
        let (h0, m0, _) = before.get(i).copied().unwrap_or_default();
        let (h1, m1, _) = after.get(i).copied().unwrap_or_default();
        let (hits, misses) = ((h1 - h0) as f64, (m1 - m0) as f64);
        let ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        m.put(format!("cache.{layer}_hit_ratio"), ratio, "ratio");
    }
    let evictions = after.first().map_or(0, |a| a.2) - before.first().map_or(0, |b| b.2);
    m.put("cache.result_evictions", evictions as f64, "count");
    for name in ["iif.parse", "iif.expand", "logic.optimize", "logic.map"] {
        m.put(format!("{name}_us"), med(&tracer, name), "us");
    }
    let mean_gates = gates.iter().sum::<usize>() as f64 / gates.len().max(1) as f64;
    m.put("logic.gates", mean_gates, "count");
    for s in ["cheapest", "constraints", "fastest"] {
        let span = format!("sizing.size.{s}");
        m.put(format!("sizing.size_us.{s}"), med(&tracer, &span), "us");
    }
    for name in [
        "estimate.shape",
        "estimate.power",
        "vhdl.emit",
        "layout.place",
    ] {
        let metric = if name == "layout.place" {
            "layout.place_us".to_string()
        } else {
            format!("{name}_us")
        };
        m.put(metric, med(&tracer, name), "us");
    }
    m.put("store.commit_us", med(&tracer, "store.commit"), "us");
    m.put(
        "store.replay_events_per_s",
        store.replay_events_per_s,
        "events/s",
    );
    m.put(
        "store.wal_bytes_per_event",
        store.bytes_per_event,
        "B/event",
    );
    m.put("explore.sweep_us", med(&tracer, "explore.sweep"), "us");
    m.put(
        "explore.evaluated_ratio",
        explore.evaluated as f64 / explore.grid.max(1) as f64,
        "ratio",
    );
    m.put(
        "explore.corpus_hit_ratio",
        explore.hits as f64 / explore.lookups.max(1) as f64,
        "ratio",
    );

    // What the layer spans leave unexplained.
    let total = |name: &str| tracer.durations(name).iter().sum::<u64>() as f64;
    let stages: f64 = [
        "iif.parse",
        "iif.expand",
        "logic.optimize",
        "logic.map",
        "sizing.size.cheapest",
        "sizing.size.constraints",
        "sizing.size.fastest",
        "estimate.shape",
        "estimate.power",
        "vhdl.emit",
    ]
    .iter()
    .map(|n| {
        // Only the sizing runs inside `gen.stages` count.
        tracer
            .spans()
            .iter()
            .filter(|s| s.name == *n && s.parent != 0)
            .map(|s| s.nanos() as f64)
            .sum::<f64>()
    })
    .sum();
    let gen_total = total("gen.request");
    m.put(
        "trace.unexplained_share.gen",
        (gen_total - stages) / gen_total.max(1.0),
        "ratio",
    );
    let warm = med(&tracer, "service.execute_warm");
    let explained = med(&tracer, "cql.parse") + med(&tracer, "store.commit");
    let wire_warm = e2e
        .0
        .iter()
        .find(|x| x.name == "warm_request_p50_us")
        .map_or(0.0, |x| x.value);
    m.put(
        "trace.unexplained_share.serve",
        (warm - explained) / wire_warm.max(1e-9),
        "ratio",
    );
    // Tracing overhead: traced minus untraced round trips of the window.
    let kind = match args.workload {
        icdbench::gen::Workload::ExploreSweeps => Kind::Sweep,
        icdbench::gen::Workload::ColdGenerate => Kind::Cold,
        icdbench::gen::Workload::DesignSessions => Kind::Warm,
    };
    let traced = probe::median_us(&drive.nanos(kind, Some(true)));
    let untraced = probe::median_us(&drive.nanos(kind, Some(false)));
    m.put("trace.overhead_us", traced - untraced, "us");

    for conn in [drive.window.tracer.take(), drive.tail.tracer.take()]
        .into_iter()
        .flatten()
    {
        tracer.absorb(conn);
    }
    let selfs = tracer.self_times();
    let spans_path = work.parent().unwrap_or(work).join(format!(
        "spans-{}-{}.tsv",
        args.workload.name(),
        args.seed
    ));
    tracer
        .write_tsv(&spans_path)
        .map_err(|e| format!("write spans: {e}"))?;
    eprintln!(
        "  self time per span (ms), spans in {}:",
        spans_path.display()
    );
    for (name, ns) in &selfs {
        eprintln!("    {name:<28} {:>12.3}", *ns as f64 / 1e6);
    }
    for x in &m.0 {
        eprintln!("  {:<32} {:>14.3} {}", x.name, x.value, x.unit);
    }
    Ok(m)
}
