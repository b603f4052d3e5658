//! `icdbench` — the end-to-end and per-layer benchmark of `icdbd`.
//!
//! One run builds a seeded, durable data directory, starts the real
//! daemon on it several times (timing recovery up to the first `hello`),
//! drives a closed-loop workload over at most two connections for a
//! fixed window, checks every reply against in-process references, and
//! prints one JSON result line. A traced run (`--trace 1`) replays the
//! same seeded inputs through each layer's public functions and reports
//! the per-layer metrics instead. See `README.md` in this directory.

pub mod check;
pub mod gen;
pub mod load;
pub mod probe;
pub mod server;
pub mod sweep;
pub mod trace;

use gen::{GenKey, History, Sweep, SweepGen, Workload};
use icdb::cql::CqlArg;
use icdb::IcdbService;
use load::{ColdRecord, ConnReport, Kind};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A workload's seeded inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The warm library keys of the design sessions.
    pub pool: Vec<GenKey>,
    /// The pre-built history of its data directory.
    pub history: History,
}

impl Plan {
    /// The plan of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let pool = gen::warm_pool();
        let history = gen::history(workload, seed, pool.len());
        Plan {
            workload,
            seed,
            pool,
            history,
        }
    }

    /// The sweep stream of the measured window (continuing the
    /// history's corpus) or of the tail.
    fn sweeps(&self) -> SweepGen {
        match self.workload {
            Workload::ExploreSweeps => gen::sweep_stream(self.seed, &self.history),
            _ => SweepGen::new(TAIL_SEED, 2, gen::SWEEP_WORKERS),
        }
    }

    /// The seed of the cold stream: the window's, or the tail's.
    fn cold_seed(&self) -> (u64, u64) {
        match self.workload {
            Workload::ColdGenerate => (self.seed, 0),
            _ => (TAIL_SEED, 1),
        }
    }
}

/// Seed of the tails. A tail only gives a workload the operation kinds
/// its window measures for no metric, so it replays the same sequences in every run: a
/// seed-drawn tail (which sweep families, which widths) moved its
/// percentiles by up to a factor of two between seeds.
const TAIL_SEED: u64 = 0x7a11;

/// Writes the plan's history into `dir` through an in-process durable
/// service (no fsync: only the bytes matter) and returns the number of
/// journaled events.
///
/// # Errors
/// Any history command failing.
pub fn prebuild(plan: &Plan, dir: &Path) -> Result<u64, String> {
    let service = Arc::new(
        IcdbService::open_with_options(dir, false, Duration::ZERO)
            .map_err(|e| format!("open {}: {e}", dir.display()))?,
    );
    let run = |session: &icdb::Session, command: &str, args: &[CqlArg]| {
        session
            .execute(command, &mut args.to_vec())
            .map_err(|e| format!("history `{command}`: {e}"))
    };
    for requests in &plan.history.sessions {
        let session = service.open_session();
        for &p in requests {
            let (command, args) = plan.pool[p].request(false);
            run(&session, &command, &args)?;
        }
        session.close();
    }
    if !plan.history.sweeps.is_empty() {
        let session = service.open_session();
        for sweep in &plan.history.sweeps {
            let (command, args) = sweep.command();
            run(&session, &command, &args)?;
        }
        session.close();
    }
    Ok(service.persist_stats().map_or(0, |s| s.wal_events))
}

/// How much a run does.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// The measured window (s).
    pub seconds: f64,
    /// Cold requests of the tail, for workloads whose window has none.
    pub tail_cold: usize,
    /// Sweeps of the tail, for workloads whose window has none.
    pub tail_sweeps: usize,
    /// Design-session operations of the tail, for workloads whose window
    /// has none.
    pub tail_ops: u64,
}

impl Budget {
    /// The benchmark's budget for a window of `seconds`: tails large
    /// enough for a p99 (cold, warm, read) and a p90 (sweeps) with ten
    /// samples beyond.
    pub fn full(seconds: f64) -> Budget {
        Budget {
            seconds,
            tail_cold: 2500,
            tail_sweeps: 400,
            tail_ops: 40_000,
        }
    }
}

/// How long after connection A the neighbour B starts.
const NEIGHBOUR_DELAY: Duration = Duration::from_millis(20);

/// Think time of the `cold_generate` neighbour after each reply.
const NEIGHBOUR_THINK: Duration = Duration::from_millis(2);

/// Time slices of the window for its latency percentiles.
const SLICES: usize = 24;

/// Fewest samples in a percentile slice: enough that slices of a
/// seeded stream hold similar mixes of work.
const MIN_SLICE: usize = 100;

/// The lower quartile of `values` (0 for none).
fn lower_quartile(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 4).copied().unwrap_or(0.0)
}

/// Everything a workload did on the wire.
#[derive(Debug)]
pub struct Drive {
    /// The measured window, both connections merged.
    pub window: ConnReport,
    /// Start of the window.
    pub start: Instant,
    /// End of the window.
    pub end: Instant,
    /// Both halves of the tail, around the window.
    pub tail: ConnReport,
    /// Kinds whose metrics come from the window; the others come from
    /// the tail.
    pub window_kinds: Vec<Kind>,
    /// Sampled cold instances and their view replies.
    pub cold: Vec<(ColdRecord, Vec<CqlArg>)>,
    /// Every answered sweep.
    pub sweeps: Vec<(Sweep, Vec<CqlArg>)>,
}

impl Default for Drive {
    fn default() -> Drive {
        Drive::new()
    }
}

impl Drive {
    /// A drive with nothing done yet.
    pub fn new() -> Drive {
        let now = Instant::now();
        Drive {
            window: ConnReport::default(),
            start: now,
            end: now,
            tail: ConnReport::default(),
            window_kinds: Vec::new(),
            cold: Vec::new(),
            sweeps: Vec::new(),
        }
    }

    /// Length of the window (s).
    pub fn window_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// The timed samples of one kind, in completion order: from the
    /// window for [`Drive::window_kinds`], otherwise from the tail.
    fn samples(&self, kind: Kind) -> Vec<&load::Sample> {
        let mut out: Vec<&load::Sample> = if self.window_kinds.contains(&kind) {
            self.window
                .samples
                .iter()
                .filter(|s| s.kind == kind && s.at >= self.start && s.at < self.end)
                .collect()
        } else {
            self.tail
                .samples
                .iter()
                .filter(|s| s.kind == kind)
                .collect()
        };
        out.sort_by_key(|s| s.at);
        out
    }

    /// The `q` percentile of one kind's round trips in the window (ns),
    /// over all its samples.
    pub fn window_percentile(&self, kind: Kind, q: f64) -> f64 {
        let nanos: Vec<u64> = self
            .window
            .samples
            .iter()
            .filter(|s| s.kind == kind && s.at >= self.start && s.at < self.end)
            .map(|s| s.nanos)
            .collect();
        probe::percentile(&nanos, q)
    }

    /// Round-trip times of one kind (see [`Drive::percentile`] for where
    /// they come from), optionally only the traced or untraced ones.
    pub fn nanos(&self, kind: Kind, traced: Option<bool>) -> Vec<u64> {
        self.samples(kind)
            .into_iter()
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .map(|s| s.nanos)
            .collect()
    }

    /// The `q` percentile of one kind's round trips (ns).
    ///
    /// The machine is shared, and outside CPU and disk load comes in
    /// bursts of a second or more. So the samples (in completion order;
    /// see [`Drive::window_kinds`] for where they come from) are cut
    /// into up to [`SLICES`] equal slices, each of at least [`MIN_SLICE`]
    /// samples and ten beyond the percentile, and the lower quartile of
    /// the slice percentiles is reported.
    pub fn percentile(&self, kind: Kind, q: f64) -> f64 {
        let nanos = self.nanos(kind, None);
        let need = ((10.0 / (1.0 - q)).ceil() as usize).max(MIN_SLICE);
        let slices = (nanos.len() / need).clamp(1, SLICES);
        let size = nanos.len().div_ceil(slices).max(1);
        lower_quartile(
            nanos
                .chunks(size)
                .map(|s| probe::percentile(s, q))
                .collect(),
        )
    }

    /// Operations completed per second in the window: the upper quartile
    /// over [`SLICES`] equal time slices (the same burst argument as
    /// [`Drive::percentile`]).
    pub fn ops_per_s(&self) -> f64 {
        let mut counts = vec![0.0; SLICES];
        let span = self.window_s().max(1e-9);
        for s in &self.window.samples {
            if s.kind != Kind::Check && s.at >= self.start && s.at < self.end {
                let t = (s.at - self.start).as_secs_f64() / span;
                counts[((t * SLICES as f64) as usize).min(SLICES - 1)] -= 1.0;
            }
        }
        -lower_quartile(counts) * SLICES as f64 / span
    }
}

/// Drives `plan`'s window against the server at `addr` for
/// `budget.seconds`: connection A runs the workload's stream; in
/// `design_sessions` connection B runs design sessions beside it, and in
/// `cold_generate` a paced warm neighbour.
pub fn drive_window(
    drive: &mut Drive,
    plan: &Plan,
    addr: SocketAddr,
    refs: &check::WarmRef,
    budget: Budget,
    trace: bool,
) {
    let (start, deadline) = load::window(budget.seconds);
    let (seed, pool) = (plan.seed, plan.pool.as_slice());
    (drive.start, drive.end) = (start, deadline);
    drive.window_kinds = match plan.workload {
        Workload::DesignSessions => vec![Kind::Warm, Kind::Read],
        Workload::ColdGenerate => vec![Kind::Cold],
        Workload::ExploreSweeps => vec![Kind::Sweep],
    };
    let design = |mut gen| load::run_design(addr, &mut gen, pool, refs, deadline, u64::MAX, trace);
    let sessions = |conn| gen::SessionGen::new(seed, conn, pool.len());
    std::thread::scope(|scope| {
        let b = (plan.workload != Workload::ExploreSweeps).then(|| {
            scope.spawn(|| {
                // Connect after A, so the daemon's round-robin hands its
                // workers out in the same order in every run.
                load::wait_until(start + NEIGHBOUR_DELAY);
                match plan.workload {
                    // Paced and without the large sessions, so that it
                    // probes the cold stream's stalls without competing
                    // with it for the cores.
                    Workload::ColdGenerate => {
                        design(sessions(1).without_large().paced(NEIGHBOUR_THINK))
                    }
                    _ => design(sessions(1)),
                }
            })
        });
        load::wait_until(start);
        match plan.workload {
            Workload::DesignSessions => drive.window = design(sessions(0)),
            Workload::ColdGenerate => {
                let (rep, cold) = load::run_cold(addr, seed, 0, pool, deadline, trace);
                drive.window = rep;
                drive.cold.extend(cold);
            }
            Workload::ExploreSweeps => {
                let (rep, sweeps) = load::run_sweeps(addr, plan.sweeps(), deadline, trace);
                drive.window = rep;
                drive.sweeps.extend(sweeps);
            }
        }
        if let Some(b) = b {
            drive
                .window
                .merge(b.join().expect("neighbour connection panicked"));
        }
    });
}

/// The tail's seeded streams, continued from one half to the next.
#[derive(Debug, Clone)]
pub struct Tail {
    sessions: gen::SessionGen,
    cold: gen::ColdGen,
    sweeps: SweepGen,
}

impl Tail {
    /// The tail streams of `plan`.
    pub fn new(plan: &Plan) -> Tail {
        let (seed, stream) = plan.cold_seed();
        Tail {
            sessions: gen::SessionGen::new(TAIL_SEED, 2, plan.pool.len()),
            cold: gen::ColdGen::new(seed, stream, &plan.pool),
            sweeps: plan.sweeps(),
        }
    }
}

/// The tail runs in halves, one before the window and one after it, so
/// that its samples span the whole run: a tail run in one piece sat in
/// one phase of the shared host, and its medians spread 0.2–0.3 over ten
/// runs while the window's stayed near 0.1.
const TAIL_HALVES: usize = 2;

/// One half of the tail: on one connection at a time, fixed seeded
/// counts of the operation kinds outside [`Drive::window_kinds`]
/// (design-session operations, cold requests, sweeps), each between
/// untimed requests of every pool key that put the pool back into the
/// result cache. The counts replay the same sequences in every run.
pub fn drive_tail(
    drive: &mut Drive,
    tail: &mut Tail,
    plan: &Plan,
    addr: SocketAddr,
    refs: &check::WarmRef,
    budget: Budget,
    trace: bool,
) {
    let forever = Instant::now() + Duration::from_secs(3600);
    let pool = plan.pool.as_slice();
    drive.tail.merge(load::rewarm(addr, pool, trace));
    if plan.workload != Workload::DesignSessions {
        let ops = budget.tail_ops / TAIL_HALVES as u64;
        let rep = load::run_design(addr, &mut tail.sessions, pool, refs, forever, ops, trace);
        drive.tail.merge(rep);
    }
    if plan.workload != Workload::ColdGenerate {
        let n = budget.tail_cold / TAIL_HALVES;
        let (rep, cold) = load::run_cold_n(addr, &mut tail.cold, n, forever, trace);
        drive.tail.merge(rep);
        drive.cold.extend(cold);
    }
    if plan.workload != Workload::ExploreSweeps {
        let n = budget.tail_sweeps / TAIL_HALVES;
        let (rep, sweeps) = load::run_sweeps_n(addr, &mut tail.sweeps, n, trace);
        drive.tail.merge(rep);
        drive.sweeps.extend(sweeps);
    }
    drive.tail.merge(load::rewarm(addr, pool, trace));
}

/// The first half of the tail, the window, then the second half.
pub fn drive(
    plan: &Plan,
    addr: SocketAddr,
    refs: &check::WarmRef,
    budget: Budget,
    trace: bool,
) -> Drive {
    let mut d = Drive::new();
    let mut tail = Tail::new(plan);
    drive_tail(&mut d, &mut tail, plan, addr, refs, budget, trace);
    drive_window(&mut d, plan, addr, refs, budget, trace);
    drive_tail(&mut d, &mut tail, plan, addr, refs, budget, trace);
    d
}

/// Checks the sampled cold instances and every sweep against in-process
/// references.
pub fn verify(drive: &Drive) -> check::Checked {
    let mut checked = check::check_cold(&drive.cold);
    checked.merge(check::check_sweeps(&drive.sweeps));
    checked
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Collects metrics by name.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The metrics as a JSON object body.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Median of a sample of seconds.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Latencies reported on standard error only: the p99 of warm requests
/// and reads follows the fsync and scheduling tails of the host, whose
/// run-to-run spread (0.3–1.6 of the median over ten runs on a shared
/// 2-vCPU VM) is too wide for a regression bound, and so do the
/// `cold_generate` neighbour's stalls behind cold work.
pub fn ungated_metrics(drive: &Drive) -> Metrics {
    let mut m = Metrics::default();
    if !drive.window_kinds.contains(&Kind::Warm) {
        let p = |kind, q| drive.window_percentile(kind, q) / 1e3;
        if p(Kind::Warm, 0.5) > 0.0 {
            m.put("neighbour_warm_p50_us", p(Kind::Warm, 0.50), "us");
            m.put("neighbour_warm_p99_us", p(Kind::Warm, 0.99), "us");
            m.put("neighbour_read_p50_us", p(Kind::Read, 0.50), "us");
            m.put("neighbour_read_p99_us", p(Kind::Read, 0.99), "us");
        }
    }
    m.put(
        "warm_request_p99_us",
        drive.percentile(Kind::Warm, 0.99) / 1e3,
        "us",
    );
    m.put(
        "read_p99_us",
        drive.percentile(Kind::Read, 0.99) / 1e3,
        "us",
    );
    m
}

/// The end-to-end metrics of a drive.
pub fn e2e_metrics(drive: &Drive, setups: &[f64], rss_mb: f64) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(setups), "s");
    m.put("ops_per_s", drive.ops_per_s(), "ops/s");
    let p = |kind, q| drive.percentile(kind, q);
    m.put("warm_request_p50_us", p(Kind::Warm, 0.50) / 1e3, "us");
    m.put("read_p50_us", p(Kind::Read, 0.50) / 1e3, "us");
    m.put("cold_request_p50_ms", p(Kind::Cold, 0.50) / 1e6, "ms");
    m.put("cold_request_p99_ms", p(Kind::Cold, 0.99) / 1e6, "ms");
    m.put("sweep_p50_ms", p(Kind::Sweep, 0.50) / 1e6, "ms");
    m.put("sweep_p90_ms", p(Kind::Sweep, 0.90) / 1e6, "ms");
    m.put("server_peak_rss_mb", rss_mb, "MB");
    m
}

/// The seeded inputs the traced run replays through each layer.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// CQL lines of the workload's streams (`cql.parse`).
    pub lines: Vec<(String, Vec<CqlArg>)>,
    /// Generation keys for the pipeline stages.
    pub keys: Vec<GenKey>,
    /// Sweeps replayed in process, in wire order.
    pub sweeps: Vec<Sweep>,
}

/// Generation keys per traced run.
const TRACE_KEYS: usize = 40;
/// Sweeps replayed per traced run.
const TRACE_SWEEPS: usize = 80;

/// The layer inputs of `plan`: the same generators as the wire run.
pub fn layer_inputs(plan: &Plan, drive: &Drive) -> LayerInputs {
    let mut inputs = LayerInputs::default();
    let mut sessions = gen::SessionGen::new(plan.seed, 1, plan.pool.len());
    while inputs.lines.len() < 2000 {
        let s = sessions.next_session();
        for (i, &p) in s.requests.iter().enumerate() {
            inputs.lines.push(plan.pool[p].request(false));
            for read in &s.reads[i] {
                inputs.lines.push(match *read {
                    gen::Read::Instance { instance, view } => gen::view_query(
                        &plan.pool[s.requests[instance]].instance_name(instance + 1),
                        view,
                    ),
                    gen::Read::Query(q) => (gen::QUERIES[q].to_string(), gen::query_args(q)),
                });
            }
        }
    }
    let (seed, stream) = plan.cold_seed();
    let mut cold = gen::ColdGen::new(seed, stream, &plan.pool);
    let cold_reqs: Vec<gen::ColdRequest> = (0..500).map(|_| cold.next_request()).collect();
    inputs
        .lines
        .extend(cold_reqs.iter().map(|r| r.key.request(r.layout)));
    inputs.sweeps = drive
        .sweeps
        .iter()
        .take(TRACE_SWEEPS)
        .map(|(s, _)| s.clone())
        .collect();
    inputs
        .lines
        .extend(inputs.sweeps.iter().map(Sweep::command));
    inputs.keys = match plan.workload {
        Workload::DesignSessions => plan.pool.iter().take(TRACE_KEYS).cloned().collect(),
        Workload::ColdGenerate => cold_reqs
            .into_iter()
            .take(TRACE_KEYS)
            .map(|r| r.key)
            .collect(),
        Workload::ExploreSweeps => {
            let mut keys: Vec<GenKey> = Vec::new();
            for sweep in &inputs.sweeps {
                for (imp, attrs, w, fastest) in sweep.points() {
                    let sizing = if fastest {
                        gen::Sizing::Fastest
                    } else {
                        gen::Sizing::Cheapest
                    };
                    let mut key = GenKey::new(imp, w, sizing);
                    key.attrs.extend(attrs);
                    // Points within the request width range, whose
                    // sizing costs the streams are calibrated for.
                    let in_range = w <= gen::builtin(imp).max_w;
                    if in_range && keys.len() < TRACE_KEYS && !keys.contains(&key) {
                        keys.push(key);
                    }
                }
            }
            keys
        }
    };
    inputs
}
