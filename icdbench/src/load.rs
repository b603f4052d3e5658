//! The closed-loop load generator: each connection sends its next
//! command only after the previous reply arrived, times it, and checks
//! the reply (outside the timed interval).

use crate::check::{out_str, same_outputs, WarmRef};
use crate::gen::{
    query_args, view_query, ColdGen, ColdRequest, GenKey, Read, SessionGen, Sweep, SweepGen,
    QUERIES,
};
use crate::server::client_policy;
use crate::trace::Tracer;
use icdb::cql::CqlArg;
use icdb::net::IcdbClient;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// What an operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Connect plus `hello`.
    Hello,
    /// A `request_component` answered from the result cache.
    Warm,
    /// `instance_query`, `component_query` or `function_query`.
    Read,
    /// A `request_component` whose key is in no cache layer, or only in
    /// the flat/netlist layers.
    Cold,
    /// One `explore`.
    Sweep,
    /// An untimed query outside the measurements: a verification, or a
    /// warm-up request.
    Check,
}

impl Kind {
    /// The name of the span a traced run records around this kind.
    pub fn span(self) -> &'static str {
        match self {
            Kind::Hello => "wire.hello",
            Kind::Warm => "wire.warm",
            Kind::Read => "wire.read",
            Kind::Cold => "wire.cold",
            Kind::Sweep => "wire.sweep",
            Kind::Check => "wire.check",
        }
    }
}

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operation kind.
    pub kind: Kind,
    /// Round-trip time.
    pub nanos: u64,
    /// Whether a span was recorded around it (traced runs only).
    pub traced: bool,
    /// When the reply arrived.
    pub at: Instant,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnReport {
    /// Completed operations.
    pub samples: Vec<Sample>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or got a wrong reply.
    pub failed: u64,
    /// The first few failures, for diagnosis.
    pub errors: Vec<String>,
    /// Spans (traced runs only).
    pub tracer: Option<Tracer>,
}

impl ConnReport {
    fn new(trace: bool) -> ConnReport {
        ConnReport {
            tracer: trace.then(Tracer::default),
            ..ConnReport::default()
        }
    }

    /// Counts a failure.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Merges another connection's report into this one.
    pub fn merge(&mut self, other: ConnReport) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        match (&mut self.tracer, other.tracer) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }

    /// Runs one timed CQL call; in traced runs every other call gets a
    /// `wire.<kind>` span, so traced and untraced round trips of one
    /// window give the tracing overhead. Returns the filled arguments, or
    /// `None` after counting the error.
    pub fn call(
        &mut self,
        client: &mut IcdbClient,
        kind: Kind,
        command: &str,
        args: &[CqlArg],
    ) -> Option<Vec<CqlArg>> {
        let mut args = args.to_vec();
        let traced = self.tracer.is_some() && self.attempted.is_multiple_of(2);
        self.attempted += 1;
        let started = Instant::now();
        if traced {
            self.tracer.as_mut().expect("traced").enter(kind.span());
        }
        let result = client.execute(command, &mut args);
        if traced {
            self.tracer.as_mut().expect("traced").exit();
        }
        let nanos = started.elapsed().as_nanos() as u64;
        match result {
            Ok(()) => {
                self.samples.push(Sample {
                    kind,
                    nanos,
                    traced,
                    at: Instant::now(),
                });
                Some(args)
            }
            Err(e) => {
                self.fail(format!("{kind:?} `{command}`: {e}"));
                None
            }
        }
    }

    /// Connects and says `hello`, timed as one operation.
    pub fn connect(&mut self, addr: SocketAddr) -> Option<IcdbClient> {
        self.attempted += 1;
        let started = Instant::now();
        let traced = self.tracer.is_some();
        if let Some(t) = self.tracer.as_mut() {
            t.enter(Kind::Hello.span());
        }
        let result = IcdbClient::connect_with(addr, client_policy()).and_then(|mut c| {
            c.hello()?;
            Ok(c)
        });
        if let Some(t) = self.tracer.as_mut() {
            t.exit();
        }
        let nanos = started.elapsed().as_nanos() as u64;
        match result {
            Ok(client) => {
                self.samples.push(Sample {
                    kind: Kind::Hello,
                    nanos,
                    traced,
                    at: Instant::now(),
                });
                Some(client)
            }
            Err(e) => {
                self.fail(format!("connect: {e}"));
                None
            }
        }
    }

    /// Checks a returned instance name against the predicted one.
    fn expect_name(&mut self, out: &[CqlArg], want: &str) -> bool {
        match out.iter().find(|a| matches!(a, CqlArg::OutStr(_))) {
            Some(CqlArg::OutStr(Some(name))) if name == want => true,
            other => {
                self.fail(format!("expected instance `{want}`, got {other:?}"));
                false
            }
        }
    }
}

/// Runs the design sessions of `gen` back to back on one connection until
/// `deadline` or until `max_ops` operations were attempted: `hello`, k
/// warm requests each followed by its reads, then `quit`. Every reply is
/// compared with the in-process reference.
#[allow(clippy::too_many_arguments)]
pub fn run_design(
    addr: SocketAddr,
    gen: &mut SessionGen,
    pool: &[GenKey],
    refs: &WarmRef,
    deadline: Instant,
    max_ops: u64,
    trace: bool,
) -> ConnReport {
    let mut rep = ConnReport::new(trace);
    let think = gen.think();
    let pause = || {
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    };
    let more = |rep: &ConnReport| Instant::now() < deadline && rep.attempted < max_ops;
    while more(&rep) {
        let session = gen.next_session();
        let Some(mut client) = rep.connect(addr) else {
            break;
        };
        'session: for (i, &p) in session.requests.iter().enumerate() {
            if !more(&rep) {
                break;
            }
            let (command, args) = pool[p].request(false);
            let Some(out) = rep.call(&mut client, Kind::Warm, &command, &args) else {
                break 'session;
            };
            pause();
            if !rep.expect_name(&out, &pool[p].instance_name(i + 1)) {
                break 'session;
            }
            for read in &session.reads[i] {
                let (command, args, want) = match *read {
                    Read::Instance { instance, view } => {
                        let key = session.requests[instance];
                        let (c, a) = view_query(&pool[key].instance_name(instance + 1), view);
                        (c, a, &refs.views[key][view])
                    }
                    Read::Query(q) => (QUERIES[q].to_string(), query_args(q), &refs.queries[q]),
                };
                let Some(out) = rep.call(&mut client, Kind::Read, &command, &args) else {
                    continue;
                };
                pause();
                if !same_outputs(&out, want) {
                    rep.fail(format!("wrong reply to `{command}`"));
                }
            }
        }
        let _ = client.quit();
    }
    rep
}

/// Requests every pool key once on one connection, untimed: puts the
/// pool back into the result cache after the tail's cold work pushed it
/// out.
pub fn rewarm(addr: SocketAddr, pool: &[GenKey], trace: bool) -> ConnReport {
    let mut rep = ConnReport::new(trace);
    let Some(mut client) = rep.connect(addr) else {
        return rep;
    };
    for (i, key) in pool.iter().enumerate() {
        let (command, args) = key.request(false);
        let Some(out) = rep.call(&mut client, Kind::Check, &command, &args) else {
            break;
        };
        if !rep.expect_name(&out, &key.instance_name(i + 1)) {
            break;
        }
    }
    let _ = client.quit();
    rep
}

/// One answered cold request.
#[derive(Debug, Clone)]
pub struct ColdRecord {
    /// The request.
    pub req: ColdRequest,
    /// The instance it created.
    pub name: String,
    /// The CIF layout returned with it, when asked for.
    pub cif: Option<String>,
}

/// The instance views compared for a checked cold instance.
pub const COLD_CHECK: &str = "command:instance_query; generated_component:%s; delay:?s; \
                              shape_function:?s; power:?s; VHDL_net_list:?s; VHDL_head:?s";

/// The arguments of [`COLD_CHECK`] for instance `name`.
pub fn cold_check_args(name: &str) -> Vec<CqlArg> {
    let mut args = vec![CqlArg::InStr(name.to_string())];
    args.extend(std::iter::repeat_n(CqlArg::OutStr(None), 5));
    args
}

/// Sends the seeded cold stream `stream` on one connection until
/// `deadline`, then (untimed) reads back the views of the sampled
/// instances. Returns the report, the sampled records and their view
/// replies.
pub fn run_cold(
    addr: SocketAddr,
    seed: u64,
    stream: u64,
    pool: &[GenKey],
    deadline: Instant,
    trace: bool,
) -> (ConnReport, Vec<(ColdRecord, Vec<CqlArg>)>) {
    let mut gen = ColdGen::new(seed, stream, pool);
    run_cold_n(addr, &mut gen, usize::MAX, deadline, trace)
}

/// Sends the next `n` requests of `gen` on one connection, stopping
/// early at `deadline`; otherwise as [`run_cold`].
pub fn run_cold_n(
    addr: SocketAddr,
    gen: &mut ColdGen,
    n: usize,
    deadline: Instant,
    trace: bool,
) -> (ConnReport, Vec<(ColdRecord, Vec<CqlArg>)>) {
    let mut rep = ConnReport::new(trace);
    let mut checked = Vec::new();
    let mut replies = Vec::new();
    let Some(mut client) = rep.connect(addr) else {
        return (rep, replies);
    };
    let mut installed = 0;
    for _ in 0..n {
        if Instant::now() >= deadline {
            break;
        }
        let req = gen.next_request();
        let (command, args) = req.key.request(req.layout);
        let Some(out) = rep.call(&mut client, Kind::Cold, &command, &args) else {
            continue;
        };
        installed += 1;
        let name = req.key.instance_name(installed);
        if !rep.expect_name(&out, &name) {
            break;
        }
        if req.check {
            let cif = out_str(&out, 1).map(str::to_string);
            checked.push(ColdRecord { req, name, cif });
        }
    }
    for record in checked {
        let args = cold_check_args(&record.name);
        if let Some(out) = rep.call(&mut client, Kind::Check, COLD_CHECK, &args) {
            replies.push((record, out));
        }
    }
    let _ = client.quit();
    (rep, replies)
}

/// Sends seeded `explore` commands on one connection until `deadline`.
pub fn run_sweeps(
    addr: SocketAddr,
    mut gen: SweepGen,
    deadline: Instant,
    trace: bool,
) -> (ConnReport, Vec<(Sweep, Vec<CqlArg>)>) {
    run_sweeps_until(addr, &mut gen, usize::MAX, deadline, trace)
}

/// Sends exactly `n` seeded `explore` commands on one connection.
pub fn run_sweeps_n(
    addr: SocketAddr,
    gen: &mut SweepGen,
    n: usize,
    trace: bool,
) -> (ConnReport, Vec<(Sweep, Vec<CqlArg>)>) {
    let forever = Instant::now() + Duration::from_secs(3600);
    run_sweeps_until(addr, gen, n, forever, trace)
}

fn run_sweeps_until(
    addr: SocketAddr,
    gen: &mut SweepGen,
    n: usize,
    deadline: Instant,
    trace: bool,
) -> (ConnReport, Vec<(Sweep, Vec<CqlArg>)>) {
    let mut rep = ConnReport::new(trace);
    let mut done = Vec::new();
    let Some(mut client) = rep.connect(addr) else {
        return (rep, done);
    };
    for _ in 0..n {
        if Instant::now() >= deadline {
            break;
        }
        let sweep = gen.next_sweep();
        let (command, args) = sweep.command();
        if let Some(out) = rep.call(&mut client, Kind::Sweep, &command, &args) {
            done.push((sweep, out));
        }
    }
    let _ = client.quit();
    (rep, done)
}

/// Reads one cache layer's `(hits, misses, evictions)` over the wire.
pub fn cache_layer(client: &mut IcdbClient, layer: &str) -> Option<(i64, i64, i64)> {
    let mut args = vec![
        CqlArg::OutInt(None),
        CqlArg::OutInt(None),
        CqlArg::OutInt(None),
    ];
    client
        .execute(
            &format!("command:cache_query; layer:{layer}; hits:?d; misses:?d; evictions:?d"),
            &mut args,
        )
        .ok()?;
    match args.as_slice() {
        [CqlArg::OutInt(Some(h)), CqlArg::OutInt(Some(m)), CqlArg::OutInt(Some(e))] => {
            Some((*h, *m, *e))
        }
        _ => None,
    }
}

/// Sleeps until `at` (used to line connections up on one start time).
pub fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// A window of `seconds` starting shortly after now.
pub fn window(seconds: f64) -> (Instant, Instant) {
    let start = Instant::now() + Duration::from_millis(20);
    (start, start + Duration::from_secs_f64(seconds))
}
