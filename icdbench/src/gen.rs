//! Seeded, deterministic input generation.
//!
//! Everything the benchmark sends to `icdbd` — and everything it writes
//! into the pre-built data directory — is derived here from the workload
//! seed. The same seed gives the same CQL stream and the same history,
//! byte for byte; the server only ever sees the generated lines.

pub use crate::sweep::{Sweep, SweepGen};
use icdb::cql::CqlArg;
use icdb::{ComponentRequest, GenericComponentLibrary};
use std::collections::BTreeSet;
use std::sync::OnceLock;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm design sessions: wire, CQL, locks, result-cache hits, WAL
    /// group commit and session lifecycle.
    DesignSessions,
    /// A stream of distinct cold requests beside a warm neighbour.
    ColdGenerate,
    /// Design-space exploration sweeps over a partly known corpus.
    ExploreSweeps,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::DesignSessions,
        Workload::ColdGenerate,
        Workload::ExploreSweeps,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignSessions => "design_sessions",
            Workload::ColdGenerate => "cold_generate",
            Workload::ExploreSweeps => "explore_sweeps",
        }
    }
}

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as usize) as i64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One builtin implementation and the parameter ranges the workloads
/// draw from. Cost bounds come from cold generation times on a 2-core
/// x86-64 box: `max_w` keeps `cheapest` under ~15 ms in requests,
/// `sweep_max` keeps it under ~20 ms in sweeps, and `fastest_max` keeps
/// `fastest` sizing under ~30 ms.
#[derive(Debug)]
pub struct Builtin {
    /// Implementation name.
    pub imp: &'static str,
    /// Component type (the `explore component:` selector).
    pub ty: &'static str,
    /// The width parameter (`size`, or `n` for decoders).
    pub width_param: &'static str,
    /// Smallest width that expands.
    pub min_w: i64,
    /// Largest width requested.
    pub max_w: i64,
    /// Largest width swept.
    pub sweep_max: i64,
    /// Largest width requested with `fastest` sizing (0: never).
    pub fastest_max: i64,
    /// Clock width at cheapest sizing, ≈ `a + b·width` ns (sequential
    /// implementations only).
    pub clock: Option<(f64, f64)>,
    /// The implementation's IIF source (sent inline by `IIF:` requests).
    pub iif: &'static str,
}

macro_rules! iif {
    ($file:literal) => {
        include_str!(concat!("../../crates/core/iif/", $file))
    };
}

/// The 22 builtins of the component library:
/// `(implementation, type, width parameter, min, max, sweep max, fastest
/// max, clock estimate, IIF)`.
#[rustfmt::skip]
pub const BUILTINS: [Builtin; 22] = [
    b("COUNTER", "Counter", "size", 2, 16, 96, 4, Some((5.6, 2.1)), iif!("counter.iif")),
    b("RIPPLE_COUNTER", "Counter", "size", 2, 16, 256, 6, Some((8.0, 0.0)), iif!("ripple_counter.iif")),
    b("JOHNSON_COUNTER", "Counter", "size", 2, 16, 256, 16, Some((7.9, 0.0)), iif!("johnson_counter.iif")),
    b("ADDER", "Adder", "size", 2, 16, 80, 3, None, iif!("adder.iif")),
    b("ADDSUB", "Adder_Subtractor", "size", 2, 16, 64, 2, None, iif!("addsub.iif")),
    b("REGISTER", "Register", "size", 2, 16, 256, 16, Some((8.9, 0.0)), iif!("register.iif")),
    b("INCREMENTER", "Adder", "size", 2, 16, 256, 8, None, iif!("incrementer.iif")),
    b("COMPARATOR", "Comparator", "size", 2, 16, 96, 2, None, iif!("comparator.iif")),
    b("SHL0", "Shifter", "size", 2, 16, 256, 16, None, iif!("shifter.iif")),
    b("MUX", "Mux_scl", "size", 2, 16, 256, 16, None, iif!("mux.iif")),
    b("DECODER", "Decode", "n", 2, 5, 0, 3, None, iif!("decoder.iif")),
    b("ENCODER", "Encode", "n", 2, 5, 0, 4, None, iif!("encoder.iif")),
    b("LOGIC_UNIT", "Logic_unit", "size", 2, 16, 128, 12, None, iif!("logic_unit.iif")),
    b("ALU", "ALU", "size", 2, 16, 20, 0, None, iif!("alu.iif")),
    b("SHIFT_REGISTER", "Register", "size", 2, 16, 256, 16, Some((8.9, 0.0)), iif!("shift_register.iif")),
    b("TRISTATE_DRIVER", "Tri_state", "size", 2, 16, 256, 16, None, iif!("tristate_driver.iif")),
    b("PARITY", "Logic_unit", "size", 2, 16, 24, 8, None, iif!("parity.iif")),
    b("AND_GATE", "Logic_unit", "size", 2, 16, 256, 16, None, iif!("and_gate.iif")),
    b("OR_GATE", "Logic_unit", "size", 2, 16, 256, 16, None, iif!("or_gate.iif")),
    b("CSEL_ADDER", "Adder", "size", 2, 16, 48, 0, None, iif!("csel_adder.iif")),
    b("BARREL_ROTATOR", "Barrel_shifter", "size", 4, 16, 64, 16, None, iif!("barrel_rotator.iif")),
    b("REGISTER_FILE", "Register_file", "size", 2, 16, 48, 6, Some((8.1, 0.0)), iif!("register_file.iif")),
];

#[allow(clippy::too_many_arguments)]
const fn b(
    imp: &'static str,
    ty: &'static str,
    width_param: &'static str,
    min_w: i64,
    max_w: i64,
    sweep_max: i64,
    fastest_max: i64,
    clock: Option<(f64, f64)>,
    iif: &'static str,
) -> Builtin {
    Builtin {
        imp,
        ty,
        width_param,
        min_w,
        max_w,
        sweep_max,
        fastest_max,
        clock,
        iif,
    }
}

/// Looks a builtin up by implementation name.
pub fn builtin(imp: &str) -> &'static Builtin {
    BUILTINS
        .iter()
        .find(|b| b.imp == imp)
        .expect("every generated key names a builtin")
}

/// How a request sizes its transistors.
#[derive(Debug, Clone, PartialEq)]
pub enum Sizing {
    /// `strategy:cheapest`.
    Cheapest,
    /// A `clock_width:` constraint in ns (two decimals).
    Clock(f64),
    /// `strategy:fastest`.
    Fastest,
}

impl Sizing {
    /// The span a traced run records around this sizing.
    pub fn span(&self) -> &'static str {
        match self {
            Sizing::Cheapest => "sizing.size.cheapest",
            Sizing::Clock(_) => "sizing.size.constraints",
            Sizing::Fastest => "sizing.size.fastest",
        }
    }
}

/// One generation request: an implementation, its non-default
/// attributes, a sizing, and whether the IIF travels inline.
#[derive(Debug, Clone, PartialEq)]
pub struct GenKey {
    /// Implementation name.
    pub imp: &'static str,
    /// Attribute values that override the defaults, width first.
    pub attrs: Vec<(&'static str, i64)>,
    /// Sizing variant.
    pub sizing: Sizing,
    /// Send the implementation's IIF source instead of its name.
    pub inline: bool,
}

impl GenKey {
    /// A library key with default attributes apart from the width.
    pub fn new(imp: &'static str, width: i64, sizing: Sizing) -> GenKey {
        GenKey {
            imp,
            attrs: vec![(builtin(imp).width_param, width)],
            sizing,
            inline: false,
        }
    }

    /// The width attribute.
    pub fn width(&self) -> i64 {
        self.attrs[0].1
    }

    /// Every attribute of the request. Inline IIF has no library
    /// defaults, so it lists the implementation's full parameter set.
    fn all_attrs(&self) -> Vec<(String, i64)> {
        let mut out: Vec<(String, i64)> = if self.inline {
            static LIBRARY: OnceLock<GenericComponentLibrary> = OnceLock::new();
            LIBRARY
                .get_or_init(GenericComponentLibrary::standard)
                .implementation(self.imp)
                .expect("every generated key names a builtin")
                .params
                .iter()
                .map(|p| (p.name.clone(), p.default))
                .collect()
        } else {
            Vec::new()
        };
        for (k, v) in &self.attrs {
            match out.iter_mut().find(|(n, _)| n == k) {
                Some(slot) => slot.1 = *v,
                None => out.push((k.to_string(), *v)),
            }
        }
        out
    }

    /// The `request_component` CQL line and its arguments; with
    /// `layout` the reply also carries the instance's CIF layout.
    pub fn request(&self, layout: bool) -> (String, Vec<CqlArg>) {
        let attrs: Vec<String> = self
            .all_attrs()
            .iter()
            .map(|(k, v)| format!("{k}:{v}"))
            .collect();
        let mut args = Vec::new();
        let mut line = String::from("command:request_component; ");
        if self.inline {
            line.push_str("IIF:%s; ");
            args.push(CqlArg::InStr(builtin(self.imp).iif.to_string()));
        } else {
            line.push_str(&format!("implementation:{}; ", self.imp));
        }
        line.push_str(&format!("attribute:({}); ", attrs.join(",")));
        match &self.sizing {
            Sizing::Cheapest => line.push_str("strategy:cheapest; "),
            Sizing::Fastest => line.push_str("strategy:fastest; "),
            Sizing::Clock(cw) => line.push_str(&format!("clock_width:{cw:.2}; ")),
        }
        line.push_str("generated_component:?s");
        args.push(CqlArg::OutStr(None));
        if layout {
            line.push_str("; CIF_layout:?s");
            args.push(CqlArg::OutStr(None));
        }
        (line, args)
    }

    /// The same request for the embedded API.
    pub fn component_request(&self) -> ComponentRequest {
        let mut req = if self.inline {
            ComponentRequest::from_iif(builtin(self.imp).iif)
        } else {
            ComponentRequest::by_implementation(self.imp)
        };
        for (k, v) in self.all_attrs() {
            req = req.attribute(k, v.to_string());
        }
        match &self.sizing {
            Sizing::Cheapest => req.strategy("cheapest"),
            Sizing::Fastest => req.strategy("fastest"),
            Sizing::Clock(cw) => req.clock_width((cw * 100.0).round() / 100.0),
        }
    }

    /// The auto-generated instance name of the `n`-th (1-based)
    /// instance of a session namespace.
    pub fn instance_name(&self, n: usize) -> String {
        let stem = if self.inline {
            "iif".to_string()
        } else {
            self.imp.to_ascii_lowercase()
        };
        format!("{stem}${n}")
    }
}

/// The estimated clock width of an implementation at cheapest sizing
/// (ns); combinational parts get a width-derived value that any sizing
/// meets.
pub fn natural_clock(imp: &str, width: i64) -> f64 {
    match builtin(imp).clock {
        Some((a, b)) => a + b * width as f64,
        None => 10.0 + width as f64,
    }
}

/// A clock-width constraint `lo..hi` times [`natural_clock`], rounded to
/// 0.01 ns.
fn clock_for(rng: &mut Rng, imp: &str, width: i64, lo: f64, hi: f64) -> f64 {
    let cw = natural_clock(imp, width) * (lo + (hi - lo) * rng.unit());
    (cw * 100.0).round() / 100.0
}

/// The pre-warmed library keys of the design sessions.
pub const POOL_PAIRS: usize = 32;

/// Seed of the warm pool and its popularity ranks. They are the same for
/// every workload seed: the keys' sizes set the cost of a warm request
/// and of its reads, and a seed-drawn pool would move every latency by
/// which keys it happened to make hot. The workload seed drives
/// everything else (session sizes, request order, reads, cold and sweep
/// streams).
const POOL_SEED: u64 = 0x1cdb;

/// ~64 library keys: 32 distinct (implementation, width) pairs, each
/// under `cheapest` and a clock-width constraint. They fit the
/// 256-entry result cache.
pub fn warm_pool() -> Vec<GenKey> {
    let mut rng = Rng::derive(POOL_SEED, 1);
    let mut pairs = Vec::new();
    for bi in &BUILTINS {
        // Keep warm-up cheap: decoders and encoders stay small.
        let max_w = if bi.width_param == "n" { 4 } else { bi.max_w };
        for w in [2, 3, 4, 5, 6, 8, 10, 12, 16] {
            if w >= bi.min_w && w <= max_w {
                pairs.push((bi.imp, w));
            }
        }
    }
    rng.shuffle(&mut pairs);
    pairs.truncate(POOL_PAIRS);
    let mut keys = Vec::new();
    for (imp, w) in pairs {
        keys.push(GenKey::new(imp, w, Sizing::Cheapest));
        let cw = clock_for(&mut rng, imp, w, 1.0, 1.3);
        keys.push(GenKey::new(imp, w, Sizing::Clock(cw)));
    }
    keys
}

/// Skewed (Zipf, s = 0.9) choice over the pool in a seeded rank order.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
    order: Vec<usize>,
}

impl Zipf {
    /// A skewed chooser over `n` items.
    pub fn new(rng: &mut Rng, n: usize) -> Zipf {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / ((rank + 1) as f64).powf(0.9);
                total
            })
            .collect();
        Zipf { cumulative, order }
    }

    /// Draws one item index.
    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty pool");
        let x = rng.unit() * total;
        let rank = self.cumulative.partition_point(|c| *c <= x);
        self.order[rank.min(self.order.len() - 1)]
    }
}

/// One read of a design session.
#[derive(Debug, Clone, PartialEq)]
pub enum Read {
    /// `instance_query` of one view of the session's `instance`-th
    /// instance (0-based).
    Instance { instance: usize, view: usize },
    /// One of [`QUERIES`].
    Query(usize),
}

/// The instance views a session reads, as `instance_query` output
/// terms.
pub const VIEWS: [&str; 8] = [
    "delay:?s",
    "shape_function:?s",
    "area:?s",
    "VHDL_head:?s",
    "power:?s",
    "function:?s[]",
    "clock_width:?r",
    "VHDL_net_list:?s",
];

/// The knowledge-base queries a session reads.
pub const QUERIES: [&str; 10] = [
    "command:component_query; component:Counter; implementation:?s[]",
    "command:component_query; component:Adder; implementation:?s[]; function:?s[]",
    "command:component_query; component:Register; implementation:?s[]",
    "command:component_query; component:Logic_unit; implementation:?s[]",
    "command:component_query; function:(INC); implementation:?s[]",
    "command:function_query; function:(ADD); implementation:?s[]",
    "command:function_query; function:(ADD,SUB); implementation:?s[]; component:?s[]",
    "command:function_query; function:(LOAD); implementation:?s[]",
    "command:function_query; function:(AND); implementation:?s[]; component:?s[]",
    "command:function_query; function:(INC); component:?s[]",
];

/// The `instance_query` line and arguments for one view.
pub fn view_query(name: &str, view: usize) -> (String, Vec<CqlArg>) {
    let out = match VIEWS[view].rsplit_once('?').map(|(_, t)| t) {
        Some("s[]") => CqlArg::OutStrList(None),
        Some("r") => CqlArg::OutReal(None),
        _ => CqlArg::OutStr(None),
    };
    (
        format!(
            "command:instance_query; generated_component:%s; {}",
            VIEWS[view]
        ),
        vec![CqlArg::InStr(name.to_string()), out],
    )
}

/// The argument list of a knowledge query.
pub fn query_args(query: usize) -> Vec<CqlArg> {
    QUERIES[query]
        .split(';')
        .filter_map(|t| t.split_once(":?").map(|(_, ty)| ty.trim()))
        .map(|ty| match ty {
            "s[]" => CqlArg::OutStrList(None),
            _ => CqlArg::OutStr(None),
        })
        .collect()
}

/// One design session: `k` warm requests (pool indices), each followed
/// by its reads.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSession {
    /// Pool index of every request, in order.
    pub requests: Vec<usize>,
    /// The reads issued after each request.
    pub reads: Vec<Vec<Read>>,
}

/// An endless, seeded stream of design sessions over the warm pool.
#[derive(Debug, Clone)]
pub struct SessionGen {
    rng: Rng,
    zipf: Zipf,
    /// Sessions generated so far.
    count: usize,
    /// Position of the large session in each run of 25.
    large_at: usize,
    /// Pause after each reply.
    think: Duration,
}

impl SessionGen {
    /// The session stream of connection `conn`.
    pub fn new(seed: u64, conn: u64, pool_len: usize) -> SessionGen {
        let mut rng = Rng::derive(seed, 100 + conn);
        let zipf = Zipf::new(&mut Rng::derive(POOL_SEED, 2), pool_len);
        rng.next_u64();
        SessionGen {
            rng,
            zipf,
            count: 0,
            large_at: 6 + 12 * (conn as usize % 2),
            think: Duration::ZERO,
        }
    }

    /// The same stream without the large sessions.
    pub fn without_large(mut self) -> SessionGen {
        self.large_at = usize::MAX;
        self
    }

    /// The same stream with a pause of `think` after each reply.
    pub fn paced(mut self, think: Duration) -> SessionGen {
        self.think = think;
        self
    }

    /// Pause after each reply.
    pub fn think(&self) -> Duration {
        self.think
    }

    /// Heavy-tailed session size: log-uniform in 16..400, and one
    /// session in 25 in the thousands. The large sessions come on a fixed
    /// schedule (staggered between connections), so every window holds
    /// the same number of their closes.
    fn session_size(&mut self) -> usize {
        self.count += 1;
        if self.count % 25 == self.large_at {
            self.rng.range(2000, 3000) as usize
        } else {
            let (lo, hi) = (16f64.ln(), 400f64.ln());
            (lo + (hi - lo) * self.rng.unit()).exp() as usize
        }
    }

    /// The next session.
    pub fn next_session(&mut self) -> DesignSession {
        let k = self.session_size();
        let mut requests = Vec::with_capacity(k);
        let mut reads = Vec::with_capacity(k);
        for i in 0..k {
            requests.push(self.zipf.draw(&mut self.rng));
            let n = 1 + self.rng.below(5);
            reads.push(
                (0..n)
                    .map(|_| {
                        if self.rng.chance(0.8) {
                            Read::Instance {
                                instance: self.rng.below(i + 1),
                                view: self.rng.below(VIEWS.len()),
                            }
                        } else {
                            Read::Query(self.rng.below(QUERIES.len()))
                        }
                    })
                    .collect(),
            );
        }
        DesignSession { requests, reads }
    }

    /// A session of exactly `k` requests, for history and probes.
    pub fn session_of(&mut self, k: usize) -> DesignSession {
        let requests = (0..k).map(|_| self.zipf.draw(&mut self.rng)).collect();
        DesignSession {
            requests,
            reads: vec![Vec::new(); k],
        }
    }
}

/// One request of the cold stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdRequest {
    /// The key (never in the warm pool).
    pub key: GenKey,
    /// Ask for the CIF layout in the same request.
    pub layout: bool,
    /// Verify this instance against in-process generation afterwards.
    pub check: bool,
}

/// An endless stream of cold requests: seeded passes over every
/// (implementation, attributes) pair outside the warm pool, each pair
/// requested under 2–3 sizing variants. One pass holds far more keys
/// than the 256-entry cache layers, so a later pass is cold again.
#[derive(Debug, Clone)]
pub struct ColdGen {
    rng: Rng,
    pairs: Vec<GenKey>,
    queue: Vec<ColdRequest>,
    next_pair: usize,
}

impl ColdGen {
    /// The cold stream `stream` of `seed`, avoiding the warm pool's
    /// pairs.
    pub fn new(seed: u64, stream: u64, pool: &[GenKey]) -> ColdGen {
        let warm: BTreeSet<(&str, Vec<(&str, i64)>)> =
            pool.iter().map(|k| (k.imp, k.attrs.clone())).collect();
        let mut pairs = Vec::new();
        for bi in &BUILTINS {
            for w in bi.min_w..=bi.max_w {
                let base = GenKey::new(bi.imp, w, Sizing::Cheapest);
                let mut variants = vec![base.clone()];
                match bi.imp {
                    "COUNTER" => {
                        variants.clear();
                        for ud in 1..=3 {
                            for en in 0..=1 {
                                for ld in 0..=1 {
                                    let mut k = base.clone();
                                    k.attrs.extend([
                                        ("up_or_down", ud),
                                        ("enable", en),
                                        ("load", ld),
                                    ]);
                                    variants.push(k);
                                }
                            }
                        }
                    }
                    "SHL0" if w > 2 => {
                        let mut k = base.clone();
                        k.attrs.push(("shift_distance", 2));
                        variants.push(k);
                    }
                    "REGISTER_FILE" => {
                        let mut k = base.clone();
                        k.attrs.push(("abits", 1));
                        variants.push(k);
                    }
                    _ => {}
                }
                pairs.extend(
                    variants
                        .into_iter()
                        .filter(|k| !warm.contains(&(k.imp, k.attrs.clone()))),
                );
            }
        }
        ColdGen {
            rng: Rng::derive(seed, 300 + stream),
            pairs,
            queue: Vec::new(),
            next_pair: usize::MAX,
        }
    }

    /// The next cold request.
    pub fn next_request(&mut self) -> ColdRequest {
        while self.queue.is_empty() {
            if self.next_pair >= self.pairs.len() {
                self.rng.shuffle(&mut self.pairs);
                self.next_pair = 0;
            }
            let pair = self.pairs[self.next_pair].clone();
            self.next_pair += 1;
            let bi = builtin(pair.imp);
            let w = pair.width();
            // Tight constraints on wide counters and register files cost
            // as much as `fastest`; keep them slack.
            let (lo, hi) = match pair.imp {
                // Control inputs lengthen the counter's clock well past
                // the estimate; keep its constraints slack.
                "COUNTER" => (1.4, 1.8),
                _ if bi.clock.is_some() && w > 8 => (1.0, 1.15),
                _ => (0.92, 1.15),
            };
            let cw = clock_for(&mut self.rng, pair.imp, w, lo, hi);
            let mut sizings = vec![Sizing::Cheapest, Sizing::Clock(cw)];
            if w <= bi.fastest_max {
                sizings.push(Sizing::Fastest);
            }
            self.rng.shuffle(&mut sizings);
            let inline = self.rng.chance(0.15);
            for sizing in sizings {
                let key = GenKey {
                    sizing,
                    inline,
                    ..pair.clone()
                };
                self.queue.push(ColdRequest {
                    key,
                    layout: self.rng.chance(0.15),
                    check: self.rng.chance(1.0 / 6.0),
                });
            }
            self.queue.reverse();
        }
        self.queue.pop().expect("refilled above")
    }
}

/// The pre-built history of a workload's data directory.
#[derive(Debug, Clone, PartialEq)]
pub struct History {
    /// Closed design sessions (pool indices), ≥ 20k installs in all.
    pub sessions: Vec<Vec<usize>>,
    /// Sweeps journaled into the exploration corpus.
    pub sweeps: Vec<Sweep>,
}

/// Installs in the pre-built history: enough that recovery replay, not
/// process start, dominates `setup_s`.
pub const HISTORY_INSTALLS: usize = 20_000;

/// Sweeps pre-built into the corpus of `explore_sweeps`.
pub const HISTORY_SWEEPS: usize = 24;

/// The seeded history of `workload`.
pub fn history(workload: Workload, seed: u64, pool_len: usize) -> History {
    let mut gen = SessionGen::new(seed, 99, pool_len);
    let mut rng = Rng::derive(seed, 4);
    let mut sessions = Vec::new();
    let mut installs = 0;
    while installs < HISTORY_INSTALLS {
        let k = rng.range(100, 300) as usize;
        sessions.push(gen.session_of(k).requests);
        installs += k;
    }
    let sweeps = match workload {
        // One worker: corpus rows are then journaled in grid order, so
        // the data directory is byte-identical across runs.
        Workload::ExploreSweeps => {
            let mut sg = SweepGen::new(seed, 0, 1);
            (0..HISTORY_SWEEPS).map(|_| sg.next_sweep()).collect()
        }
        _ => Vec::new(),
    };
    History { sessions, sweeps }
}

/// Worker threads per sweep on the wire.
pub const SWEEP_WORKERS: usize = 2;

/// The sweep stream of `explore_sweeps`, continuing from its history.
pub fn sweep_stream(seed: u64, history: &History) -> SweepGen {
    let mut sg = SweepGen::new(seed, 1, SWEEP_WORKERS);
    for s in &history.sweeps {
        sg.note(s);
    }
    sg
}

/// The wire bytes of one CQL call: the command, then one tab-separated
/// field per input argument (the framing `icdbd` reads).
pub fn wire_line(command: &str, args: &[CqlArg]) -> String {
    let mut line = icdb::net::escape(command);
    for arg in args {
        if let CqlArg::InStr(s) = arg {
            line.push_str("\ts:");
            line.push_str(&icdb::net::escape(s));
        }
    }
    line.push('\n');
    line
}
