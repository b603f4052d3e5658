//! The traced run's in-process replay: the workload's seeded inputs go
//! through each layer's public functions, with a span around every call.

use crate::gen::{
    builtin, natural_clock, query_args, view_query, GenKey, Read, SessionGen, Sizing, Sweep,
    QUERIES,
};
use crate::server::{client_policy, copy_dir};
use crate::trace::Tracer;
use icdb::cql::CqlArg;
use icdb::estimate::PowerSpec;
use icdb::layout::PortSpec;
use icdb::logic::SynthOptions;
use icdb::net::IcdbClient;
use icdb::sizing::Strategy;
use icdb::store::wal::{scan_wal, GroupWal, WalWriter};
use icdb::{Icdb, IcdbService};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median of a sample in µs (0 for an empty one).
pub fn median_us(nanos: &[u64]) -> f64 {
    percentile(nanos, 0.5) / 1e3
}

/// Nearest-rank percentile of `nanos` (0 for an empty sample).
pub fn percentile(nanos: &[u64], q: f64) -> f64 {
    if nanos.is_empty() {
        return 0.0;
    }
    let mut v = nanos.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

/// Parses every CQL line of the workload (`cql.parse`).
pub fn cql(tracer: &mut Tracer, lines: &[(String, Vec<CqlArg>)]) -> Result<(), String> {
    for (command, args) in lines {
        tracer
            .span("cql.parse", |_| {
                icdb::cql::parse_command(std::hint::black_box(command), args)
            })
            .map_err(|e| format!("parse `{command}`: {e}"))?;
    }
    Ok(())
}

/// Replays a design-session prefix over `pool` twice, once over the wire
/// (`net.rtt`) and once through an in-process durable service
/// (`service.execute_warm` / `service.execute_read`); times session open
/// and connect+hello; and times `Session::close` by namespace size.
/// Returns, per replayed line, the wire round trip minus the in-process
/// execute (ns).
pub fn serve(
    tracer: &mut Tracer,
    addr: SocketAddr,
    dir: &Path,
    pool: &[GenKey],
    seed: u64,
    ops: usize,
) -> Result<Vec<u64>, String> {
    let service = Arc::new(
        IcdbService::open_with_options(dir, true, Duration::ZERO)
            .map_err(|e| format!("open service: {e}"))?,
    );
    let exec = |session: &icdb::Session, (command, args): &(String, Vec<CqlArg>)| {
        let mut args = args.clone();
        session
            .execute(command, &mut args)
            .map_err(|e| format!("in-process `{command}`: {e}"))
    };
    let mut wire = IcdbClient::connect_with(addr, client_policy()).map_err(|e| e.to_string())?;
    let warm = service.open_session();
    for key in pool {
        let line = key.request(false);
        exec(&warm, &line)?;
        wire.execute(&line.0, &mut line.1.clone())
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    warm.close();
    let _ = wire.quit();

    for _ in 0..32 {
        let session = tracer.span("service.open_session", |_| service.open_session());
        session.close();
        let client = tracer.span("net.connect_hello", |_| {
            IcdbClient::connect_with(addr, client_policy()).and_then(|mut c| {
                c.hello()?;
                Ok(c)
            })
        });
        let _ = client.map_err(|e| e.to_string())?.quit();
    }

    let mut overhead = Vec::new();
    let mut gen = SessionGen::new(seed, 7, pool.len());
    let mut done = 0;
    while done < ops {
        let plan = gen.next_session();
        let session = service.open_session();
        let mut client =
            IcdbClient::connect_with(addr, client_policy()).map_err(|e| e.to_string())?;
        for (i, &p) in plan.requests.iter().enumerate() {
            if done >= ops {
                break;
            }
            let mut lines = vec![("service.execute_warm", pool[p].request(false))];
            for read in &plan.reads[i] {
                lines.push((
                    "service.execute_read",
                    match *read {
                        Read::Instance { instance, view } => view_query(
                            &pool[plan.requests[instance]].instance_name(instance + 1),
                            view,
                        ),
                        Read::Query(q) => (QUERIES[q].to_string(), query_args(q)),
                    },
                ));
            }
            for (name, line) in &lines {
                let mut args = line.1.clone();
                let t = Instant::now();
                tracer
                    .span("net.rtt", |_| client.execute(&line.0, &mut args))
                    .map_err(|e| format!("wire `{}`: {e}", line.0))?;
                let wire_ns = t.elapsed().as_nanos() as u64;
                let t = Instant::now();
                tracer.span(name, |_| exec(&session, line))?;
                let local_ns = t.elapsed().as_nanos() as u64;
                overhead.push(wire_ns.saturating_sub(local_ns));
                done += 1;
            }
        }
        let _ = client.quit();
        session.close();
    }

    for (span, n) in [
        ("service.close.k256", 256),
        ("service.close.k1024", 1024),
        ("service.close.k4096", 4096),
    ] {
        let session = service.open_session();
        let mut gen = SessionGen::new(seed, 8, pool.len());
        for p in gen.session_of(n).requests {
            exec(&session, &pool[p].request(false))?;
        }
        tracer.span(span, |_| session.close());
    }
    Ok(overhead)
}

/// Runs each key through the Fig. 8 stages one public function at a
/// time (`gen.stages` and its children), next to the whole in-process
/// request (`gen.request`); sizes every netlist under all three
/// strategies and places it (`layout.place`). Returns the mapped gate
/// count of every key.
pub fn pipeline(tracer: &mut Tracer, keys: &[GenKey]) -> Result<Vec<usize>, String> {
    let mut icdb = Icdb::new();
    let options = SynthOptions::default();
    let mut gates = Vec::new();
    for key in keys {
        let request = key.component_request();
        icdb.clear_generation_cache();
        tracer
            .span("gen.request", |_| icdb.request_component(&request))
            .map_err(|e| format!("request {key:?}: {e}"))?;

        let imp = icdb
            .library
            .implementation(key.imp)
            .ok_or("unknown implementation")?;
        let params = imp
            .bind_attributes(&request.attributes)
            .map_err(|e| e.to_string())?;
        let pairs: Vec<(&str, i64)> = params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let loads = request.constraints.load_spec();
        let strategy = request.sizing_strategy();
        let cells = &icdb.cells;
        let stage_err = |what: &str, e: &dyn std::fmt::Display| format!("{what} {key:?}: {e}");
        let parse = |tracer: &mut Tracer| {
            tracer
                .span("iif.parse", |_| icdb::iif::parse(builtin(key.imp).iif))
                .map_err(|e| stage_err("parse", &e))
        };
        // Library requests use the pre-parsed module, so their source is
        // parsed outside the stages a request runs.
        if !key.inline {
            parse(tracer)?;
        }
        tracer.enter("gen.stages");
        let module = if key.inline {
            parse(tracer)?
        } else {
            imp.module.clone()
        };
        let flat = tracer
            .span("iif.expand", |_| {
                icdb::iif::expand(&module, &pairs, &icdb.library)
            })
            .map_err(|e| stage_err("expand", &e))?;
        let network = tracer
            .span("logic.optimize", |_| icdb::logic::optimize(&flat, &options))
            .map_err(|e| stage_err("optimize", &e))?;
        let mapped = tracer
            .span("logic.map", |_| {
                icdb::logic::map_network(&network, cells, options.objective)
            })
            .map_err(|e| stage_err("map", &e))?;
        let mut netlist = mapped.clone();
        tracer.span(key.sizing.span(), |_| {
            icdb::sizing::size_netlist(&mut netlist, cells, &loads, &strategy)
        });
        let shape = tracer
            .span("estimate.shape", |_| {
                icdb::estimate::estimate_shape(&netlist, cells, 8)
            })
            .map_err(|e| stage_err("shape", &e))?;
        tracer
            .span("estimate.power", |_| {
                icdb::estimate::estimate_power(&netlist, cells, &PowerSpec::default())
            })
            .map_err(|e| stage_err("power", &e))?;
        tracer.span("vhdl.emit", |_| {
            std::hint::black_box(icdb::vhdl::emit_netlist(&netlist, cells));
            std::hint::black_box(icdb::vhdl::emit_entity(&netlist));
        });
        tracer.exit();
        gates.push(mapped.gates.len());

        // The other sizing strategies on the same mapped netlist, within
        // the cost bounds the cold stream uses (control inputs lengthen a
        // counter's clock well past the estimate).
        let slack = if key.imp == "COUNTER" { 1.4 } else { 1.0 };
        let others = [
            Sizing::Cheapest,
            Sizing::Clock(natural_clock(key.imp, key.width()) * slack),
            Sizing::Fastest,
        ];
        for sizing in others {
            let bounded = match sizing {
                Sizing::Cheapest => true,
                Sizing::Clock(_) => key.width() <= builtin(key.imp).max_w,
                Sizing::Fastest => key.width() <= builtin(key.imp).fastest_max,
            };
            if !bounded || std::mem::discriminant(&sizing) == std::mem::discriminant(&key.sizing) {
                continue;
            }
            let req = GenKey {
                sizing: sizing.clone(),
                ..key.clone()
            }
            .component_request();
            let strategy: Strategy = req.sizing_strategy();
            let mut nl = mapped.clone();
            tracer.span(sizing.span(), |_| {
                icdb::sizing::size_netlist(&mut nl, cells, &req.constraints.load_spec(), &strategy)
            });
        }

        let strips = shape.best_area().map_or(1, |a| a.strips);
        let names = |nets: &[icdb::logic::GNet]| -> Vec<String> {
            nets.iter()
                .map(|&n| netlist.net_name(n).to_string())
                .collect()
        };
        let ports = PortSpec::default_for(&names(&netlist.inputs), &names(&netlist.outputs));
        tracer
            .span("layout.place", |_| {
                icdb::layout::place(&netlist, cells, strips, &ports)
            })
            .map_err(|e| stage_err("place", &e))?;
    }
    Ok(gates)
}

/// Sweep accounting summed over the replay.
#[derive(Debug, Default)]
pub struct Explore {
    /// Grid points.
    pub grid: usize,
    /// Points run through the pipeline.
    pub evaluated: usize,
    /// Exact-key corpus hits.
    pub hits: usize,
    /// Exact-key corpus lookups.
    pub lookups: usize,
}

/// Replays the workload's sweeps in order on an in-process copy of the
/// pre-built data directory (`explore.sweep`).
pub fn explore(
    tracer: &mut Tracer,
    base: &Path,
    work: &Path,
    sweeps: &[Sweep],
) -> Result<Explore, String> {
    copy_dir(base, work).map_err(|e| format!("copy data dir: {e}"))?;
    let mut icdb =
        Icdb::open_with_options(work, false, Duration::ZERO).map_err(|e| format!("open: {e}"))?;
    let mut out = Explore::default();
    for sweep in sweeps {
        let (_, stats) = tracer
            .span("explore.sweep", |_| icdb.explore_with_stats(&sweep.spec()))
            .map_err(|e| format!("sweep: {e}"))?;
        icdb.flush_corpus()
            .map_err(|e| format!("flush corpus: {e}"))?;
        out.grid += stats.grid;
        out.evaluated += stats.evaluated;
        out.hits += stats.corpus_hits;
        out.lookups += stats.corpus_hits + stats.corpus_misses;
    }
    Ok(out)
}

/// What the store probe measured.
#[derive(Debug, Default)]
pub struct Store {
    /// WAL bytes per journaled event of the post-run data directory.
    pub bytes_per_event: f64,
    /// Events replayed by `Icdb::open` per second.
    pub replay_events_per_s: f64,
}

/// The newest WAL file of a data directory.
fn newest_wal(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .max_by_key(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
}

/// Re-commits the run's own WAL records through a fresh fsyncing
/// `GroupWal` (`store.commit`: submit + wait_durable) and replays the
/// post-run data directory with `Icdb::open` (`store.replay`).
pub fn store(
    tracer: &mut Tracer,
    post_run: &Path,
    work: &Path,
    commits: usize,
) -> Result<Store, String> {
    let wal = newest_wal(post_run).ok_or("post-run dir has no WAL")?;
    let scan = scan_wal(&wal).map_err(|e| format!("scan wal: {e}"))?;
    let bytes = std::fs::metadata(&wal).map_err(|e| e.to_string())?.len();
    let mut out = Store {
        bytes_per_event: bytes as f64 / scan.records.len().max(1) as f64,
        ..Store::default()
    };
    std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
    let (writer, _) =
        WalWriter::open(&work.join("wal-probe.log"), false).map_err(|e| e.to_string())?;
    let group = GroupWal::new(writer, true, Duration::ZERO);
    for payload in scan.records.iter().take(commits) {
        tracer
            .span("store.commit", |_| {
                let seq = group.submit(payload.clone())?;
                group.wait_durable(seq)
            })
            .map_err(|e| format!("commit: {e}"))?;
    }
    let replay = work.join("replay");
    copy_dir(post_run, &replay).map_err(|e| format!("copy data dir: {e}"))?;
    let started = Instant::now();
    let icdb = tracer
        .span("store.replay", |_| {
            Icdb::open_with_options(&replay, false, Duration::ZERO)
        })
        .map_err(|e| format!("replay: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    let events = icdb.persist_stats().map_or(0, |s| s.recovered_events);
    out.replay_events_per_s = events as f64 / secs;
    Ok(out)
}
