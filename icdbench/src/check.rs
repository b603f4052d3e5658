//! Output checks against in-process references built on a fresh `Icdb`.
//! Nothing here is timed.

use crate::gen::{query_args, view_query, GenKey, Sweep, QUERIES, VIEWS};
use crate::load::{cold_check_args, ColdRecord, COLD_CHECK};
use icdb::cql::CqlArg;
use icdb::Icdb;
use std::collections::HashSet;

/// Whether an argument is an output slot.
fn is_output(arg: &CqlArg) -> bool {
    !matches!(
        arg,
        CqlArg::InStr(_) | CqlArg::InInt(_) | CqlArg::InReal(_) | CqlArg::InStrList(_)
    )
}

/// A reply's output arguments (inputs such as instance names differ
/// between the server and the reference).
pub fn output_args(args: &[CqlArg]) -> Vec<CqlArg> {
    args.iter().filter(|a| is_output(a)).cloned().collect()
}

/// Whether a reply's outputs equal `want`.
pub fn same_outputs(reply: &[CqlArg], want: &[CqlArg]) -> bool {
    reply.iter().filter(|a| is_output(a)).eq(want.iter())
}

/// Runs one CQL call on the reference and returns its filled arguments.
fn exec(icdb: &mut Icdb, command: &str, args: &[CqlArg]) -> Result<Vec<CqlArg>, String> {
    let mut args = args.to_vec();
    icdb.execute(command, &mut args)
        .map_err(|e| format!("reference `{command}`: {e}"))?;
    Ok(args)
}

/// The `i`-th output argument as a string.
pub fn out_str(args: &[CqlArg], i: usize) -> Option<&str> {
    let mut outs = args.iter().filter(|a| !matches!(a, CqlArg::InStr(_)));
    match outs.nth(i) {
        Some(CqlArg::OutStr(Some(s))) => Some(s),
        _ => None,
    }
}

/// Expected replies of the design sessions: every view of every pool
/// key, and every knowledge query.
#[derive(Debug)]
pub struct WarmRef {
    /// Outputs of `views[pool index][view index]`.
    pub views: Vec<Vec<Vec<CqlArg>>>,
    /// Outputs of `queries[query index]`.
    pub queries: Vec<Vec<CqlArg>>,
}

impl WarmRef {
    /// Generates every pool key on a fresh `Icdb` and records its views.
    ///
    /// # Errors
    /// A pool key or query the reference cannot answer.
    pub fn build(pool: &[GenKey]) -> Result<WarmRef, String> {
        let mut icdb = Icdb::new();
        let mut views = Vec::with_capacity(pool.len());
        for key in pool {
            let (command, args) = key.request(false);
            let out = exec(&mut icdb, &command, &args)?;
            let name = out_str(&out, 0)
                .ok_or("reference returned no name")?
                .to_string();
            let mut row = Vec::with_capacity(VIEWS.len());
            for view in 0..VIEWS.len() {
                let (command, args) = view_query(&name, view);
                row.push(output_args(&exec(&mut icdb, &command, &args)?));
            }
            views.push(row);
        }
        let queries = (0..QUERIES.len())
            .map(|q| exec(&mut icdb, QUERIES[q], &query_args(q)).map(|o| output_args(&o)))
            .collect::<Result<_, _>>()?;
        Ok(WarmRef { views, queries })
    }
}

/// Fresh in-process sweeps a sweep check may try before it counts a reply
/// as wrong (see [`SHAPE_TRIES`] for why one reference can disagree).
pub const REFERENCE_TRIES: usize = 32;

/// Shape re-estimations a cold check may try before it counts a differing
/// shape view as wrong. The shape estimator sums wire lengths in hash-map
/// order and rounds the sum up to whole routing tracks, so two
/// generations of one request can differ by a track; a shape view is
/// right when the estimator gives it for the reference netlist.
pub const SHAPE_TRIES: usize = 4096;

/// Largest strip count of a generated shape function (the server's
/// `MAX_SHAPE_STRIPS`).
const SHAPE_STRIPS: usize = 8;

/// Position of `shape_function` among the outputs of [`COLD_CHECK`].
const COLD_SHAPE: usize = 1;

/// Outcome of the output checks.
#[derive(Debug, Default)]
pub struct Checked {
    /// Replies checked.
    pub checked: u64,
    /// Replies no reference reproduces.
    pub failures: Vec<String>,
    /// Replies that differ from the first reference but equal a later
    /// one: the generator's own nondeterminism, not a serving fault.
    pub unstable: Vec<String>,
}

impl Checked {
    /// Adds another check's outcome.
    pub fn merge(&mut self, other: Checked) {
        self.checked += other.checked;
        self.failures.extend(other.failures);
        self.unstable.extend(other.unstable);
    }
}

/// The re-estimation (1-based) of instance `name`'s shape on `icdb` that
/// renders as `view`, or `None` within [`SHAPE_TRIES`].
///
/// # Errors
/// An estimate that fails, or re-estimation that never reproduces the
/// instance's own shape view (the reproduction no longer matches the
/// server's estimator).
fn reestimate_shape(icdb: &Icdb, name: &str, view: &str) -> Result<Option<usize>, String> {
    let inst = icdb.instance(name).map_err(|e| e.to_string())?;
    let own = inst.shape.to_alternative_format();
    let mut reproduced = false;
    for k in 1..=SHAPE_TRIES {
        let text = icdb::estimate::estimate_shape(&inst.netlist, &icdb.cells, SHAPE_STRIPS)
            .map_err(|e| e.to_string())?
            .to_alternative_format();
        if text == view {
            return Ok(Some(k));
        }
        reproduced |= text == own;
    }
    if reproduced {
        Ok(None)
    } else {
        Err(format!("re-estimating `{name}` never gives its own shape"))
    }
}

/// Compares sampled cold instances (views and CIF) with in-process
/// generation of the same requests on one `Icdb`. A differing shape view
/// is compared with up to [`SHAPE_TRIES`] re-estimations of the reference
/// netlist's shape; every other view must be equal as generated.
pub fn check_cold(replies: &[(ColdRecord, Vec<CqlArg>)]) -> Checked {
    let mut icdb = Icdb::new();
    let mut out = Checked {
        checked: replies.len() as u64,
        ..Checked::default()
    };
    for (record, wire) in replies {
        let what = format!("`{}` ({:?})", record.name, record.req.key);
        let (command, args) = record.req.key.request(record.req.layout);
        let result = exec(&mut icdb, &command, &args).and_then(|out| {
            let name = out_str(&out, 0)
                .ok_or("reference returned no name")?
                .to_string();
            let views = exec(&mut icdb, COLD_CHECK, &cold_check_args(&name))?;
            Ok((
                name,
                out_str(&out, 1).map(str::to_string),
                output_args(&views),
            ))
        });
        let (name, cif, views) = match result {
            Ok(r) => r,
            Err(e) => {
                out.failures.push(e);
                continue;
            }
        };
        let wire = output_args(wire);
        let differs: Vec<usize> = (0..wire.len().max(views.len()))
            .filter(|&i| wire.get(i) != views.get(i))
            .collect();
        let diff = first_difference(&wire, &views);
        if differs.iter().any(|&i| i != COLD_SHAPE) {
            out.failures.push(format!(
                "cold views of {what} differ from in-process generation: {diff}"
            ));
        } else if record.req.layout && cif != record.cif {
            out.failures.push(format!("cold CIF of {what} differs"));
        } else if !differs.is_empty() {
            let Some(CqlArg::OutStr(Some(view))) = wire.get(COLD_SHAPE) else {
                out.failures.push(format!("cold {what} returned no shape"));
                continue;
            };
            match reestimate_shape(&icdb, &name, view) {
                Ok(Some(k)) => out.unstable.push(format!(
                    "cold {what}: shape re-estimation {k} matched: {diff}"
                )),
                Ok(None) => out.failures.push(format!(
                    "cold shape of {what} is no estimate of its netlist: {diff}"
                )),
                Err(e) => out.failures.push(e),
            }
        }
    }
    out
}

/// The first differing line of two replies, for diagnosis.
fn first_difference(wire: &[CqlArg], reference: &[CqlArg]) -> String {
    let text = |args: &[CqlArg]| format!("{args:?}");
    let (w, r) = (text(wire), text(reference));
    w.split("\\n")
        .zip(r.split("\\n"))
        .find(|(a, b)| a != b)
        .map_or_else(String::new, |(a, b)| {
            format!("server `{a}`, reference `{b}`")
        })
}

/// Table rows of an exploration report without the front/winner marks.
fn table_rows(table: &str) -> Vec<String> {
    let lines: Vec<&str> = table.lines().collect();
    let body = lines.get(2..lines.len().saturating_sub(1)).unwrap_or(&[]);
    body.iter()
        .map(|l| l.get(3..).unwrap_or("").to_string())
        .collect()
}

/// Whether an exact-mode sweep reply has `report`'s winner, front and
/// point count.
fn same_sweep(wire: &[CqlArg], report: &icdb::ExplorationReport) -> bool {
    let winner = report
        .winner_point()
        .map(icdb::DesignPoint::label)
        .unwrap_or_default();
    matches!(wire.get(1), Some(CqlArg::OutStrList(Some(f))) if *f == report.front_lines())
        && matches!(wire.get(2), Some(CqlArg::OutInt(Some(n))) if *n as usize == report.points.len())
        && out_str(wire, 0) == Some(winner.as_str())
}

/// Threads of the sweep check. Each owns a reference `Icdb`; the sweeps
/// of one family (which share grid points) stay on one thread.
const CHECK_THREADS: usize = 2;

/// Compares every sweep with an unpruned in-process sweep of the same
/// grid: exact-mode fronts and winners must be equal, and every point a
/// margin-mode sweep reports must equal that point's unpruned evaluation.
/// A sweep that differs from the shared reference `Icdb` is re-run on up
/// to [`REFERENCE_TRIES`] fresh ones.
pub fn check_sweeps(done: &[(Sweep, Vec<CqlArg>)]) -> Checked {
    let mut families = Vec::new();
    let mut groups: Vec<Vec<&(Sweep, Vec<CqlArg>)>> = vec![Vec::new(); CHECK_THREADS];
    for item in done {
        let target = &item.0.family.target;
        let family = match families.iter().position(|t| t == target) {
            Some(i) => i,
            None => {
                families.push(target.clone());
                families.len() - 1
            }
        };
        groups[family % CHECK_THREADS].push(item);
    }
    let mut out = Checked::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .iter()
            .map(|group| scope.spawn(|| check_sweep_group(group)))
            .collect();
        for h in handles {
            out.merge(h.join().expect("sweep check panicked"));
        }
    });
    out
}

/// [`check_sweeps`] on one thread.
fn check_sweep_group(done: &[&(Sweep, Vec<CqlArg>)]) -> Checked {
    let mut shared = Icdb::new();
    // Hold every grid point so re-checked points stay warm.
    shared.set_cache_capacity(1 << 16);
    let mut out = Checked {
        checked: done.len() as u64,
        ..Checked::default()
    };
    for &(sweep, wire) in done {
        let mut exact_ok = !sweep.exact;
        let mut missing = if sweep.exact {
            Vec::new()
        } else {
            table_rows(out_str(wire, 7).unwrap_or(""))
        };
        let mut tries = 0;
        while tries == 0 || (tries < REFERENCE_TRIES && !(exact_ok && missing.is_empty())) {
            let mut fresh;
            let icdb = if tries == 0 {
                &mut shared
            } else {
                fresh = Icdb::new();
                &mut fresh
            };
            let report = match icdb.explore(&sweep.spec_unpruned()) {
                Ok(r) => r,
                Err(e) => {
                    out.failures.push(format!("reference sweep failed: {e}"));
                    break;
                }
            };
            if sweep.exact {
                exact_ok = same_sweep(wire, &report);
            } else {
                let reference: HashSet<String> =
                    table_rows(&report.to_table()).into_iter().collect();
                missing.retain(|row| !reference.contains(row));
            }
            tries += 1;
        }
        let command = sweep.command().0;
        if !exact_ok {
            out.failures
                .push(format!("exact sweep {command:?} differs from prune:0"));
        } else if !missing.is_empty() {
            out.failures
                .push(format!("margin sweep {command:?} reports a wrong point"));
        } else if tries > 1 {
            out.unstable.push(format!(
                "sweep {command:?} matched reference {tries} of {REFERENCE_TRIES}"
            ));
        }
    }
    out
}
