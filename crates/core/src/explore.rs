//! The exploration sweep driver: turns the knowledge base into a design
//! space and drives `icdb-explore`'s Pareto selection over it.
//!
//! [`Icdb::explore`] resolves candidate implementations (by explicit
//! names, component type, or required functions), crosses them with the
//! requested bit-widths and sizing strategies, and fans one
//! `Icdb::prepare_payload` evaluation per grid point across scoped
//! worker threads — through the generation cache, so a warm re-exploration
//! is nearly free. Estimated `(area, delay, power)` metrics feed an
//! [`icdb_explore::Explorer`], which computes the exact Pareto front and
//! selects a winner under the sweep's [`Objective`].
//!
//! The sweep is read-only (`&self`): no instance is installed, so the
//! concurrent [`crate::service::IcdbService`] serves explorations under
//! its *shared* lock. [`Icdb::publish_exploration`] additionally mirrors a
//! report into the relational `exploration` table (like `cache_stats`).

use crate::cache::RequestKey;
use crate::corpus::{predict, Probe};
use crate::error::IcdbError;
use crate::space::NsId;
use crate::spec::ComponentRequest;
use crate::Icdb;
use icdb_explore::{DesignPoint, ExplorationReport, Explorer, Objective};
use icdb_store::corpus::CorpusPoint;
use icdb_store::Value;

/// The grid attribute swept by [`ExploreSpec::widths`].
const WIDTH_ATTR: &str = "size";

/// What to sweep: candidate implementations, parameter ranges, sizing
/// strategies, and the selection objective.
///
/// Candidates come from `implementations` when non-empty, else from
/// `component` (a component-type name, e.g. `counter`), else from
/// `functions` (implementations executing all of them).
#[derive(Debug, Clone)]
pub struct ExploreSpec {
    /// Component-type candidate filter (`counter`).
    pub component: Option<String>,
    /// Explicit candidate implementations (overrides `component`).
    pub implementations: Vec<String>,
    /// Function-based candidate filter (used when the other two are
    /// empty).
    pub functions: Vec<String>,
    /// `size` attribute values to sweep. Candidates without a `size`
    /// parameter are evaluated once at their defaults. Empty = defaults
    /// only.
    pub widths: Vec<i64>,
    /// Sizing strategies to sweep (`cheapest`, `fastest`). Empty =
    /// `cheapest` only.
    pub strategies: Vec<String>,
    /// Extra attribute overrides applied to every request in the grid.
    pub attributes: Vec<(String, String)>,
    /// Winner-selection objective.
    pub objective: Objective,
    /// Scoped worker threads for the cold evaluations; clamped to
    /// `1..=grid size` (0 means sequential, like
    /// [`Icdb::request_components_batch`]).
    pub workers: usize,
    /// Whether the sweep may use the durable exploration corpus to skip
    /// grid-point evaluations (the `prune:0` escape hatch turns this
    /// off; points are then always evaluated, though corpus lookups and
    /// recording still happen).
    pub prune: bool,
    /// Exactness mode (the default): only reuse corpus points whose
    /// serialized request key matches byte-for-byte — which embeds the
    /// knowledge-base and cell-library versions, so the reconstructed
    /// point is provably identical to a fresh evaluation. When `false`,
    /// the sweep additionally drops grid points whose *predicted*
    /// metrics (from near-neighbor corpus points) are dominated with
    /// margin by the corpus-seeded front — faster, but the report may
    /// omit dominated points (they are counted as pruned, never
    /// silently lost).
    pub prune_exact: bool,
}

impl Default for ExploreSpec {
    fn default() -> ExploreSpec {
        ExploreSpec {
            component: None,
            implementations: Vec::new(),
            functions: Vec::new(),
            widths: Vec::new(),
            strategies: Vec::new(),
            attributes: Vec::new(),
            objective: Objective::default(),
            workers: 4,
            prune: true,
            prune_exact: true,
        }
    }
}

impl ExploreSpec {
    /// A sweep over every implementation of a component type.
    pub fn by_component(name: impl Into<String>) -> ExploreSpec {
        ExploreSpec {
            component: Some(name.into()),
            ..ExploreSpec::default()
        }
    }

    /// A sweep over explicitly named implementations.
    pub fn by_implementations<S: Into<String>>(names: impl IntoIterator<Item = S>) -> ExploreSpec {
        ExploreSpec {
            implementations: names.into_iter().map(Into::into).collect(),
            ..ExploreSpec::default()
        }
    }

    /// Sets the `size` values to sweep.
    pub fn widths(mut self, widths: impl IntoIterator<Item = i64>) -> Self {
        self.widths = widths.into_iter().collect();
        self
    }

    /// Sets the sizing strategies to sweep.
    pub fn strategies<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.strategies = names.into_iter().map(Into::into).collect();
        self
    }

    /// Adds an attribute override applied to every candidate.
    pub fn attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Sets the winner-selection objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the worker-thread count for cold evaluations.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables or disables corpus-based pruning (`prune:0` escape hatch).
    pub fn prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Selects between exactness mode (`true`, the default: byte-identical
    /// reuse only) and margin mode (`false`: predicted-dominated points
    /// are skipped entirely).
    pub fn prune_exact(mut self, exact: bool) -> Self {
        self.prune_exact = exact;
        self
    }
}

/// Out-of-band accounting of one sweep — kept separate from
/// [`ExplorationReport`] so pruned and unpruned sweeps can return
/// *equal* reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points in the sweep (candidates × widths × strategies).
    pub grid: usize,
    /// Points actually run through the generation pipeline (cache-warm
    /// or cold).
    pub evaluated: usize,
    /// Points the corpus saved from evaluation: reconstructed from an
    /// exact-key match, or (margin mode) skipped as predicted-dominated.
    pub pruned: usize,
    /// Exact-key corpus lookups that hit.
    pub corpus_hits: usize,
    /// Exact-key corpus lookups that missed.
    pub corpus_misses: usize,
    /// Freshly evaluated points queued for the next corpus flush.
    pub recorded: usize,
}

impl Icdb {
    /// Runs a design-space exploration sweep: evaluates every candidate ×
    /// width × strategy grid point through the generation cache and
    /// returns the Pareto front plus the winner under the spec's
    /// objective. Read-only — no instance is installed.
    ///
    /// # Errors
    /// Fails when no candidate matches the spec, and propagates the first
    /// generation failure of the grid.
    pub fn explore(&self, spec: &ExploreSpec) -> Result<ExplorationReport, IcdbError> {
        self.explore_in(NsId::ROOT, spec)
    }

    /// [`Icdb::explore`] against an explicit session namespace.
    ///
    /// # Errors
    /// As [`Icdb::explore`]; also fails on unknown namespaces.
    pub fn explore_in(&self, ns: NsId, spec: &ExploreSpec) -> Result<ExplorationReport, IcdbError> {
        Ok(self.explore_in_with_stats(ns, spec)?.0)
    }

    /// [`Icdb::explore`] returning the sweep's out-of-band accounting
    /// (evaluated/pruned/hit/miss counts) alongside the report.
    ///
    /// # Errors
    /// As [`Icdb::explore`].
    pub fn explore_with_stats(
        &self,
        spec: &ExploreSpec,
    ) -> Result<(ExplorationReport, SweepStats), IcdbError> {
        self.explore_in_with_stats(NsId::ROOT, spec)
    }

    /// The full sweep: exact-corpus reuse, optional margin pruning, batch
    /// evaluation of whatever remains, and recording of fresh evaluations
    /// into the corpus's pending queue (journaled later by
    /// [`Icdb::flush_corpus`]).
    ///
    /// In exactness mode (the default) the returned report is provably
    /// equal to an unpruned sweep's: a point is only reconstructed from
    /// the corpus when its serialized canonical key — which embeds the
    /// knowledge-base and cell-library versions — matches byte-for-byte,
    /// and that key determines the whole generation pipeline.
    ///
    /// # Errors
    /// As [`Icdb::explore`].
    pub fn explore_in_with_stats(
        &self,
        ns: NsId,
        spec: &ExploreSpec,
    ) -> Result<(ExplorationReport, SweepStats), IcdbError> {
        /// Margin a corpus-seeded front point must beat a *predicted*
        /// point by before margin mode drops the prediction unevaluated.
        const PRUNE_MARGIN: f64 = 1.2;
        /// Neighbor distance beyond which predictions are not trusted.
        const NEAR_ENOUGH: f64 = 6.0;

        let (labels, requests) = self.explore_grid(spec)?;
        let mut stats = SweepStats {
            grid: requests.len(),
            ..SweepStats::default()
        };

        // Phase 1 — canonicalize every grid point and consult the corpus.
        // Lookups run (and count) even with pruning off, so the hit-rate
        // metrics describe corpus coverage independently of the dial.
        //
        // An *empty* store cannot answer any lookup, so this phase is
        // skipped wholesale: every point then evaluates through
        // `prepare_batch_keyed`, which returns the canonical key it built
        // for the result-cache lookup anyway, and phase 4 records (and
        // counts the misses) from those — the corpus adds no
        // per-point canonicalization to the warm in-memory sweep.
        let store_empty = self.corpus.is_store_empty();
        let mut rkeys: Vec<Option<RequestKey>> = Vec::with_capacity(requests.len());
        let mut reuse: Vec<Option<CorpusPoint>> = Vec::with_capacity(requests.len());
        let mut missed = vec![false; requests.len()];
        if store_empty {
            rkeys.resize_with(requests.len(), || None);
            reuse.resize_with(requests.len(), || None);
        } else {
            for (i, request) in requests.iter().enumerate() {
                let key = self.resolve_request_key(request).ok().flatten();
                let mut hit = None;
                if let Some(k) = &key {
                    hit = self.corpus.lookup(&serde::to_bytes(k));
                    match &hit {
                        Some(_) => stats.corpus_hits += 1,
                        None => {
                            stats.corpus_misses += 1;
                            missed[i] = true;
                        }
                    }
                }
                reuse.push(if spec.prune { hit } else { None });
                rkeys.push(key);
            }
        }

        // Phase 2 — margin mode only: drop grid points whose *predicted*
        // metrics are dominated with margin by the corpus-seeded front.
        // Heuristic by design (predictions scale neighbors by width), so
        // exactness mode never runs it.
        let mut skipped = vec![false; requests.len()];
        if spec.prune && !spec.prune_exact {
            let mut seeds: Vec<[f64; 3]> = reuse
                .iter()
                .flatten()
                .map(|p| [p.area, p.delay, p.power])
                .collect();
            let mut predictions: Vec<Option<[f64; 3]>> = vec![None; requests.len()];
            for (i, rkey) in rkeys.iter().enumerate() {
                if reuse[i].is_some() {
                    continue;
                }
                let Some(probe) = rkey.as_ref().and_then(Probe::from_key) else {
                    continue;
                };
                if let Some((d, neighbor)) = self.corpus.neighbors(&probe, 1).into_iter().next() {
                    if d <= NEAR_ENOUGH {
                        let pred = predict(&neighbor, probe.width);
                        seeds.push(pred);
                        predictions[i] = Some(pred);
                    }
                }
            }
            for (i, pred) in predictions.into_iter().enumerate() {
                let Some(pred) = pred else { continue };
                // A margin > 1 makes self-domination impossible, so the
                // prediction's own seed entry never prunes it.
                let dominated = seeds.iter().any(|s| {
                    s[0] * PRUNE_MARGIN <= pred[0]
                        && s[1] * PRUNE_MARGIN <= pred[1]
                        && s[2] * PRUNE_MARGIN <= pred[2]
                });
                if dominated {
                    skipped[i] = true;
                }
            }
        }

        // Phase 3 — evaluate whatever the corpus did not answer. The
        // common no-reuse case (empty store, or pruning off) evaluates
        // the full grid without cloning any request.
        let mut eval_idx = Vec::new();
        for i in 0..requests.len() {
            if reuse[i].is_none() && !skipped[i] {
                eval_idx.push(i);
            }
        }
        let prepared = if eval_idx.len() == requests.len() {
            self.prepare_batch_keyed(ns, &requests, spec.workers)
        } else {
            let eval_reqs: Vec<ComponentRequest> =
                eval_idx.iter().map(|&i| requests[i].clone()).collect();
            self.prepare_batch_keyed(ns, &eval_reqs, spec.workers)
        };
        stats.evaluated = eval_idx.len();
        stats.pruned = stats.grid - stats.evaluated;
        let mut payloads: Vec<Option<_>> = (0..requests.len()).map(|_| None).collect();
        for (slot, grid_i) in prepared.into_iter().zip(eval_idx) {
            payloads[grid_i] = Some(slot);
        }

        // Phase 4 — assemble the report in grid order (the explorer sorts
        // points canonically, so reconstructed and evaluated points mix
        // deterministically) and queue fresh evaluations for the corpus.
        let mut fresh_misses: u64 = 0;
        let mut explorer = Explorer::new(spec.objective.clone());
        for (i, strategy) in labels.into_iter().enumerate() {
            if skipped[i] {
                continue; // counted in stats.pruned, never silently lost
            }
            if let Some(p) = reuse[i].take() {
                explorer.add_point(DesignPoint {
                    implementation: p.implementation,
                    params: p.params,
                    strategy,
                    area: p.area,
                    delay: p.delay,
                    power: p.power,
                    gates: p.gates as usize,
                    met: p.met,
                });
                continue;
            }
            let (eval_key, payload) = payloads[i]
                .take()
                .expect("every unpruned grid point was prepared");
            let payload = payload?;
            let mut params = payload.params.to_vec();
            params.sort();
            let delay = if payload.report.clock_width > 0.0 {
                payload.report.clock_width
            } else {
                payload.report.worst_output_delay()
            };
            let point = DesignPoint {
                implementation: payload.implementation.to_string(),
                params,
                strategy,
                area: payload.shape.best_area().map(|a| a.area()).unwrap_or(0.0),
                delay,
                power: payload.power_uw,
                gates: payload.netlist.gates.len(),
                met: payload.met,
            };
            // With an empty store every evaluated keyed point is by
            // definition a miss (phase 1 was skipped); count it here so
            // the hit-rate metrics stay exact. Points already sitting in
            // the pending queue are not re-recorded — their key, which
            // embeds the knowledge-base and cell-library versions, proves
            // the queued row is identical.
            if store_empty || missed[i] {
                if let Some(rk) = eval_key {
                    if store_empty {
                        stats.corpus_misses += 1;
                        fresh_misses += 1;
                    }
                    if self.corpus.already_queued(&rk) {
                        explorer.add_point(point);
                        continue;
                    }
                    let width = rk.width().unwrap_or(-1);
                    let bytes = serde::to_bytes(&rk);
                    self.corpus.queue(
                        rk,
                        bytes,
                        CorpusPoint {
                            implementation: point.implementation.clone(),
                            width,
                            params: point.params.clone(),
                            strategy: point.strategy.clone(),
                            area: point.area,
                            delay: point.delay,
                            power: point.power,
                            gates: point.gates as u64,
                            met: point.met,
                            library_version: payload.lib_version,
                            cells_version: payload.cells_version,
                            seq: 0, // assigned at apply time
                            request: serde::to_bytes(&requests[i]),
                        },
                    );
                    stats.recorded += 1;
                }
            }
            explorer.add_point(point);
        }
        if fresh_misses > 0 {
            self.corpus.note_misses(fresh_misses);
        }
        self.corpus.note_pruned(stats.pruned as u64);
        Ok((explorer.finish(), stats))
    }

    /// Expands a spec into its request grid, in deterministic candidate ×
    /// width × strategy order. Returns the strategy label of each request
    /// alongside it (the rest of the point identity comes back with the
    /// payload).
    fn explore_grid(
        &self,
        spec: &ExploreSpec,
    ) -> Result<(Vec<String>, Vec<ComponentRequest>), IcdbError> {
        let candidates: Vec<&crate::library::ComponentImpl> = if !spec.implementations.is_empty() {
            spec.implementations
                .iter()
                .map(|name| {
                    self.library
                        .implementation(name)
                        .ok_or_else(|| IcdbError::NotFound(format!("implementation `{name}`")))
                })
                .collect::<Result<_, _>>()?
        } else if let Some(ty) = spec.component.as_deref().filter(|t| !t.is_empty()) {
            self.library.by_component_type(ty)
        } else if !spec.functions.is_empty() {
            self.library.by_functions(&spec.functions)
        } else {
            return Err(IcdbError::Cql(
                "explore needs candidates: implementation:(…), component:<type> \
                     or function:(…)"
                    .into(),
            ));
        };
        if candidates.is_empty() {
            return Err(IcdbError::NotFound(format!(
                "no implementation matches component {:?} functions {:?}",
                spec.component, spec.functions
            )));
        }

        // Validate and dedupe the grid axes up front. Unknown strategy
        // names would silently alias to cheapest sizing downstream
        // (`ComponentRequest::sizing_strategy`), and duplicate axis values
        // would double-count grid points in the report.
        let strategies: Vec<String> = if spec.strategies.is_empty() {
            vec!["cheapest".to_string()]
        } else {
            let mut seen = Vec::new();
            for s in &spec.strategies {
                if !["cheapest", "fastest"].contains(&s.as_str()) {
                    return Err(IcdbError::Cql(format!(
                        "explore knows strategies cheapest/fastest, not `{s}`"
                    )));
                }
                if !seen.contains(s) {
                    seen.push(s.clone());
                }
            }
            seen
        };
        let mut widths_dedup = Vec::new();
        for w in &spec.widths {
            if !widths_dedup.contains(w) {
                widths_dedup.push(*w);
            }
        }

        let mut labels = Vec::new();
        let mut requests = Vec::new();
        for imp in candidates {
            // Candidates without the swept width attribute are evaluated
            // once at their parameter defaults.
            let widths: Vec<Option<i64>> =
                if widths_dedup.is_empty() || !imp.params.iter().any(|p| p.name == WIDTH_ATTR) {
                    vec![None]
                } else {
                    widths_dedup.iter().copied().map(Some).collect()
                };
            for width in widths {
                for strategy in &strategies {
                    let mut request = ComponentRequest::by_implementation(&imp.name);
                    request.attributes = spec.attributes.clone();
                    if let Some(w) = width {
                        request.attributes.push((WIDTH_ATTR.into(), w.to_string()));
                    }
                    request.strategy = Some(strategy.clone());
                    labels.push(strategy.clone());
                    requests.push(request);
                }
            }
        }
        Ok((labels, requests))
    }

    /// Mirrors an exploration report into the relational `exploration`
    /// table (one row per point, with Pareto/winner flags), so results are
    /// queryable through the store layer like `cache_stats`. Journaled as
    /// a [`crate::MutationEvent::PublishTable`] carrying the computed rows
    /// (the report itself is not durable state), so a recovered server
    /// serves the same table.
    ///
    /// # Errors
    /// Propagates store errors (the table exists on every fresh server).
    pub fn publish_exploration(&mut self, report: &ExplorationReport) -> Result<(), IcdbError> {
        let rows = report
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let width = p
                    .params
                    .iter()
                    .find(|(k, _)| k == WIDTH_ATTR)
                    .map(|(_, v)| *v)
                    .unwrap_or(0);
                vec![
                    Value::Text(p.label()),
                    Value::Text(p.implementation.clone()),
                    Value::Int(width),
                    Value::Text(p.strategy.clone()),
                    Value::Real(p.area),
                    Value::Real(p.delay),
                    Value::Real(p.power),
                    Value::Int(p.gates as i64),
                    Value::Int(i64::from(p.met)),
                    Value::Int(i64::from(report.on_front(i))),
                    Value::Int(i64::from(report.winner == Some(i))),
                ]
            })
            .collect();
        self.commit(&crate::MutationEvent::PublishTable {
            table: "exploration".to_string(),
            rows,
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_spec() -> ExploreSpec {
        ExploreSpec::by_component("counter")
            .widths([3, 4])
            .strategies(["cheapest", "fastest"])
    }

    #[test]
    fn sweep_covers_the_full_grid() {
        let icdb = Icdb::new();
        let counters = icdb.library.by_component_type("counter").len();
        assert!(counters >= 3, "need >=3 counter implementations");
        let report = icdb.explore(&counter_spec()).unwrap();
        // candidates × widths × strategies, every point evaluated.
        assert_eq!(report.points.len(), counters * 2 * 2);
        assert!(!report.front.is_empty());
        assert!(report.winner.is_some());
        // Every front point is undominated (exactness spot check).
        for fp in report.front_points() {
            assert!(!report.points.iter().any(|q| icdb_explore::dominates(q, fp)));
        }
    }

    #[test]
    fn sweep_runs_through_the_generation_cache() {
        let icdb = Icdb::new();
        let cold = icdb.explore(&counter_spec()).unwrap();
        let before = icdb.cache_stats().result;
        let warm = icdb.explore(&counter_spec()).unwrap();
        let after = icdb.cache_stats().result;
        assert_eq!(cold, warm, "warm re-exploration is identical");
        assert_eq!(
            after.hits - before.hits,
            cold.points.len() as u64,
            "every warm grid point is a result-layer hit"
        );
    }

    #[test]
    fn zero_workers_is_clamped_not_hung() {
        let icdb = Icdb::new();
        let seq = icdb.explore(&counter_spec().workers(1)).unwrap();
        let zero = icdb.explore(&counter_spec().workers(0)).unwrap();
        assert_eq!(seq, zero);
    }

    #[test]
    fn constrained_selection_picks_cheapest_feasible() {
        let icdb = Icdb::new();
        // Find an achievable bound from an unconstrained sweep first.
        let free = icdb.explore(&counter_spec()).unwrap();
        let median_delay = {
            let mut delays: Vec<f64> = free.points.iter().map(|p| p.delay).collect();
            delays.sort_by(f64::total_cmp);
            delays[delays.len() / 2]
        };
        let spec = counter_spec().objective(Objective::MinAreaUnderDelay(median_delay));
        let report = icdb.explore(&spec).unwrap();
        let winner = report.winner_point().expect("median bound is feasible");
        assert!(winner.delay <= median_delay);
        for p in &report.points {
            if p.delay <= median_delay {
                assert!(winner.area <= p.area, "winner is min-area feasible");
            }
        }
        // An impossible bound selects nothing.
        let spec = counter_spec().objective(Objective::MinAreaUnderDelay(0.001));
        assert!(icdb.explore(&spec).unwrap().winner.is_none());
    }

    #[test]
    fn unknown_strategies_error_and_duplicate_axes_dedupe() {
        let icdb = Icdb::new();
        // A typoed strategy must not silently alias to cheapest sizing.
        let err = icdb
            .explore(&ExploreSpec::by_component("counter").strategies(["cheapest", "fastes"]))
            .unwrap_err();
        assert!(err.to_string().contains("fastes"), "{err}");
        // Duplicate widths/strategies do not double-count grid points.
        let deduped = icdb
            .explore(
                &ExploreSpec::by_component("counter")
                    .widths([4, 4])
                    .strategies(["cheapest", "cheapest"]),
            )
            .unwrap();
        let plain = icdb
            .explore(
                &ExploreSpec::by_component("counter")
                    .widths([4])
                    .strategies(["cheapest"]),
            )
            .unwrap();
        assert_eq!(deduped, plain);
    }

    #[test]
    fn unknown_candidates_error() {
        let icdb = Icdb::new();
        assert!(icdb.explore(&ExploreSpec::default()).is_err());
        assert!(icdb
            .explore(&ExploreSpec::by_implementations(["GHOST"]))
            .is_err());
        assert!(icdb
            .explore(&ExploreSpec::by_component("no_such_type"))
            .is_err());
    }

    #[test]
    fn publish_exploration_lands_in_the_store() {
        let mut icdb = Icdb::new();
        let report = icdb.explore(&counter_spec()).unwrap();
        icdb.publish_exploration(&report).unwrap();
        let rows = icdb.db.query("SELECT candidate FROM exploration").unwrap();
        assert_eq!(rows.len(), report.points.len());
        let winners = icdb
            .db
            .query("SELECT candidate FROM exploration WHERE winner = 1")
            .unwrap();
        assert_eq!(winners.len(), 1);
        assert_eq!(
            winners[0][0].as_text().unwrap(),
            report.winner_point().unwrap().label()
        );
    }
}
