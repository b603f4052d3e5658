//! The CI perf-regression gate: compares the warm-path medians of the
//! current `cargo bench` JSON artifacts against the committed
//! `crates/bench/BENCH_baseline.json` and fails when a gated metric
//! regresses by more than the tolerance (default 25%).
//!
//! The gated metrics are **speedup ratios** (cold median ÷ warm median,
//! measured in the *same* bench run), not absolute nanoseconds — ratios
//! transfer between the CI runner and a developer laptop, while absolute
//! times do not. A 2× warm-path slowdown halves every speedup, far past
//! the 25% gate (see `injected_two_x_warm_slowdown_fails` below, the
//! permanent in-tree demonstration).
//!
//! Refreshing the baseline after an intentional perf change:
//!
//! ```text
//! cargo bench --bench gen_cached_throughput --bench service_concurrency \
//!     --bench explore_sweep
//! cargo run -p icdb-bench --bin perfgate -- --write-baseline
//! ```
//!
//! The written baseline is the freshly measured value times a 0.8 headroom
//! factor, so ordinary run-to-run noise does not trip the gate while real
//! regressions still do.
//!
//! Next to those measured floors, [`CEILING_SPECS`] holds absolute upper
//! bounds fixed by design (a scaling ratio that must stay below a line
//! between linear and quadratic growth). They are not refreshed from
//! measurements and do not live in the baseline file.

use crate::json::{parse, Json};
use std::fmt::Write as _;

/// Relative drop (vs baseline) above which a gated metric fails.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

/// Headroom factor applied when writing a fresh baseline.
pub const BASELINE_HEADROOM: f64 = 0.8;

/// The gated metrics: `(bench, subject, metric)`. All are
/// higher-is-better (cold÷warm speedups, throughputs, or the corpus
/// points-evaluated `reduction` percentage). `subject` is matched against a
/// `"component"`/`"subject"` field, or parsed as `key=value` and matched
/// against a numeric field of that name (e.g. `sessions=8`).
pub const GATE_SPECS: &[(&str, &str, &str)] = &[
    ("gen_cached_throughput", "counter", "speedup"),
    ("gen_cached_throughput", "alu", "speedup"),
    ("gen_cached_throughput", "csel_adder", "speedup"),
    ("service_concurrency", "sessions=1", "speedup"),
    ("service_concurrency", "sessions=8", "speedup"),
    ("service_concurrency", "sessions=64", "speedup"),
    ("explore_sweep", "sweep", "speedup"),
    ("sweep_pruned", "pruned", "reduction"),
    ("wal_replay", "replay", "events_per_sec"),
    ("wal_replay", "snapshot", "speedup"),
    ("metrics_overhead", "wire", "requests_per_sec"),
];

/// Lower-is-better ratios with a fixed upper bound:
/// `(bench, subject, metric, max)`.
///
/// `close/k4096_over_k256`: closing a session of 4096 instances may take
/// at most 48× as long as closing one of 256. Linear scaling gives 16; a
/// close that scans the whole instance table once per instance gives 64.
pub const CEILING_SPECS: &[(&str, &str, &str, f64)] =
    &[("service_concurrency", "close", "k4096_over_k256", 48.0)];

/// The gates of [`CEILING_SPECS`].
pub fn ceiling_gates() -> Vec<Gate> {
    CEILING_SPECS
        .iter()
        .map(|&(bench, subject, metric, max)| Gate {
            bench: bench.to_string(),
            subject: subject.to_string(),
            metric: metric.to_string(),
            baseline: max,
            ceiling: true,
        })
        .collect()
}

/// One gate: a measured floor from the baseline file, or a fixed ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// `"bench"` field of the artifact this gate reads.
    pub bench: String,
    /// Subject selector within the artifact (see [`GATE_SPECS`]).
    pub subject: String,
    /// Metric field name.
    pub metric: String,
    /// Committed floor-reference value, or the bound of a ceiling gate.
    pub baseline: f64,
    /// Whether `baseline` is an absolute upper bound (see
    /// [`CEILING_SPECS`]) rather than a floor with tolerance.
    pub ceiling: bool,
}

/// One gate's verdict against the current artifacts.
#[derive(Debug, Clone)]
pub struct GateResult {
    /// The gate evaluated.
    pub gate: Gate,
    /// Current measured value (`None` when the artifact or subject is
    /// missing — which also fails the gate).
    pub current: Option<f64>,
    /// `current / baseline` when both exist.
    pub ratio: Option<f64>,
    /// Verdict.
    pub pass: bool,
}

/// Parses the baseline document into its tolerance and gates.
///
/// # Errors
/// Malformed JSON or missing fields.
pub fn parse_baseline(text: &str) -> Result<(f64, Vec<Gate>), String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let tolerance = doc
        .get("tolerance")
        .and_then(Json::as_f64)
        .unwrap_or(DEFAULT_TOLERANCE);
    let gates = doc
        .get("gates")
        .and_then(Json::as_arr)
        .ok_or("baseline lacks a `gates` array")?
        .iter()
        .map(|g| {
            Ok(Gate {
                bench: g
                    .get("bench")
                    .and_then(Json::as_str)
                    .ok_or("gate lacks `bench`")?
                    .to_string(),
                subject: g
                    .get("subject")
                    .and_then(Json::as_str)
                    .ok_or("gate lacks `subject`")?
                    .to_string(),
                metric: g
                    .get("metric")
                    .and_then(Json::as_str)
                    .ok_or("gate lacks `metric`")?
                    .to_string(),
                baseline: g
                    .get("baseline")
                    .and_then(Json::as_f64)
                    .ok_or("gate lacks a numeric `baseline`")?,
                ceiling: false,
            })
        })
        .collect::<Result<Vec<Gate>, &str>>()?;
    Ok((tolerance, gates))
}

/// Whether a JSON object answers to the subject selector.
fn subject_matches(obj: &Json, subject: &str) -> bool {
    for field in ["component", "subject"] {
        if obj.get(field).and_then(Json::as_str) == Some(subject) {
            return true;
        }
    }
    if let Some((key, value)) = subject.split_once('=') {
        if let (Some(actual), Ok(wanted)) =
            (obj.get(key).and_then(Json::as_f64), value.parse::<f64>())
        {
            return actual == wanted;
        }
    }
    false
}

/// Finds `metric` for `subject` anywhere inside a bench artifact.
pub fn extract_metric(doc: &Json, subject: &str, metric: &str) -> Option<f64> {
    let mut found = None;
    doc.walk(&mut |node| {
        if found.is_none() && subject_matches(node, subject) {
            found = node.get(metric).and_then(Json::as_f64);
        }
    });
    found
}

/// Evaluates every gate against the current artifacts (each artifact is a
/// parsed `BENCH_*.json` carrying a top-level `"bench"` name).
pub fn evaluate(gates: &[Gate], tolerance: f64, artifacts: &[Json]) -> Vec<GateResult> {
    gates
        .iter()
        .map(|gate| {
            let doc = artifacts
                .iter()
                .find(|d| d.get("bench").and_then(Json::as_str) == Some(gate.bench.as_str()));
            let current = doc.and_then(|d| extract_metric(d, &gate.subject, &gate.metric));
            let ratio = current.map(|c| c / gate.baseline);
            let pass = if gate.ceiling {
                current.is_some_and(|c| c <= gate.baseline)
            } else {
                ratio.is_some_and(|r| r >= 1.0 - tolerance)
            };
            GateResult {
                gate: gate.clone(),
                current,
                ratio,
                pass,
            }
        })
        .collect()
}

/// Renders the verdict table printed on every run, pass or fail.
pub fn render_table(results: &[GateResult], tolerance: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:<14} {:<10} {:>10} {:>10} {:>8}  verdict",
        "bench", "subject", "metric", "baseline", "current", "ratio"
    );
    let _ = writeln!(out, "{}", "-".repeat(88));
    for r in results {
        let current = r
            .current
            .map(|v| format!("{v:.1}"))
            .unwrap_or_else(|| "missing".into());
        let ratio = r
            .ratio
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        let _ = writeln!(
            out,
            "{:<24} {:<14} {:<10} {:>10.1} {:>10} {:>8}  {}",
            r.gate.bench,
            r.gate.subject,
            r.gate.metric,
            r.gate.baseline,
            current,
            ratio,
            if r.pass { "PASS" } else { "FAIL" }
        );
    }
    let _ = writeln!(
        out,
        "gate: FAIL when current < baseline × {:.2} (ceiling gates: current > baseline)",
        1.0 - tolerance
    );
    out
}

/// Renders a fresh baseline document from current artifacts, applying the
/// headroom factor. Gates whose metric is missing are skipped (the
/// evaluator will then fail them until the bench runs).
pub fn render_baseline(artifacts: &[Json]) -> String {
    let mut gates = String::new();
    let mut first = true;
    for (bench, subject, metric) in GATE_SPECS {
        let Some(doc) = artifacts
            .iter()
            .find(|d| d.get("bench").and_then(Json::as_str) == Some(*bench))
        else {
            continue;
        };
        let Some(value) = extract_metric(doc, subject, metric) else {
            continue;
        };
        if !first {
            gates.push_str(",\n");
        }
        first = false;
        let _ = write!(
            gates,
            "    {{\"bench\": \"{bench}\", \"subject\": \"{subject}\", \
             \"metric\": \"{metric}\", \"baseline\": {:.1}}}",
            value * BASELINE_HEADROOM
        );
    }
    format!(
        "{{\n  \"note\": \"Perf-regression floors (speedup ratios, measured value x {BASELINE_HEADROOM} \
         headroom). Refresh: cargo bench --bench gen_cached_throughput --bench service_concurrency \
         --bench explore_sweep --bench sweep_pruned --bench wal_replay && cargo run -p icdb-bench \
         --bin perfgate -- --write-baseline\",\n  \
         \"tolerance\": {DEFAULT_TOLERANCE},\n  \"gates\": [\n{gates}\n  ]\n}}\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "tolerance": 0.25,
      "gates": [
        {"bench": "gen_cached_throughput", "subject": "counter", "metric": "speedup", "baseline": 48.0},
        {"bench": "service_concurrency", "subject": "sessions=8", "metric": "speedup", "baseline": 40.0}
      ]
    }"#;

    fn artifact(counter_speedup: f64, s8_speedup: f64) -> Vec<Json> {
        vec![
            parse(&format!(
                r#"{{"bench": "gen_cached_throughput",
                    "warm_vs_cold": [{{"component": "counter", "speedup": {counter_speedup}}}]}}"#
            ))
            .unwrap(),
            parse(&format!(
                r#"{{"bench": "service_concurrency",
                    "scenarios": [{{"sessions": 8, "speedup": {s8_speedup}}},
                                  {{"sessions": 1, "speedup": 99.0}}]}}"#
            ))
            .unwrap(),
        ]
    }

    #[test]
    fn healthy_tree_passes() {
        let (tolerance, gates) = parse_baseline(BASELINE).unwrap();
        // Values at (and slightly below) the baseline pass: the committed
        // floors already carry headroom.
        let results = evaluate(&gates, tolerance, &artifact(48.0, 31.0));
        assert!(results.iter().all(|r| r.pass), "{results:?}");
    }

    /// The acceptance-criterion demonstration, made permanent: a 2× warm
    /// slowdown halves every speedup ratio, which the 25% gate must catch.
    #[test]
    fn injected_two_x_warm_slowdown_fails() {
        let (tolerance, gates) = parse_baseline(BASELINE).unwrap();
        let healthy = artifact(61.0, 55.0);
        assert!(evaluate(&gates, tolerance, &healthy).iter().all(|r| r.pass));
        // Doubling warm_ns halves cold/warm — exactly what a slow cache
        // lookup or a lost shared-lock fast path produces.
        let slowed = artifact(61.0 / 2.0, 55.0 / 2.0);
        let results = evaluate(&gates, tolerance, &slowed);
        assert!(
            results.iter().all(|r| !r.pass),
            "2x warm slowdown must fail every speedup gate: {results:?}"
        );
        let table = render_table(&results, tolerance);
        assert!(table.contains("FAIL"), "{table}");
    }

    #[test]
    fn missing_artifact_or_subject_fails_closed() {
        let (tolerance, gates) = parse_baseline(BASELINE).unwrap();
        let results = evaluate(&gates, tolerance, &[]);
        assert!(results.iter().all(|r| !r.pass && r.current.is_none()));
        // Artifact present but the gated subject absent → also fail.
        let partial =
            vec![parse(r#"{"bench": "gen_cached_throughput", "warm_vs_cold": []}"#).unwrap()];
        let results = evaluate(&gates, tolerance, &partial);
        assert!(results.iter().all(|r| !r.pass));
    }

    #[test]
    fn baseline_round_trips_through_render() {
        let rendered = render_baseline(&artifact(60.0, 50.0));
        let (tolerance, gates) = parse_baseline(&rendered).unwrap();
        assert_eq!(tolerance, DEFAULT_TOLERANCE);
        // Only the two subjects present in the artifacts are gated.
        assert_eq!(gates.len(), 3, "{gates:?}"); // counter + sessions=8 + sessions=1
        let counter = gates.iter().find(|g| g.subject == "counter").unwrap();
        assert!((counter.baseline - 60.0 * BASELINE_HEADROOM).abs() < 1e-6);
        // A fresh baseline always passes against the artifacts it came from.
        let results = evaluate(&gates, tolerance, &artifact(60.0, 50.0));
        assert!(results.iter().all(|r| r.pass), "{results:?}");
    }

    #[test]
    fn ceiling_gates_fail_above_their_bound_only() {
        let close = |scaling: f64| {
            vec![parse(&format!(
                r#"{{"bench": "service_concurrency",
                    "close": {{"subject": "close", "k4096_over_k256": {scaling}}}}}"#
            ))
            .unwrap()]
        };
        let gates = ceiling_gates();
        let verdict = |scaling| evaluate(&gates, DEFAULT_TOLERANCE, &close(scaling))[0].pass;
        assert!(verdict(16.0), "linear close passes");
        assert!(verdict(48.0), "the bound itself passes");
        assert!(!verdict(64.0), "quadratic close fails");
        assert!(!evaluate(&gates, DEFAULT_TOLERANCE, &[])[0].pass);
    }

    #[test]
    fn subject_selectors_match_fields_and_key_value_pairs() {
        let doc = parse(
            r#"{"bench": "b", "rows": [
                 {"component": "alu", "speedup": 7.0},
                 {"sessions": 4, "speedup": 9.0}]}"#,
        )
        .unwrap();
        assert_eq!(extract_metric(&doc, "alu", "speedup"), Some(7.0));
        assert_eq!(extract_metric(&doc, "sessions=4", "speedup"), Some(9.0));
        assert_eq!(extract_metric(&doc, "sessions=5", "speedup"), None);
        assert_eq!(extract_metric(&doc, "ghost", "speedup"), None);
    }
}
