//! Shared experiment harness: workload builders and data generators for
//! every table and figure of the paper's evaluation (see DESIGN.md §4 for
//! the experiment index). The `figures` binary prints the paper-style
//! tables; the Criterion benches time the same code paths.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod json;
pub mod perfgate;

use icdb::estimate::{LoadSpec, ShapeFunction};
use icdb::layout::{best_by_aspect, Floorplan, SlicingTree};
use icdb::sizing::Strategy;
use icdb::{ComponentRequest, Icdb};

/// One row of the Fig. 5 trade-off table.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Variant label as in the figure.
    pub label: &'static str,
    /// Delay to `Q[4]` (ns).
    pub delay: f64,
    /// Best-shape area (µm²).
    pub area: f64,
    /// Gate count.
    pub gates: usize,
    /// Minimum clock width (ns).
    pub clock_width: f64,
}

/// The five counter variants of Fig. 5, in the paper's order.
pub const FIG5_VARIANTS: [(&str, &[(&str, &str)]); 5] = [
    ("ripple", &[("type", "ripple")]),
    (
        "synchronous up",
        &[("type", "synchronous"), ("up_or_down", "up")],
    ),
    (
        "synchronous up with enable",
        &[
            ("type", "synchronous"),
            ("up_or_down", "up"),
            ("enable", "1"),
        ],
    ),
    (
        "synchronous updown",
        &[("type", "synchronous"), ("up_or_down", "updown")],
    ),
    (
        "synchronous updown with parallel load",
        &[
            ("type", "synchronous"),
            ("up_or_down", "updown"),
            ("enable", "1"),
            ("load", "1"),
        ],
    ),
];

/// Generates one Fig. 5 counter variant and returns its instance name.
pub fn generate_counter_variant(icdb: &mut Icdb, attrs: &[(&str, &str)]) -> String {
    let mut req = ComponentRequest::by_component("counter").attribute("size", "5");
    for (k, v) in attrs {
        req = req.attribute(*k, *v);
    }
    icdb.request_component(&req)
        .expect("counter variant generates")
}

/// E1 / Fig. 5: the area/time trade-off of the five counter variants.
pub fn fig5_data() -> Vec<Fig5Row> {
    let mut icdb = Icdb::new();
    FIG5_VARIANTS
        .iter()
        .map(|(label, attrs)| {
            let name = generate_counter_variant(&mut icdb, attrs);
            let inst = icdb.instance(&name).expect("generated");
            Fig5Row {
                label,
                delay: inst
                    .report
                    .output_delay("Q[4]")
                    .unwrap_or_else(|| inst.report.worst_output_delay()),
                area: inst.area(),
                gates: inst.netlist.gates.len(),
                clock_width: inst.report.clock_width,
            }
        })
        .collect()
}

/// Generates the §3.3 counter (size 5, updown, enable, parallel load).
pub fn full_counter(icdb: &mut Icdb) -> String {
    generate_counter_variant(
        icdb,
        &[
            ("type", "synchronous"),
            ("up_or_down", "updown"),
            ("enable", "1"),
            ("load", "1"),
        ],
    )
}

/// E2 / Fig. 6: the shape function of the up/down counter.
pub fn fig6_data() -> ShapeFunction {
    let mut icdb = Icdb::new();
    let name = full_counter(&mut icdb);
    (*icdb.instance(&name).expect("generated").shape).clone()
}

/// E3 / §3.3 delay table: the CW/WD/SD report of the full counter.
pub fn tab_delay_data() -> String {
    let mut icdb = Icdb::new();
    let name = full_counter(&mut icdb);
    icdb.delay_string(&name).expect("report")
}

/// E5 / Fig. 9: ASCII layouts of the five counter variants.
pub fn fig9_data() -> Vec<(String, String)> {
    let mut icdb = Icdb::new();
    FIG5_VARIANTS
        .iter()
        .map(|(label, attrs)| {
            let name = generate_counter_variant(&mut icdb, attrs);
            icdb.generate_layout(&name, None, None).expect("layout");
            let art = icdb
                .files
                .read(&format!("instances/{name}.layout.txt"))
                .expect("ascii art stored")
                .to_string();
            (label.to_string(), art)
        })
        .collect()
}

/// E6 / Fig. 10: area vs output load at a fixed clock-width target.
/// Returns `(target CW, rows of (load, area, met))`.
pub fn fig10_data() -> (f64, Vec<(f64, f64, bool)>) {
    let mut icdb = Icdb::new();
    // Find an achievable target at the heaviest load, then hold it.
    let probe = full_counter(&mut icdb);
    let base = (*icdb.instance(&probe).expect("generated").netlist).clone();
    let target = {
        let mut nl = base.clone();
        let r = icdb::sizing::size_netlist(
            &mut nl,
            &icdb.cells,
            &LoadSpec::uniform(50.0),
            &Strategy::Fastest,
        );
        (r.report.clock_width * 1.12).ceil()
    };
    let mut rows = Vec::new();
    for load in [10.0, 20.0, 30.0, 40.0, 50.0] {
        let mut nl = base.clone();
        let r = icdb::sizing::size_netlist(
            &mut nl,
            &icdb.cells,
            &LoadSpec::uniform(load),
            &Strategy::Constraints(icdb::sizing::SizingGoal::clock(target)),
        );
        let shape = icdb::estimate::estimate_shape(&nl, &icdb.cells, 8).expect("shape");
        rows.push((load, shape.best_area().expect("alts").area(), r.met));
    }
    (target, rows)
}

/// E7 / Fig. 11: area vs clock-width constraint at a fixed load of 10.
/// Returns rows of `(CW target, area, met)`.
pub fn fig11_data() -> Vec<(f64, f64, bool)> {
    let mut icdb = Icdb::new();
    let probe = full_counter(&mut icdb);
    let base = (*icdb.instance(&probe).expect("generated").netlist).clone();
    let loads = LoadSpec::uniform(10.0);
    let min_cw = {
        let mut nl = base.clone();
        let r = icdb::sizing::size_netlist(&mut nl, &icdb.cells, &loads, &Strategy::Fastest);
        r.report.clock_width
    };
    let mut rows = Vec::new();
    for factor in [1.02, 1.08, 1.15, 1.25, 1.40] {
        let target = min_cw * factor;
        let mut nl = base.clone();
        let r = icdb::sizing::size_netlist(
            &mut nl,
            &icdb.cells,
            &loads,
            &Strategy::Constraints(icdb::sizing::SizingGoal::clock(target)),
        );
        let shape = icdb::estimate::estimate_shape(&nl, &icdb.cells, 8).expect("shape");
        rows.push((target, shape.best_area().expect("alts").area(), r.met));
    }
    rows
}

/// E8 / Fig. 12: the same counter laid out at every shape alternative.
/// Returns `(strips, width, height, ascii art)` rows.
pub fn fig12_data() -> Vec<(usize, f64, f64, String)> {
    let mut icdb = Icdb::new();
    let name = full_counter(&mut icdb);
    let alts = icdb
        .instance(&name)
        .expect("generated")
        .shape
        .alternatives
        .clone();
    let mut out = Vec::new();
    for (i, alt) in alts.iter().enumerate() {
        icdb.generate_layout(&name, Some(i + 1), None)
            .expect("layout");
        let inst = icdb.instance(&name).expect("generated");
        let l = inst.layout.as_ref().expect("layout stored");
        let art = icdb
            .files
            .read(&format!("instances/{name}.layout.txt"))
            .expect("art")
            .to_string();
        out.push((alt.strips, l.width, l.height, art));
    }
    out
}

/// E9 / Fig. 13: the simple computer floorplanned two ways.
/// Returns `(control-left plan, control-bottom plan)`.
pub fn fig13_data() -> (Floorplan, Floorplan) {
    let mut icdb = Icdb::new();
    let alu = icdb
        .request_component(&ComponentRequest::by_implementation("ALU").attribute("size", "8"))
        .expect("alu");
    let reg_a = icdb
        .request_component(&ComponentRequest::by_implementation("REGISTER").attribute("size", "8"))
        .expect("reg");
    let reg_b = icdb
        .request_component(&ComponentRequest::by_implementation("REGISTER").attribute("size", "8"))
        .expect("reg");
    let mux = icdb
        .request_component(&ComponentRequest::by_implementation("MUX").attribute("size", "8"))
        .expect("mux");
    let pc = icdb
        .request_component(
            &ComponentRequest::by_component("counter")
                .attribute("size", "8")
                .attribute("type", "synchronous"),
        )
        .expect("pc");
    let control = icdb
        .request_component(&ComponentRequest::from_iif(CONTROL_IIF))
        .expect("control");

    let leaf = |icdb: &Icdb, name: &str, label: &str| {
        SlicingTree::leaf(label, &icdb.instance(name).expect("generated").shape)
    };
    let datapath = |icdb: &Icdb| {
        SlicingTree::stack(
            SlicingTree::stack(
                SlicingTree::beside(leaf(icdb, &reg_a, "reg_a"), leaf(icdb, &reg_b, "reg_b")),
                SlicingTree::beside(leaf(icdb, &mux, "mux"), leaf(icdb, &pc, "pc")),
            ),
            leaf(icdb, &alu, "alu"),
        )
    };
    let left = best_by_aspect(
        &SlicingTree::beside(leaf(&icdb, &control, "control"), datapath(&icdb)),
        1.0,
    )
    .expect("plan");
    let bottom = best_by_aspect(
        &SlicingTree::stack(datapath(&icdb), leaf(&icdb, &control, "control")),
        2.0,
    )
    .expect("plan");
    (left, bottom)
}

/// The control unit used by the Fig. 13 experiment (inline IIF, the
/// §3.2.2 control-logic generation path).
pub const CONTROL_IIF: &str = "
NAME: CONTROL;
INORDER: CLK, RST, OP[3], ZFLAG;
OUTORDER: PC_INC, IR_LOAD, A_LOAD, B_LOAD, ALU_MODE, ALU_SUB, REG_WRITE, MEM_READ, MEM_WRITE, BRANCH;
PIIFVARIABLE: S0, S1, FETCH, DECODE, EXEC, WB;
{
  S0 = (!S0) @(~r CLK) ~a(0/RST);
  S1 = (S1 (+) S0) @(~r CLK) ~a(0/RST);
  FETCH  = !S1 * !S0;
  DECODE = !S1 *  S0;
  EXEC   =  S1 * !S0;
  WB     =  S1 *  S0;
  PC_INC   = FETCH;
  IR_LOAD  = FETCH;
  A_LOAD   = DECODE;
  B_LOAD   = DECODE;
  ALU_MODE = EXEC * OP[2];
  ALU_SUB  = EXEC * !OP[2] * OP[0];
  REG_WRITE = WB * !OP[1];
  MEM_READ  = FETCH + DECODE * OP[1];
  MEM_WRITE = WB * OP[1] * !OP[0];
  BRANCH    = EXEC * OP[1] * OP[0] * ZFLAG;
}";

/// E10 / §4.4 claim: generation time for every builtin implementation.
/// Returns `(implementation, seconds)` rows.
pub fn tab_gentime_data() -> Vec<(String, f64)> {
    let mut icdb = Icdb::new();
    let names: Vec<String> = icdb.library.iter().map(|c| c.name.clone()).collect();
    names
        .into_iter()
        .map(|imp| {
            let start = std::time::Instant::now();
            icdb.request_component(&ComponentRequest::by_implementation(&imp))
                .expect("builtin generates");
            (imp, start.elapsed().as_secs_f64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let rows = fig5_data();
        assert_eq!(rows.len(), 5);
        // Ripple: slowest and smallest (the paper's headline shape).
        assert!(rows[1..].iter().all(|r| r.delay < rows[0].delay));
        assert!(rows[1..].iter().all(|r| r.area > rows[0].area));
        // The fully featured counter is the largest.
        assert!(rows[..4].iter().all(|r| r.area < rows[4].area));
    }

    #[test]
    fn fig10_area_grows_mildly_with_load() {
        let (_target, rows) = fig10_data();
        assert!(rows.iter().all(|(_, _, met)| *met), "all loads reachable");
        let first = rows.first().expect("rows").1;
        let last = rows.last().expect("rows").1;
        assert!(last >= first, "area must not shrink with load");
        assert!(
            last <= first * 1.25,
            "growth stays modest: {first} → {last}"
        );
    }

    #[test]
    fn fig13_bottom_wins_and_aspects_differ() {
        let (left, bottom) = fig13_data();
        assert!(left.aspect_ratio() < bottom.aspect_ratio());
        assert!(bottom.area() <= left.area() * 1.05);
    }
}
