//! Generated component instances: "A component is only a specification.
//! When the users request generation of a component, the design generated
//! by ICDB is called a component instance" (Appendix B §2).

use icdb_estimate::{DelayReport, LoadSpec, ShapeFunction};
use icdb_genus::ConnectionTable;
use icdb_layout::Layout;
use icdb_logic::GateNetlist;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One generated component instance with every piece of information the
/// instance-query commands can return.
///
/// Everything but the name and the layout is the output of one
/// generation and is shared, not copied: a warm install clones `Arc`
/// handles out of the cached [`crate::GenerationPayload`], so instances
/// of one request key point at the same netlist, report, shape and
/// connection table. [`crate::Icdb::resize_for_load`] is the only
/// mutator; it copies the netlist on write and replaces the report, shape
/// and loads of that one instance. Each `Arc<T>` field encodes as `T`, so
/// the snapshot encoding is field-wise exactly as if nothing were shared.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComponentInstance {
    /// Instance name (user-assigned or ICDB-generated), interned so the
    /// instance map, creation order and design lists share one allocation.
    pub name: Arc<str>,
    /// Implementation it was generated from (`COUNTER`), or `"iif"` /
    /// `"cluster"` for inline-IIF and VHDL-cluster requests.
    pub implementation: Arc<str>,
    /// Functions the instance can execute.
    pub functions: Arc<Vec<String>>,
    /// Parameter values used for expansion.
    pub params: Arc<Vec<(String, i64)>>,
    /// The sized, technology-mapped netlist.
    pub netlist: Arc<GateNetlist>,
    /// Output loading assumed for the timing report.
    pub loads: Arc<LoadSpec>,
    /// Timing report (CW / WD / SD).
    pub report: Arc<DelayReport>,
    /// Shape function (strip-count sweep).
    pub shape: Arc<ShapeFunction>,
    /// Whether the requested constraints were met.
    pub met: bool,
    /// Connection information inherited from the implementation.
    pub connection: Arc<ConnectionTable>,
    /// The most recently generated layout, if any.
    pub layout: Option<Layout>,
}

impl ComponentInstance {
    /// Minimum-area estimate over the shape function (µm²).
    pub fn area(&self) -> f64 {
        self.shape.best_area().map(|a| a.area()).unwrap_or(0.0)
    }

    /// The paper's area/delay pair for trade-off plots: (delay of the
    /// worst output in ns, area in µm²).
    pub fn tradeoff_point(&self) -> (f64, f64) {
        (self.report.worst_output_delay(), self.area())
    }
}
