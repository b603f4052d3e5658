//! # icdb-core — the Intelligent Component Database server
//!
//! The system of Chen & Gajski's "An Intelligent Component Database for
//! Behavioral Synthesis" (DAC 1990): a **component server** that delivers
//! components to synthesis tools when given a set of attributes and
//! constraints, replacing fixed component libraries and paper catalogs.
//!
//! An [`Icdb`] owns the two subsystems of the paper's Fig. 2:
//!
//! * the **knowledge base** — a [`GenericComponentLibrary`] of
//!   parameterized IIF implementations (the §3.1 counter, the appendix
//!   adder/addsub/shifter, registers, ALU, comparator, …) with their GENUS
//!   function tags and connection tables, backed by the embedded
//!   relational store and design-data file store of `icdb-store`;
//! * the **component server** — [`Icdb::request_component`] runs the
//!   embedded generation path of Fig. 8 (IIF expansion → logic synthesis →
//!   technology mapping → transistor sizing → delay/shape estimation →
//!   optional strip layout), stores the resulting [`ComponentInstance`],
//!   and answers every query of §3.3 (delay strings, shape functions,
//!   connection info, VHDL views, CIF layouts).
//!
//! The C `ICDB("command:…; key:%s; out:?s", …)` interface is reproduced by
//! [`Icdb::execute`] over `icdb-cql` argument slots; all Appendix-B
//! commands (component/function/instance queries, component requests from
//! library specs, inline IIF or VHDL clusters, and component-list
//! management) are implemented.
//!
//! Generation is memoized by the three-layer, content-addressed
//! [`cache`] (canonical [`RequestKey`]s → expanded modules → synthesized
//! netlists → complete payloads), so repeat requests are ~free;
//! [`Icdb::request_components_batch`] fans cold requests out across scoped
//! threads sharing that cache, and [`Icdb::cache_stats`] / the
//! `cache_query` CQL command / the relational `cache_stats` table expose
//! its hit/miss/eviction counters.
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use icdb_core::{ComponentRequest, Icdb};
//!
//! let mut icdb = Icdb::new();
//! // The paper's request: a five-bit up counter (§3.2.2).
//! let request = ComponentRequest::by_component("counter")
//!     .attribute("size", "5")
//!     .clock_width(30.0);
//! let counter_ins = icdb.request_component(&request)?;
//! let delay = icdb.delay_string(&counter_ins)?;
//! assert!(delay.contains("CW "));
//! let shape = icdb.shape_string(&counter_ins)?;
//! assert!(shape.contains("Alternative=1"));
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

mod builtin;
pub mod cache;
pub mod corpus;
mod cql;
mod designs;
mod error;
mod events;
pub mod explore;
mod instance;
mod knowledge;
mod library;
mod obs;
mod persist;
mod server;
pub mod service;
mod space;
mod spec;
mod tools;

pub use cache::{CacheStats, GenCache, GenerationPayload, LayerStats, RequestKey};
pub use corpus::CorpusStats;
pub use cql::command_text_is_read_only;
pub use designs::DesignManager;
pub use error::IcdbError;
pub use events::{Applied, MutationEvent};
pub use explore::{ExploreSpec, SweepStats};
pub use icdb_explore::{DesignPoint, ExplorationReport, Explorer, Objective};
pub use instance::ComponentInstance;
pub use library::{ComponentImpl, GenericComponentLibrary, ParamSpec};
pub use persist::PersistStats;
pub use service::{IcdbService, ReplSnapshot, Session};
pub use space::NsId;
pub use spec::{ComponentRequest, Constraints, Source, TargetLevel};
pub use tools::{GeneratorInfo, ToolManager, ToolStep};

use icdb_store::{Database, FileStore, Value};
use std::sync::Arc;

/// The Intelligent Component Database: knowledge server + component server.
///
/// Per-caller state (generated instances, naming counters, designs) lives
/// in [`NsId`]-addressed namespaces; the classic single-caller methods all
/// operate on [`NsId::ROOT`], while the `*_in` variants and the concurrent
/// [`IcdbService`] address explicit session namespaces over the same
/// shared knowledge base.
#[derive(Debug)]
pub struct Icdb {
    /// The generic component library (knowledge base).
    pub library: GenericComponentLibrary,
    /// The characterized basic-cell library used by generation.
    pub cells: icdb_cells::Library,
    /// The relational metadata store (INGRES stand-in).
    pub db: Database,
    /// The design-data file store (UNIX file system stand-in).
    pub files: FileStore,
    /// The tool manager: registered component generators (§4.2).
    pub tools: ToolManager,
    pub(crate) cache: Arc<GenCache>,
    /// The durable exploration corpus (shared with epoch snapshots, so
    /// lock-free sweeps record into — and read from — the live corpus).
    pub(crate) corpus: Arc<corpus::CorpusState>,
    pub(crate) spaces: space::Spaces,
    /// Attached mutation journal, when the server was opened with a data
    /// directory ([`Icdb::open`]).
    pub(crate) journal: Option<persist::Journal>,
    /// Acquired (non-builtin) knowledge, kept as replayable source text so
    /// snapshots can rebuild the library.
    pub(crate) acquired: Vec<persist::AcquiredKnowledge>,
    /// When `Some`, commits buffer their WAL durability tickets here
    /// instead of waiting inline — the service's deferred-durability mode
    /// (fsync waits happen outside its locks; see `Icdb::begin_deferred`).
    pub(crate) deferred_waits: Option<Vec<persist::WalTicket>>,
    /// When `Some`, this server is a replication follower tailing the
    /// named upstream: direct mutations are refused (`NotPrimary`), all
    /// writes arrive as replicated events, and sessions open ephemeral
    /// namespaces. Cleared by promotion ([`Icdb::promote_journal`]).
    pub(crate) repl: Option<persist::ReplState>,
}

// Manual impl: a clone gets its own *empty* generation cache rather than
// sharing the original's. Two clones may mutate their libraries
// independently, and library version counters are only meaningful within
// one library's history — sharing entries across divergent libraries could
// serve stale payloads. The journal (an exclusive file handle) stays with
// the original: a clone is an in-memory fork, not a second writer racing
// on the same WAL.
impl Clone for Icdb {
    fn clone(&self) -> Icdb {
        Icdb {
            library: self.library.clone(),
            cells: self.cells.clone(),
            db: self.db.clone(),
            files: self.files.clone(),
            tools: self.tools.clone(),
            cache: Arc::new(GenCache::with_capacity(self.cache.stats().result.capacity)),
            corpus: Arc::new(self.corpus.deep_clone()),
            spaces: self.spaces.clone(),
            journal: None,
            acquired: self.acquired.clone(),
            deferred_waits: None,
            repl: None,
        }
    }
}

impl Icdb {
    /// A server preloaded with the builtin component implementations and
    /// the standard cell library.
    pub fn new() -> Icdb {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE components (name TEXT, type TEXT, functions TEXT, description TEXT)",
        )
        .expect("fresh database");
        db.execute(
            "CREATE TABLE instances (name TEXT, implementation TEXT, gates INT, \
             area REAL, clock_width REAL, met INT)",
        )
        .expect("fresh database");
        db.execute(
            "CREATE TABLE cache_stats (layer TEXT, hits INT, misses INT, \
             evictions INT, entries INT, capacity INT)",
        )
        .expect("fresh database");
        db.execute(
            "CREATE TABLE exploration (candidate TEXT, implementation TEXT, width INT, \
             strategy TEXT, area REAL, delay REAL, power REAL, gates INT, met INT, \
             pareto INT, winner INT)",
        )
        .expect("fresh database");
        let library = GenericComponentLibrary::standard();
        for imp in library.iter() {
            db.insert(
                "components",
                vec![
                    icdb_store::Value::Text(imp.name.clone()),
                    icdb_store::Value::Text(imp.component_type.clone()),
                    icdb_store::Value::Text(imp.functions.join(" ")),
                    icdb_store::Value::Text(imp.description.clone()),
                ],
            )
            .expect("fresh table");
        }
        Icdb {
            library,
            cells: icdb_cells::Library::standard(),
            db,
            files: FileStore::new(),
            tools: ToolManager::standard(),
            cache: Arc::new(GenCache::default()),
            corpus: Arc::new(corpus::CorpusState::default()),
            spaces: space::Spaces::new(),
            journal: None,
            acquired: Vec::new(),
            deferred_waits: None,
            repl: None,
        }
    }

    /// A read-only *epoch snapshot* of the knowledge side of this server:
    /// cloned library, cell library and tool registry, the **shared**
    /// generation cache (the cache is internally synchronized and its
    /// keys embed the knowledge versions, so warm entries stay valid
    /// exactly as long as the snapshot itself), and fresh empty
    /// namespaces/stores. The service hands an `Arc` of this to warm
    /// prepares, exploration sweeps and knowledge-only CQL queries so
    /// they run without taking *any* service lock; a snapshot is stale —
    /// and gets rebuilt — the moment knowledge acquisition bumps the
    /// library or cell versions.
    ///
    /// Only knowledge/cache state is meaningful here: instance data,
    /// the relational catalog and the file store are empty, so the
    /// snapshot must never serve instance queries.
    pub(crate) fn read_snapshot(&self) -> Icdb {
        Icdb {
            library: self.library.clone(),
            cells: self.cells.clone(),
            db: Database::new(),
            files: FileStore::new(),
            tools: self.tools.clone(),
            cache: Arc::clone(&self.cache),
            corpus: Arc::clone(&self.corpus),
            spaces: space::Spaces::new(),
            journal: None,
            acquired: Vec::new(),
            deferred_waits: None,
            repl: None,
        }
    }

    /// Opens a fresh session namespace: an isolated instance list, naming
    /// counter and design manager over this server's shared knowledge base.
    /// Journaled ([`MutationEvent::CreateNamespace`]): ids are assigned in
    /// journal order, so recovery reproduces them and a reconnecting
    /// client can re-attach to its pre-crash namespace.
    pub fn create_namespace(&mut self) -> NsId {
        // Followers allocate from the ephemeral range instead: journaling
        // a local CreateNamespace would desynchronize the namespace-id
        // counter from the primary's replicated events, and a follower
        // session is read-only scratch state anyway.
        if self.repl.is_some() {
            return self.spaces.create_ephemeral();
        }
        // Degraded tolerance: a faulted journal refuses the enqueue, but
        // sessions must keep opening — reads still serve. The in-memory
        // apply proceeds either way; this cannot desynchronize replayed
        // ids, because a faulted log journals nothing until the
        // re-arming checkpoint snapshots the full state (this namespace
        // and the advanced id counter included).
        let event = MutationEvent::CreateNamespace;
        let ticket = self.journal_submit(&event).ok().flatten();
        let ns = self
            .apply(&event)
            .expect("namespace creation is infallible in memory")
            .into_namespace()
            .expect("CreateNamespace applies to a namespace");
        // A durability failure here degrades the server but must not
        // panic: the session keeps its (memory-only) namespace, which a
        // recovery that never re-armed simply forgets — it acknowledged
        // no commits.
        let _ = self.settle_ticket(ticket);
        ns
    }

    /// Closes a session namespace, deleting every instance it still holds
    /// (design data and relational rows included); returns how many
    /// instances were deleted. Dropping [`NsId::ROOT`] is a no-op.
    pub fn drop_namespace(&mut self, ns: NsId) -> usize {
        // As `create_namespace`: journal failures degrade, never panic.
        // Ephemeral (follower-session) namespaces were never journaled,
        // so their drop isn't either — even after a promotion.
        // A follower never drops a *replicated* namespace locally (e.g. a
        // follower-side session detaching from one): the authoritative
        // drop arrives through the replication stream, and removing the
        // namespace early would make later replicated events diverge.
        if self.repl.is_some() && !ns.is_ephemeral() {
            return 0;
        }
        let event = MutationEvent::DropNamespace { ns };
        let ticket = if ns.is_ephemeral() {
            None
        } else {
            self.journal_submit(&event).ok().flatten()
        };
        let n = self
            .apply(&event)
            .expect("namespace drop is infallible in memory")
            .into_deleted()
            .expect("DropNamespace applies to a deletion count");
        let _ = self.settle_ticket(ticket);
        n
    }

    /// The apply-side of [`Icdb::drop_namespace`] (shared with recovery
    /// replay).
    pub(crate) fn apply_drop_namespace(&mut self, ns: NsId) -> usize {
        let Some(space) = self.spaces.remove(ns) else {
            return 0;
        };
        // The namespace is already detached; clean its design data out of
        // the shared stores in one pass each. Every view file under its
        // directory belongs to one of its instances.
        self.delete_instance_rows(ns, |name| space.instances.contains_key(name));
        self.files
            .remove_prefix(&space::Namespace::file_dir(ns), |_| true);
        space.instance_order.len()
    }

    /// Ids of all live namespaces (root included), in ascending order.
    pub fn namespace_ids(&self) -> Vec<NsId> {
        self.spaces.ids()
    }

    /// Number of live namespaces, root included.
    pub fn namespace_count(&self) -> usize {
        self.spaces.len()
    }

    /// The namespace's commit counter: how many namespace-scoped
    /// mutations have successfully applied in `ns` over its lifetime.
    /// Echoed in mutation acks (`OK <n> commit:<seq>`) so a client can
    /// detect whether an ambiguously-dropped commit landed before
    /// retrying it.
    ///
    /// # Errors
    /// [`IcdbError::NotFound`] for a dead namespace.
    pub fn commit_seq_in(&self, ns: NsId) -> Result<u64, IcdbError> {
        Ok(self.spaces.get(ns)?.commits)
    }

    /// Snapshot of the generation-cache statistics (per-layer hits, misses,
    /// evictions, entries and capacity).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Rebounds every generation-cache layer to `capacity` entries,
    /// evicting least-recently-used entries when shrinking. A capacity of
    /// zero disables caching.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Drops every generation-cache entry (statistics are kept), forcing
    /// the next requests down the cold path.
    pub fn clear_generation_cache(&mut self) {
        self.cache.clear();
    }

    /// Refreshes the relational `cache_stats` table from the live counters,
    /// so the statistics are queryable through the store layer
    /// (`SELECT hits FROM cache_stats WHERE layer = 'result'`).
    ///
    /// # Errors
    /// Propagates store errors (the table exists on every fresh server).
    pub fn publish_cache_stats(&mut self) -> Result<(), IcdbError> {
        let stats = self.cache.stats();
        // The live counters are volatile (a recovered server restarts them
        // cold), so the journal records the computed *rows*: replay
        // restores the table exactly as the last publish left it.
        let rows = [
            ("flat", stats.flat),
            ("netlist", stats.netlist),
            ("result", stats.result),
        ]
        .into_iter()
        .map(|(layer, s)| {
            vec![
                Value::Text(layer.to_string()),
                Value::Int(s.hits as i64),
                Value::Int(s.misses as i64),
                Value::Int(s.evictions as i64),
                Value::Int(s.entries as i64),
                Value::Int(s.capacity as i64),
            ]
        })
        .collect();
        self.commit(&MutationEvent::PublishTable {
            table: "cache_stats".to_string(),
            rows,
        })?;
        Ok(())
    }
}

impl Default for Icdb {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icdb_cql::CqlArg;

    #[test]
    fn new_server_has_catalog_rows() {
        let icdb = Icdb::new();
        let rows = icdb.db.query("SELECT name FROM components").unwrap();
        assert!(rows.len() >= 18);
    }

    #[test]
    fn generate_and_query_counter() {
        let mut icdb = Icdb::new();
        let req = ComponentRequest::by_component("counter")
            .attribute("size", "5")
            .attribute("up_or_down", "3")
            .attribute("enable", "1")
            .attribute("load", "1");
        let name = icdb.request_component(&req).unwrap();
        let inst = icdb.instance(&name).unwrap();
        assert!(
            inst.netlist.gates.len() > 20,
            "{} gates",
            inst.netlist.gates.len()
        );
        assert!(inst.report.clock_width > 0.0);
        let delay = icdb.delay_string(&name).unwrap();
        assert!(delay.contains("CW "), "{delay}");
        assert!(delay.contains("WD Q[4]"), "{delay}");
        assert!(delay.contains("SD DWUP"), "{delay}");
        let shape = icdb.shape_string(&name).unwrap();
        assert!(shape.contains("Alternative=1 width="), "{shape}");
        let connect = icdb.connect_string(&name).unwrap();
        assert!(connect.contains("## function INC"), "{connect}");
        assert!(connect.contains("** DWUP 0"), "{connect}");
    }

    #[test]
    fn request_via_cql_round_trip() {
        let mut icdb = Icdb::new();
        // The §3.2.2 query, with the delay-constraint text as a %s input.
        let mut args = vec![
            CqlArg::InStr("rdelay Q[4] 10\noload Q[4] 10".into()),
            CqlArg::OutStr(None),
        ];
        icdb.execute(
            "command:request_component;
             component_name:counter;
             attribute:(size:5);
             function:(INC);
             clock_width:30;
             comb_delay:%s;
             set_up_time:30;
             generated_component:?s",
            &mut args,
        )
        .unwrap();
        let CqlArg::OutStr(Some(name)) = &args[1] else {
            panic!("no instance name")
        };
        // Instance query for delay + shape (the §3.3 query).
        let mut args2 = vec![
            CqlArg::InStr(name.clone()),
            CqlArg::OutStr(None),
            CqlArg::OutStr(None),
        ];
        icdb.execute(
            "command:instance_query; generated_component:%s; delay:?s; shape_function:?s",
            &mut args2,
        )
        .unwrap();
        let CqlArg::OutStr(Some(delay)) = &args2[1] else {
            panic!()
        };
        assert!(delay.contains("CW "));
        let CqlArg::OutStr(Some(shape)) = &args2[2] else {
            panic!()
        };
        assert!(shape.contains("Alternative="));
    }

    #[test]
    fn component_and_function_queries() {
        let mut icdb = Icdb::new();
        let mut args = vec![CqlArg::OutStrList(None)];
        icdb.execute(
            "command:component_query; component:counter; function:(INC);
             attribute:(size:5); ICDB_components:?s[]",
            &mut args,
        )
        .unwrap();
        let CqlArg::OutStrList(Some(counters)) = &args[0] else {
            panic!()
        };
        assert!(counters.contains(&"COUNTER".to_string()), "{counters:?}");

        let mut args = vec![CqlArg::OutStrList(None)];
        icdb.execute(
            "command:function_query; function:(ADD,SUB); implementation:?s[]",
            &mut args,
        )
        .unwrap();
        let CqlArg::OutStrList(Some(impls)) = &args[0] else {
            panic!()
        };
        assert!(impls.contains(&"ADDSUB".to_string()), "{impls:?}");
        assert!(impls.contains(&"ALU".to_string()), "{impls:?}");
        assert!(
            !impls.contains(&"ADDER".to_string()),
            "ADD∧SUB excludes plain adder"
        );
    }

    #[test]
    fn repeat_requests_hit_the_generation_cache() {
        let mut icdb = Icdb::new();
        let req = ComponentRequest::by_component("counter").attribute("size", "4");
        let first = icdb.request_component(&req).unwrap();
        let second = icdb.request_component(&req).unwrap();
        assert_ne!(first, second);
        let stats = icdb.cache_stats();
        assert_eq!(stats.result.misses, 1);
        assert_eq!(stats.result.hits, 1);
        assert_eq!(
            icdb.delay_string(&first).unwrap(),
            icdb.delay_string(&second).unwrap()
        );
        // Equivalent phrasings canonicalize onto the same entry.
        let req2 = ComponentRequest::by_implementation("COUNTER").attribute("size", "4");
        icdb.request_component(&req2).unwrap();
        assert_eq!(icdb.cache_stats().result.hits, 2);
    }

    #[test]
    fn knowledge_acquisition_invalidates_cache_entries() {
        let mut icdb = Icdb::new();
        let req = ComponentRequest::by_implementation("ADDER").attribute("size", "4");
        icdb.request_component(&req).unwrap();
        assert_eq!(icdb.cache_stats().result.misses, 1);
        // Inserting an implementation bumps the library version, so the
        // old entry's key can no longer be produced: the repeat is a miss,
        // never a stale hit.
        icdb.insert_implementation(
            "NAME: TINY; INORDER: A, B; OUTORDER: O; { O = A * B; }",
            "Logic_unit",
            &["AND"],
            &[],
            None,
            "test",
        )
        .unwrap();
        icdb.request_component(&req).unwrap();
        let stats = icdb.cache_stats();
        assert_eq!(stats.result.hits, 0);
        assert_eq!(stats.result.misses, 2);
    }

    #[test]
    fn batch_with_zero_workers_is_clamped_to_sequential() {
        let requests = vec![
            ComponentRequest::by_implementation("ADDER").attribute("size", "3"),
            ComponentRequest::by_component("counter").attribute("size", "3"),
        ];
        let mut seq = Icdb::new();
        let seq_names = seq.request_components_batch(&requests, 1).unwrap();
        // workers == 0 must not spawn a zero-worker scope (which would
        // leave every result slot unfilled and panic): it runs
        // sequentially and produces identical instances.
        let mut zero = Icdb::new();
        let zero_names = zero.request_components_batch(&requests, 0).unwrap();
        assert_eq!(seq_names, zero_names);
        for name in &seq_names {
            assert_eq!(
                seq.delay_string(name).unwrap(),
                zero.delay_string(name).unwrap()
            );
        }
    }

    #[test]
    fn design_transactions_clean_up() {
        let mut icdb = Icdb::new();
        icdb.start_design("cpu").unwrap();
        icdb.start_transaction("cpu").unwrap();
        let keep = icdb
            .request_component(&ComponentRequest::by_implementation("ADDER"))
            .unwrap();
        let drop = icdb
            .request_component(&ComponentRequest::by_implementation("REGISTER"))
            .unwrap();
        icdb.put_in_component_list("cpu", &keep).unwrap();
        let removed = icdb.end_transaction("cpu").unwrap();
        assert_eq!(removed, 1);
        assert!(icdb.instance(&keep).is_ok());
        assert!(icdb.instance(&drop).is_err());
        let removed = icdb.end_design("cpu").unwrap();
        assert_eq!(removed, 1);
        assert!(icdb.instance(&keep).is_err());
    }
}
