//! The mutation journal: every state change of an [`Icdb`] expressed as a
//! first-class, serializable [`MutationEvent`] flowing through a single
//! [`Icdb::apply`] choke point.
//!
//! The classic mutation API (`request_component`, `insert_implementation`,
//! the design ops, …) is re-expressed as *event constructors*: each method
//! builds its event and runs it through [`Icdb::commit`], which journals
//! the event to the write-ahead log (when the server was opened with a
//! data directory — see [`Icdb::open`]) **before** applying it. Recovery
//! replays the same events through the same [`Icdb::apply`] — live
//! execution and crash recovery are literally one code path, which is what
//! makes replay byte-identical:
//!
//! * generation is deterministic given the knowledge base and cell
//!   library, so [`MutationEvent::InstallComponent`] carries only the
//!   [`ComponentRequest`], not the multi-kilobyte pipeline output;
//! * events whose effect depends on *volatile* state (the relational
//!   publishes of live cache counters / exploration reports) carry the
//!   computed rows instead, so replay restores the exact table contents;
//! * events are totally ordered by the journal, so replaying a prefix
//!   reproduces the exact state the server had when that prefix was the
//!   whole history — the invariant the recovery proptests pin down.
//!
//! Failed mutations are journaled too (the enqueue happens first — it *is*
//! a write-ahead log). That is sound because failures are deterministic:
//! replaying a failed event fails identically and changes nothing.
//!
//! Durability is group-committed: [`Icdb::commit`] *enqueues* the event
//! (fixing its replay position) and applies it, and only then waits for
//! the WAL's batch fsync — one fsync acknowledges every event enqueued
//! while the previous one was in flight. The service defers that wait to
//! outside its locks (see `Icdb::begin_deferred`), so writer throughput
//! scales with the number of concurrent sessions.

use crate::cache::GenerationPayload;
use crate::error::IcdbError;
use crate::space::NsId;
use crate::spec::{ComponentRequest, Source, TargetLevel};
use crate::tools::GeneratorInfo;
use crate::Icdb;
use icdb_estimate::LoadSpec;
use icdb_store::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One durable mutation of the component database.
///
/// Everything that takes the service's exclusive lock is one of these;
/// read-only traffic (queries, cache-warm prepares, exploration sweeps)
/// never appears in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MutationEvent {
    /// Knowledge acquisition (§2.2): insert a component implementation
    /// from IIF source. Replay re-parses the source, so the snapshot only
    /// ever stores text.
    AcquireKnowledge {
        /// IIF source text of the implementation.
        iif_source: String,
        /// GENUS component type (`Counter`).
        component_type: String,
        /// Function tags.
        functions: Vec<String>,
        /// Parameter defaults (every IIF parameter needs one).
        param_defaults: Vec<(String, i64)>,
        /// Optional §4.1 connection-table text.
        connection_text: Option<String>,
        /// Catalog description.
        description: String,
    },
    /// Register a component generator with the tool manager (§4.2).
    RegisterGenerator {
        /// The generator definition.
        info: GeneratorInfo,
    },
    /// Generate-and-install a component instance (§3.2.2). Replay re-runs
    /// the deterministic Fig. 8 pipeline (through the generation cache)
    /// and the install, layout included when the request targets one.
    InstallComponent {
        /// Namespace the instance lands in.
        ns: NsId,
        /// The full request.
        request: ComponentRequest,
    },
    /// Generate (or regenerate) an instance layout (§3.3).
    GenerateLayout {
        /// Namespace of the instance.
        ns: NsId,
        /// Instance name.
        instance: String,
        /// 1-based shape alternative, if explicitly chosen.
        alternative: Option<usize>,
        /// Port-position text, if explicitly given.
        port_positions: Option<String>,
    },
    /// Re-estimate an instance under different loads (the Fig. 10 sweep).
    ResizeForLoad {
        /// Namespace of the instance.
        ns: NsId,
        /// Instance name.
        instance: String,
        /// New output loads.
        loads: LoadSpec,
        /// Clock-width target for resizing.
        clock_width: f64,
    },
    /// `start_a_design` (Appendix B §7).
    StartDesign {
        /// Namespace holding the design.
        ns: NsId,
        /// Design name.
        design: String,
    },
    /// `start_a_transaction`.
    StartTransaction {
        /// Namespace holding the design.
        ns: NsId,
        /// Design name.
        design: String,
    },
    /// `put_in_component_list`.
    PutInComponentList {
        /// Namespace holding the design.
        ns: NsId,
        /// Design name.
        design: String,
        /// Instance to protect from end-of-transaction deletion.
        instance: String,
    },
    /// `end_a_transaction` (deletes unprotected instances).
    EndTransaction {
        /// Namespace holding the design.
        ns: NsId,
        /// Design name.
        design: String,
    },
    /// `end_a_design` (deletes the component list).
    EndDesign {
        /// Namespace holding the design.
        ns: NsId,
        /// Design name.
        design: String,
    },
    /// Open a fresh session namespace. Ids are assigned in journal order,
    /// so replay reproduces them exactly.
    CreateNamespace,
    /// Drop a session namespace and its design data.
    DropNamespace {
        /// Namespace to drop (`ROOT` is a no-op).
        ns: NsId,
    },
    /// Replace a relational table's rows wholesale — the journal form of
    /// [`Icdb::publish_cache_stats`] / [`Icdb::publish_exploration`]. The
    /// rows are captured at commit time because their sources (live cache
    /// counters, a sweep report) are not part of durable state.
    PublishTable {
        /// Table to replace (`cache_stats`, `exploration`).
        table: String,
        /// The new rows, in insertion order.
        rows: Vec<Vec<Value>>,
    },
    /// Fold freshly evaluated exploration design points into the durable
    /// corpus (see [`crate::corpus`]). Keys are serialized canonical
    /// [`crate::RequestKey`]s; the points carry the computed metrics
    /// because sweeps read *volatile* cache state — journaling the results
    /// (like [`MutationEvent::PublishTable`]) keeps replay exact without
    /// re-running any generation.
    ///
    /// New variants must append here: the WAL encodes the enum tag by
    /// variant order.
    RecordCorpus {
        /// (serialized request key, evaluated point) pairs, deduplicated
        /// by key.
        points: Vec<(Vec<u8>, icdb_store::corpus::CorpusPoint)>,
    },
}

impl MutationEvent {
    /// Decodes the WAL serialization of an event — the exact bytes the
    /// journal writes and the replication stream ships. The inverse of
    /// the encoding `Journal::submit` uses, exposed so a replication
    /// follower (outside this crate) can decode shipped payloads.
    ///
    /// # Errors
    /// A description of the malformed payload.
    pub fn decode(bytes: &[u8]) -> Result<MutationEvent, String> {
        serde::from_bytes(bytes).map_err(|e| e.to_string())
    }
}

/// What applying a [`MutationEvent`] produced — the union of the classic
/// mutation APIs' return values.
#[derive(Debug, Clone)]
pub enum Applied {
    /// No interesting value (design ops, resize, publishes).
    Unit,
    /// A created name (instance install, knowledge acquisition).
    Name(String),
    /// A created namespace.
    Namespace(NsId),
    /// A generated CIF layout.
    Cif(Arc<str>),
    /// How many instances a deletion removed.
    Deleted(usize),
}

impl Applied {
    /// The created name, if this outcome carries one.
    pub fn into_name(self) -> Option<String> {
        match self {
            Applied::Name(n) => Some(n),
            _ => None,
        }
    }

    /// The created namespace, if this outcome carries one.
    pub fn into_namespace(self) -> Option<NsId> {
        match self {
            Applied::Namespace(ns) => Some(ns),
            _ => None,
        }
    }

    /// The generated CIF, if this outcome carries one.
    pub fn into_cif(self) -> Option<Arc<str>> {
        match self {
            Applied::Cif(c) => Some(c),
            _ => None,
        }
    }

    /// The deletion count, if this outcome carries one.
    pub fn into_deleted(self) -> Option<usize> {
        match self {
            Applied::Deleted(n) => Some(n),
            _ => None,
        }
    }
}

impl MutationEvent {
    /// The namespace whose per-namespace commit counter a successful
    /// apply of this event advances. Global events (knowledge
    /// acquisition, namespace lifecycle, table publishes) return `None`:
    /// they are not session commits, and keeping them out of the counter
    /// is what makes a namespace's sequence identical whether the server
    /// ran solo or interleaved with other sessions.
    fn commit_scope(&self) -> Option<NsId> {
        match self {
            MutationEvent::InstallComponent { ns, .. }
            | MutationEvent::GenerateLayout { ns, .. }
            | MutationEvent::ResizeForLoad { ns, .. }
            | MutationEvent::StartDesign { ns, .. }
            | MutationEvent::StartTransaction { ns, .. }
            | MutationEvent::PutInComponentList { ns, .. }
            | MutationEvent::EndTransaction { ns, .. }
            | MutationEvent::EndDesign { ns, .. } => Some(*ns),
            MutationEvent::AcquireKnowledge { .. }
            | MutationEvent::RegisterGenerator { .. }
            | MutationEvent::CreateNamespace
            | MutationEvent::DropNamespace { .. }
            | MutationEvent::PublishTable { .. }
            | MutationEvent::RecordCorpus { .. } => None,
        }
    }
}

impl Icdb {
    /// Applies one mutation event — the single choke point every state
    /// change of the database runs through, live or during recovery
    /// replay. Does **not** journal; use [`Icdb::commit`] for that.
    ///
    /// # Errors
    /// Propagates the underlying operation's error. Errors are
    /// deterministic: replaying a failed event fails identically and
    /// leaves the same (partial or untouched) state.
    pub fn apply(&mut self, event: &MutationEvent) -> Result<Applied, IcdbError> {
        let applied = self.apply_inner(event)?;
        // Successful namespace-scoped applies advance the namespace's
        // commit counter — replay runs through here too, so the counter
        // recovers to exactly the acknowledged value.
        if let Some(ns) = event.commit_scope() {
            if let Ok(space) = self.spaces.get_mut(ns) {
                space.commits += 1;
            }
        }
        Ok(applied)
    }

    fn apply_inner(&mut self, event: &MutationEvent) -> Result<Applied, IcdbError> {
        match event {
            MutationEvent::AcquireKnowledge {
                iif_source,
                component_type,
                functions,
                param_defaults,
                connection_text,
                description,
            } => self
                .apply_acquire(
                    iif_source,
                    component_type,
                    functions,
                    param_defaults,
                    connection_text.as_deref(),
                    description,
                )
                .map(Applied::Name),
            MutationEvent::RegisterGenerator { info } => {
                self.tools.register(info.clone())?;
                Ok(Applied::Unit)
            }
            MutationEvent::InstallComponent { ns, request } => {
                self.apply_install(*ns, request, None).map(Applied::Name)
            }
            MutationEvent::GenerateLayout {
                ns,
                instance,
                alternative,
                port_positions,
            } => self
                .apply_generate_layout(*ns, instance, *alternative, port_positions.as_deref())
                .map(Applied::Cif),
            MutationEvent::ResizeForLoad {
                ns,
                instance,
                loads,
                clock_width,
            } => {
                self.apply_resize_for_load(*ns, instance, loads, *clock_width)?;
                Ok(Applied::Unit)
            }
            MutationEvent::StartDesign { ns, design } => {
                self.spaces.get_mut(*ns)?.designs.start_design(design)?;
                Ok(Applied::Unit)
            }
            MutationEvent::StartTransaction { ns, design } => {
                self.spaces
                    .get_mut(*ns)?
                    .designs
                    .start_transaction(design)?;
                Ok(Applied::Unit)
            }
            MutationEvent::PutInComponentList {
                ns,
                design,
                instance,
            } => {
                let space = self.spaces.get_mut(*ns)?;
                if !space.instances.contains_key(instance.as_str()) {
                    return Err(IcdbError::NotFound(format!("instance `{instance}`")));
                }
                space.designs.put_in_list(design, instance)?;
                Ok(Applied::Unit)
            }
            MutationEvent::EndTransaction { ns, design } => {
                let doomed = self.spaces.get_mut(*ns)?.designs.end_transaction(design)?;
                self.delete_instances_in(*ns, &doomed);
                Ok(Applied::Deleted(doomed.len()))
            }
            MutationEvent::EndDesign { ns, design } => {
                let doomed = self.spaces.get_mut(*ns)?.designs.end_design(design)?;
                self.delete_instances_in(*ns, &doomed);
                Ok(Applied::Deleted(doomed.len()))
            }
            MutationEvent::CreateNamespace => Ok(Applied::Namespace(self.spaces.create())),
            MutationEvent::DropNamespace { ns } => {
                Ok(Applied::Deleted(self.apply_drop_namespace(*ns)))
            }
            MutationEvent::PublishTable { table, rows } => {
                self.apply_publish_table(table, rows)?;
                Ok(Applied::Unit)
            }
            MutationEvent::RecordCorpus { points } => {
                self.corpus.apply_record(points);
                Ok(Applied::Unit)
            }
        }
    }

    /// Enqueues the event in the write-ahead log, applies it, then waits
    /// for the log's group commit to make it durable — the write-ahead
    /// discipline every classic mutation method runs through. Enqueue
    /// order equals apply order (both happen before this returns control
    /// to any other mutator), which is exactly what makes recovery replay
    /// byte-identical; the fsync wait happens last, so concurrent
    /// committers' records share one batch fsync (`GroupWal`-style
    /// group commit — see `icdb_store::wal::GroupWal`).
    ///
    /// In *deferred* mode (see `Icdb::begin_deferred`) the wait is
    /// skipped and the ticket buffered instead: the service drops its
    /// exclusive lock first and waits outside it, so an fsync never
    /// blocks other sessions' mutations.
    ///
    /// # Errors
    /// A journal enqueue failure surfaces as [`IcdbError::Store`]
    /// *without* applying the event. Apply errors propagate as usual (the
    /// enqueued event replays its failure deterministically — harmless,
    /// and not waited on). A flush failure after a successful apply also
    /// surfaces as [`IcdbError::Store`]: the event took effect in memory
    /// but its durability cannot be acknowledged (the log latches the
    /// error, so no later commit is acknowledged either).
    pub fn commit(&mut self, event: &MutationEvent) -> Result<Applied, IcdbError> {
        let ticket = self.journal_submit(event)?;
        let applied = self.apply(event)?;
        self.settle_ticket(ticket)?;
        Ok(applied)
    }

    /// Enqueues the event in the journal's commit queue, if one is
    /// attached, returning the durability ticket. No-op (and infallible)
    /// for purely in-memory servers. Note `&self`: the group WAL takes
    /// submissions without exclusive access to the server.
    pub(crate) fn journal_submit(
        &self,
        event: &MutationEvent,
    ) -> Result<Option<crate::persist::WalTicket>, IcdbError> {
        match self.journal.as_ref() {
            Some(journal) => journal.submit(event).map(Some).map_err(|e| {
                // A latched fault means the server is degraded: surface
                // the machine-readable read-only refusal rather than a
                // generic store error, so clients and the wire layer can
                // tell "retry after recovery" from "broken request".
                if journal.fault().is_some() {
                    IcdbError::ReadOnly(format!("journal refuses writes: {e}"))
                } else {
                    IcdbError::Store(format!("journal append failed: {e}"))
                }
            }),
            None => Ok(None),
        }
    }

    /// Settles a commit's durability ticket: waits inline, or buffers it
    /// when the server is in deferred mode (the service waits after
    /// dropping its locks — tickets are prefix-closed, so waiting on the
    /// last one acknowledges all).
    pub(crate) fn settle_ticket(
        &mut self,
        ticket: Option<crate::persist::WalTicket>,
    ) -> Result<(), IcdbError> {
        let Some(ticket) = ticket else {
            return Ok(());
        };
        match self.deferred_waits.as_mut() {
            Some(buffer) => {
                buffer.push(ticket);
                Ok(())
            }
            None => ticket.wait(),
        }
    }

    /// Enters deferred-durability mode: subsequent [`Icdb::commit`]s
    /// buffer their WAL tickets instead of waiting inline. The service's
    /// exclusive sections run between `begin_deferred` and
    /// [`Icdb::end_deferred`], then wait on the returned tickets after
    /// every lock is dropped.
    pub(crate) fn begin_deferred(&mut self) {
        self.deferred_waits = Some(Vec::new());
    }

    /// Leaves deferred mode, returning the buffered tickets (possibly
    /// empty — in-memory servers and read-only sections buffer nothing).
    pub(crate) fn end_deferred(&mut self) -> Vec<crate::persist::WalTicket> {
        self.deferred_waits.take().unwrap_or_default()
    }

    /// The install path shared by live commits and replay. `hint` is a
    /// payload the caller already prepared (the service pre-warms it under
    /// the *shared* lock); it is used only when it is provably equivalent
    /// to regenerating right now — same knowledge-base and cell-library
    /// versions, and never for VHDL clusters (whose flattening reads live
    /// instances and must therefore run at the event's position in the
    /// journal order). Replay always regenerates, so both paths produce
    /// identical instances.
    pub(crate) fn apply_install(
        &mut self,
        ns: NsId,
        request: &ComponentRequest,
        hint: Option<&Arc<GenerationPayload>>,
    ) -> Result<String, IcdbError> {
        let payload = match hint {
            Some(p)
                if !matches!(request.source, Source::VhdlNetlist(_))
                    && p.fresh_for(self.library.version(), self.cells.version()) =>
            {
                Arc::clone(p)
            }
            _ => self.prepare_payload(ns, request)?,
        };
        let name = self.install_payload_in(ns, request, &payload)?;
        if request.target == TargetLevel::Layout {
            self.apply_generate_layout(
                ns,
                &name,
                request.alternative,
                request.port_positions.as_deref(),
            )?;
        }
        Ok(name)
    }

    /// Journals and applies an install, threading the caller's pre-warmed
    /// payload hint through (see [`Icdb::apply_install`]).
    pub(crate) fn commit_install(
        &mut self,
        ns: NsId,
        request: &ComponentRequest,
        hint: Option<&Arc<GenerationPayload>>,
    ) -> Result<String, IcdbError> {
        let ticket = if self.journal.is_some() {
            let event = MutationEvent::InstallComponent {
                ns,
                request: request.clone(),
            };
            self.journal_submit(&event)?
        } else {
            None
        };
        let name = self.apply_install(ns, request, hint)?;
        // This path bypasses `apply` (to thread the hint through), so it
        // advances the namespace commit counter itself — replay of the
        // journaled InstallComponent bumps once through `apply`, live
        // execution bumps once here.
        if let Ok(space) = self.spaces.get_mut(ns) {
            space.commits += 1;
        }
        self.settle_ticket(ticket)?;
        Ok(name)
    }

    /// `DELETE FROM table` + re-insert the recorded rows (the publish
    /// events' replay form).
    fn apply_publish_table(&mut self, table: &str, rows: &[Vec<Value>]) -> Result<(), IcdbError> {
        self.db.execute(&format!("DELETE FROM {table}"))?;
        for row in rows {
            self.db.insert(table, row.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Events round-trip through the vendored serde bit-exactly — the
    /// journal's on-disk contract.
    #[test]
    fn events_round_trip_through_serde() {
        let events = vec![
            MutationEvent::AcquireKnowledge {
                iif_source: "NAME: X; INORDER: A; OUTORDER: O; { O = A; }".into(),
                component_type: "Logic_unit".into(),
                functions: vec!["AND".into(), "OR".into()],
                param_defaults: vec![("size".into(), 4)],
                connection_text: Some("## function AND\n** C 1\n".into()),
                description: "desc with 'quotes'\nand newlines".into(),
            },
            MutationEvent::InstallComponent {
                ns: NsId(3),
                request: ComponentRequest::by_component("counter")
                    .attribute("size", "5")
                    .clock_width(30.0)
                    .strategy("fastest")
                    .layout(),
            },
            MutationEvent::GenerateLayout {
                ns: NsId::ROOT,
                instance: "counter$1".into(),
                alternative: Some(3),
                port_positions: Some("CLK left 0".into()),
            },
            MutationEvent::ResizeForLoad {
                ns: NsId::ROOT,
                instance: "adder$1".into(),
                loads: LoadSpec::uniform(12.5),
                clock_width: 40.0,
            },
            MutationEvent::StartDesign {
                ns: NsId(1),
                design: "cpu".into(),
            },
            MutationEvent::CreateNamespace,
            MutationEvent::DropNamespace { ns: NsId(7) },
            MutationEvent::PublishTable {
                table: "exploration".into(),
                rows: vec![vec![
                    Value::Text("COUNTER/4/cheapest".into()),
                    Value::Real(-0.0),
                    Value::Int(i64::MIN),
                    Value::Null,
                ]],
            },
            MutationEvent::RecordCorpus {
                points: vec![(
                    vec![0, 255, 7],
                    icdb_store::corpus::CorpusPoint {
                        implementation: "COUNTER".into(),
                        width: 4,
                        params: vec![("size".into(), 4)],
                        strategy: "cheapest".into(),
                        area: 1234.5,
                        delay: -0.0,
                        power: f64::MIN_POSITIVE,
                        gates: 40,
                        met: true,
                        library_version: 2,
                        cells_version: 1,
                        seq: 9,
                        request: vec![1, 2, 3],
                    },
                )],
            },
        ];
        for event in events {
            let bytes = serde::to_bytes(&event);
            let back: MutationEvent = serde::from_bytes(&bytes).unwrap();
            assert_eq!(back, event);
        }
    }

    /// The classic API and raw `apply` produce identical state: the
    /// classic methods *are* event constructors.
    #[test]
    fn apply_matches_classic_api() {
        let req = ComponentRequest::by_component("counter").attribute("size", "4");
        let mut classic = Icdb::new();
        let classic_name = classic.request_component(&req).unwrap();
        let mut evented = Icdb::new();
        let applied = evented
            .apply(&MutationEvent::InstallComponent {
                ns: NsId::ROOT,
                request: req.clone(),
            })
            .unwrap();
        let event_name = applied.into_name().unwrap();
        assert_eq!(classic_name, event_name);
        assert_eq!(
            classic.delay_string(&classic_name).unwrap(),
            evented.delay_string(&event_name).unwrap()
        );
        assert_eq!(
            classic.vhdl_netlist(&classic_name).unwrap(),
            evented.vhdl_netlist(&event_name).unwrap()
        );
    }

    /// Replaying a failed event is harmless: the failure is deterministic
    /// and state is untouched.
    #[test]
    fn failed_events_replay_deterministically() {
        let mut icdb = Icdb::new();
        let bad = MutationEvent::StartTransaction {
            ns: NsId::ROOT,
            design: "ghost".into(),
        };
        let first = icdb.apply(&bad).unwrap_err();
        let second = icdb.apply(&bad).unwrap_err();
        assert_eq!(first, second);
        assert!(icdb.instance_names().is_empty());
    }
}
