//! Per-session design namespaces: the isolation unit of the concurrent
//! [`crate::service::IcdbService`].
//!
//! The paper's ICDB serves one synthesis tool at a time, so a single
//! instance list suffices. To serve many concurrent clients over *one*
//! shared knowledge base, the per-caller state (generated instances, the
//! auto-naming counter, open designs/transactions) is split out into a
//! [`Namespace`] addressed by a [`NsId`]. The root namespace ([`NsId::ROOT`])
//! always exists and backs the classic single-caller [`crate::Icdb`] API
//! unchanged; sessions opened through the service get fresh namespaces and
//! therefore isolated instance lists, independent `impl$N` naming counters
//! and independent design transactions — while the knowledge base, cell
//! library, generation cache and relational catalog stay shared.

use crate::designs::DesignManager;
use crate::error::IcdbError;
use crate::instance::ComponentInstance;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of a design namespace (session). `NsId::ROOT` is the
/// namespace the classic single-caller API operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NsId(pub(crate) u64);

/// First id of the *ephemeral* namespace range. Replication followers
/// open their sessions up here so the ids can never collide with the
/// primary's journaled namespaces (whose `next` counter the follower must
/// replay verbatim); ephemeral namespaces are never journaled and never
/// survive a restart.
pub(crate) const EPHEMERAL_NS_BASE: u64 = 1 << 40;

impl NsId {
    /// The always-present root namespace.
    pub const ROOT: NsId = NsId(0);

    /// The raw numeric id (stable for the lifetime of the namespace).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Whether this namespace lives in the ephemeral (never-journaled)
    /// range a replication follower allocates its sessions from.
    pub(crate) fn is_ephemeral(self) -> bool {
        self.0 >= EPHEMERAL_NS_BASE
    }

    /// Builds an id from its raw value (e.g. parsed off the wire for a
    /// session re-attach after a reconnect). Only useful when such a
    /// namespace is live — lookups with a dead id report `NotFound`.
    pub fn from_raw(raw: u64) -> NsId {
        NsId(raw)
    }
}

impl fmt::Display for NsId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ns{}", self.0)
    }
}

/// Number of namespace shards the concurrent service spreads write
/// serialization across. Namespaces hash onto shards by raw id; two
/// sessions only contend on the same shard lock when their ids collide
/// modulo this count.
pub(crate) const SHARD_COUNT: usize = 16;

impl NsId {
    /// The shard this namespace serializes its writes through.
    pub(crate) fn shard(self) -> usize {
        (self.0 % SHARD_COUNT as u64) as usize
    }
}

/// The per-namespace write-serialization locks of the concurrent service.
///
/// A shard lock is held across *enqueue → apply → durability wait* for a
/// namespace's mutations, so commits inside one namespace stay strictly
/// ordered (acknowledgements arrive in apply order) while sessions on
/// different shards overlap their fsync waits — one WAL group flush then
/// acknowledges writers from many shards at once. Shard locks order
/// strictly *before* the service's inner `RwLock`, never the reverse.
#[derive(Debug)]
pub(crate) struct ShardSet {
    locks: Vec<std::sync::Mutex<()>>,
}

impl ShardSet {
    pub(crate) fn new() -> ShardSet {
        ShardSet {
            locks: (0..SHARD_COUNT)
                .map(|_| std::sync::Mutex::new(()))
                .collect(),
        }
    }

    /// Locks the shard owning `ns`. A poisoned shard lock is recovered:
    /// the `()` payload carries no invariant — namespace consistency is
    /// guarded by the inner lock and the event-sourced commit pipeline.
    pub(crate) fn lock(&self, ns: NsId) -> std::sync::MutexGuard<'_, ()> {
        self.locks[ns.shard()]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// One namespace's private state: everything a single caller of the paper's
/// API mutates, and nothing of the shared knowledge base.
#[derive(Debug, Clone, Default)]
pub(crate) struct Namespace {
    pub(crate) instances: HashMap<Arc<str>, ComponentInstance>,
    pub(crate) instance_order: Vec<Arc<str>>,
    pub(crate) counter: u64,
    pub(crate) designs: DesignManager,
    /// Count of namespace-scoped mutations successfully applied here —
    /// the `commit_seq` echoed in mutation acks. Deterministic under
    /// replay (events apply in journal order per namespace), so a
    /// reconnecting client can compare its last-seen value against the
    /// server's to decide whether an ambiguously-dropped commit landed.
    pub(crate) commits: u64,
}

impl Namespace {
    /// Design-data path of one instance view inside this namespace
    /// (`instances/<name>.<suffix>` for the root namespace,
    /// `s<ns>/instances/<name>.<suffix>` for sessions, so two sessions'
    /// identically named instances never collide in the shared file store).
    pub(crate) fn file_path(ns: NsId, name: &str, suffix: &str) -> String {
        if ns == NsId::ROOT {
            format!("instances/{name}.{suffix}")
        } else {
            format!("s{}/instances/{name}.{suffix}", ns.0)
        }
    }

    /// Directory holding every view file of this namespace: the prefix of
    /// each [`Namespace::file_path`].
    pub(crate) fn file_dir(ns: NsId) -> String {
        if ns == NsId::ROOT {
            "instances/".to_string()
        } else {
            format!("s{}/instances/", ns.0)
        }
    }

    /// Name under which an instance appears in the shared relational
    /// `instances` table (scoped for sessions, bare for the root).
    pub(crate) fn db_name(ns: NsId, name: &str) -> String {
        if ns == NsId::ROOT {
            name.to_string()
        } else {
            format!("s{}:{name}", ns.0)
        }
    }
}

/// The namespace table of an [`crate::Icdb`]: root plus any open sessions.
#[derive(Debug, Clone)]
pub(crate) struct Spaces {
    map: HashMap<u64, Namespace>,
    next: u64,
    /// Next id in the ephemeral (follower-session) range. Separate from
    /// `next` so ephemeral allocations never disturb the journaled
    /// counter replicated from a primary.
    next_ephemeral: u64,
}

impl Spaces {
    pub(crate) fn new() -> Spaces {
        let mut map = HashMap::new();
        map.insert(NsId::ROOT.0, Namespace::default());
        Spaces {
            map,
            next: 1,
            next_ephemeral: EPHEMERAL_NS_BASE,
        }
    }

    /// Opens a fresh, empty namespace and returns its id.
    pub(crate) fn create(&mut self) -> NsId {
        let id = NsId(self.next);
        self.next += 1;
        self.map.insert(id.0, Namespace::default());
        id
    }

    /// Opens a fresh namespace in the ephemeral range (follower sessions).
    /// Does not touch the journaled `next` counter, so replicated
    /// `CreateNamespace` events keep assigning exactly the primary's ids.
    pub(crate) fn create_ephemeral(&mut self) -> NsId {
        let id = NsId(self.next_ephemeral);
        self.next_ephemeral += 1;
        self.map.insert(id.0, Namespace::default());
        id
    }

    /// Removes a namespace, returning its state for cleanup. The root
    /// namespace cannot be removed.
    pub(crate) fn remove(&mut self, ns: NsId) -> Option<Namespace> {
        if ns == NsId::ROOT {
            return None;
        }
        self.map.remove(&ns.0)
    }

    pub(crate) fn get(&self, ns: NsId) -> Result<&Namespace, IcdbError> {
        self.map
            .get(&ns.0)
            .ok_or_else(|| IcdbError::NotFound(format!("namespace `{ns}`")))
    }

    pub(crate) fn get_mut(&mut self, ns: NsId) -> Result<&mut Namespace, IcdbError> {
        self.map
            .get_mut(&ns.0)
            .ok_or_else(|| IcdbError::NotFound(format!("namespace `{ns}`")))
    }

    /// The root namespace (infallible: it always exists).
    pub(crate) fn root(&self) -> &Namespace {
        self.map.get(&NsId::ROOT.0).expect("root namespace exists")
    }

    /// Ids of all live namespaces, root included.
    pub(crate) fn ids(&self) -> Vec<NsId> {
        let mut ids: Vec<NsId> = self.map.keys().map(|&k| NsId(k)).collect();
        ids.sort();
        ids
    }

    /// Number of live namespaces (root included).
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// All namespaces in ascending-id order (snapshot capture).
    pub(crate) fn iter_ordered(&self) -> Vec<(NsId, &Namespace)> {
        let mut v: Vec<(NsId, &Namespace)> =
            self.map.iter().map(|(&k, ns)| (NsId(k), ns)).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }

    /// The next namespace id this table would hand out (snapshot capture:
    /// ids must never be reused across a restart, or a recovered session
    /// could alias a new one).
    pub(crate) fn next_id(&self) -> u64 {
        self.next
    }

    /// Rebuilds the table from snapshot parts, guaranteeing the root
    /// namespace exists and `next` stays ahead of every live journaled id.
    /// (Ephemeral ids are excluded from the floor: they restart at the
    /// base of their range and must never drag `next` up into it.)
    pub(crate) fn from_parts(map: HashMap<u64, Namespace>, next: u64) -> Spaces {
        let mut map = map;
        map.entry(NsId::ROOT.0).or_default();
        let floor = map
            .keys()
            .filter(|&&k| k < EPHEMERAL_NS_BASE)
            .max()
            .map(|m| m + 1)
            .unwrap_or(1);
        Spaces {
            map,
            next: next.max(floor),
            next_ephemeral: EPHEMERAL_NS_BASE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_always_present_and_unremovable() {
        let mut spaces = Spaces::new();
        assert!(spaces.get(NsId::ROOT).is_ok());
        assert!(spaces.remove(NsId::ROOT).is_none());
        assert_eq!(spaces.len(), 1);
    }

    #[test]
    fn created_namespaces_are_distinct_and_removable() {
        let mut spaces = Spaces::new();
        let a = spaces.create();
        let b = spaces.create();
        assert_ne!(a, b);
        assert_eq!(spaces.len(), 3);
        assert!(spaces.remove(a).is_some());
        assert!(spaces.get(a).is_err());
        assert!(spaces.get(b).is_ok());
        // Ids are never reused, so a stale session id cannot alias a new one.
        let c = spaces.create();
        assert_ne!(c, a);
    }

    #[test]
    fn session_paths_and_db_names_are_scoped() {
        assert_eq!(
            Namespace::file_path(NsId::ROOT, "counter$1", "cif"),
            "instances/counter$1.cif"
        );
        assert_eq!(
            Namespace::file_path(NsId(7), "counter$1", "cif"),
            "s7/instances/counter$1.cif"
        );
        for ns in [NsId::ROOT, NsId(7)] {
            assert_eq!(
                Namespace::file_path(ns, "c$1", "cif"),
                format!("{}c$1.cif", Namespace::file_dir(ns))
            );
        }
        assert_eq!(Namespace::db_name(NsId::ROOT, "x"), "x");
        assert_eq!(Namespace::db_name(NsId(7), "x"), "s7:x");
    }

    #[test]
    fn shards_partition_namespaces_by_raw_id() {
        assert_eq!(NsId(0).shard(), 0);
        assert_eq!(NsId(5).shard(), 5);
        assert_eq!(NsId(16).shard(), 0);
        assert_eq!(NsId(21).shard(), 5);
        let shards = ShardSet::new();
        // Same-shard ids contend on one lock; the guard must be released
        // before the colliding namespace can take it.
        let g = shards.lock(NsId(3));
        drop(g);
        let _g2 = shards.lock(NsId(19));
    }
}
