//! CQL command executors: the `ICDB("command:…", vars)` entry point
//! (paper §3.2 and Appendix B). Every command of the paper runs through
//! [`Icdb::execute`]: component / function / instance queries, component
//! requests (from library specs, inline IIF, or VHDL clusters), connection
//! queries and component-list management.
//!
//! Execution is session-aware: [`Icdb::execute_in`] runs a command against
//! an explicit namespace, and [`Icdb::execute_read_in`] runs the read-only
//! command subset through `&self` so the concurrent
//! [`crate::service::IcdbService`] can serve queries under a shared lock
//! (it reports `Ok(false)` when a command needs exclusive access, e.g. an
//! `instance_query` asking for a CIF layout that has not been generated
//! yet).

use crate::error::IcdbError;
use crate::space::NsId;
use crate::spec::{ComponentRequest, Source, TargetLevel};
use crate::Icdb;
use icdb_cql::{bind_outputs, parse_command, Command, CqlArg, CqlValue, Response};

/// Outcome of a shared-lock dispatch attempt.
enum ReadDispatch {
    /// The command was answered read-only.
    Done(Response),
    /// The command mutates (or needs cold generation) — retry with
    /// [`Icdb::execute_in`] under exclusive access. Nothing was written to
    /// the caller's arguments.
    NeedsWrite,
}

/// The read-only CQL command subset the service may attempt under a
/// shared lock — the single source of truth: `command_is_read_only`
/// derives from it, and `dispatch_read_in` must route exactly these names
/// to an executor (enforced by
/// `tests::read_only_list_matches_read_dispatch`).
const READ_ONLY_COMMANDS: &[&str] = &[
    "component_query",
    "function_query",
    "instance_query",
    "connect_component",
    "merge_query",
    "tool_query",
    "cache_query",
    "explore",
    "corpus",
    "persist",
    "metrics",
];

/// Whether a raw CQL command string names a read-only command, without a
/// full parse — used by [`crate::Session::execute`] to decide which lock
/// to try first, and by the network client's retry policy to decide which
/// commands are safe to re-send blindly after a dropped connection.
pub fn command_text_is_read_only(command: &str) -> bool {
    command.split(';').any(|term| {
        term.split_once(':')
            .is_some_and(|(k, v)| k.trim() == "command" && command_is_read_only(v.trim()))
    })
}

/// Whether a raw CQL command string names the `persist` command — the one
/// mutating dispatch that must stay reachable on a degraded server, since
/// `persist checkpoint:1` / `persist clear_fault:1` is how writes re-arm.
pub(crate) fn command_text_is_persist(command: &str) -> bool {
    command.split(';').any(|term| {
        term.split_once(':')
            .is_some_and(|(k, v)| k.trim() == "command" && v.trim() == "persist")
    })
}

/// Whether a CQL command name belongs to the read-only subset the service
/// may attempt under a shared lock. (An `instance_query` for an
/// ungenerated CIF layout still falls back to exclusive access at
/// dispatch time.)
fn command_is_read_only(name: &str) -> bool {
    READ_ONLY_COMMANDS.contains(&name)
}

/// The CQL commands that touch only shared knowledge state — the
/// component library, cell library, generation cache and tool registry —
/// and therefore answer identically against a lock-free epoch snapshot
/// ([`Icdb::read_snapshot`]) as against the live database. Deliberately
/// excluded from the read-only subset above: `instance_query` and
/// `connect_component` (live per-namespace instances) and `persist`
/// (needs the journal, which snapshots do not carry).
const KNOWLEDGE_ONLY_COMMANDS: &[&str] = &[
    "component_query",
    "function_query",
    "merge_query",
    "tool_query",
    "cache_query",
    "explore",
    "corpus",
];

/// Whether a raw CQL command string can be answered entirely from an
/// epoch snapshot of the knowledge base, without any service lock. An
/// `explore` that asks to publish results mutates the relational catalog,
/// so any `publish:` term (even `publish: 0`, conservatively) routes the
/// command back to the locked paths.
pub(crate) fn command_text_is_knowledge_only(command: &str) -> bool {
    let mut named = false;
    for term in command.split(';') {
        let Some((k, v)) = term.split_once(':') else {
            continue;
        };
        match k.trim() {
            "command" => {
                if !KNOWLEDGE_ONLY_COMMANDS.contains(&v.trim()) {
                    return false;
                }
                named = true;
            }
            "publish" => return false,
            _ => {}
        }
    }
    named
}

impl Icdb {
    /// Executes one CQL command, substituting `%` inputs from `args` and
    /// writing `?` outputs back into them — the reproduction of the C
    /// `ICDB()` call.
    ///
    /// # Errors
    /// CQL syntax errors, unknown commands/entities, and generation
    /// failures all surface as [`IcdbError`].
    pub fn execute(&mut self, command: &str, args: &mut [CqlArg]) -> Result<(), IcdbError> {
        self.execute_in(NsId::ROOT, command, args)
    }

    /// Executes one CQL command against an explicit session namespace.
    ///
    /// # Errors
    /// As [`Icdb::execute`]; also fails on unknown namespaces.
    pub fn execute_in(
        &mut self,
        ns: NsId,
        command: &str,
        args: &mut [CqlArg],
    ) -> Result<(), IcdbError> {
        let (cmd, outs) = parse_command(command, args)?;
        let response = self.dispatch_in(ns, &cmd)?;
        bind_outputs(&response, &outs, args)?;
        Ok(())
    }

    /// Attempts one CQL command through `&self` only (the shared-lock fast
    /// path of the service). Returns `Ok(true)` when the command was fully
    /// answered, `Ok(false)` when it requires exclusive access — in that
    /// case the caller's arguments are untouched and the command should be
    /// re-issued through [`Icdb::execute_in`].
    ///
    /// # Errors
    /// As [`Icdb::execute`] for the read-only command subset.
    pub fn execute_read_in(
        &self,
        ns: NsId,
        command: &str,
        args: &mut [CqlArg],
    ) -> Result<bool, IcdbError> {
        let (cmd, outs) = parse_command(command, args)?;
        match self.dispatch_read_in(ns, &cmd)? {
            ReadDispatch::Done(response) => {
                bind_outputs(&response, &outs, args)?;
                Ok(true)
            }
            ReadDispatch::NeedsWrite => Ok(false),
        }
    }

    fn dispatch_in(&mut self, ns: NsId, cmd: &Command) -> Result<Response, IcdbError> {
        match cmd.name.as_str() {
            "component_query" => self.exec_component_query(cmd),
            "function_query" => self.exec_function_query(cmd),
            "request_component" => self.exec_request_component(ns, cmd),
            "instance_query" => {
                // Generate the layout up front if the query wants CIF, then
                // answer through the shared read-only executor.
                if cmd.pending_keys().contains(&"CIF_layout") {
                    let name = instance_query_target(cmd)?;
                    self.cif_layout_in(ns, &name)?;
                }
                match self.exec_instance_query(ns, cmd)? {
                    ReadDispatch::Done(resp) => Ok(resp),
                    ReadDispatch::NeedsWrite => Err(IcdbError::Unsupported(
                        "instance_query still needs exclusive access after layout generation"
                            .into(),
                    )),
                }
            }
            "connect_component" => self.exec_connect(ns, cmd),
            "start_a_design" => {
                self.start_design_in(ns, &design_of(cmd)?)?;
                Ok(Response::new())
            }
            "start_a_transaction" => {
                self.start_transaction_in(ns, &design_of(cmd)?)?;
                Ok(Response::new())
            }
            "put_in_component_list" => {
                let design = design_of(cmd)?;
                let inst = cmd
                    .str_term("instance")
                    .ok_or_else(|| IcdbError::Cql("missing instance:".into()))?
                    .to_string();
                self.put_in_component_list_in(ns, &design, &inst)?;
                Ok(Response::new())
            }
            "end_a_transaction" => {
                self.end_transaction_in(ns, &design_of(cmd)?)?;
                Ok(Response::new())
            }
            "end_a_design" => {
                self.end_design_in(ns, &design_of(cmd)?)?;
                Ok(Response::new())
            }
            "insert_component" => self.exec_insert_component(cmd),
            "merge_query" => self.exec_merge_query(cmd),
            "tool_query" => self.exec_tool_query(cmd),
            "cache_query" => {
                // The exclusive path also refreshes the relational
                // `cache_stats` table; the shared-lock path only reads.
                self.publish_cache_stats()?;
                self.exec_cache_query(cmd)
            }
            "explore" => {
                // The exclusive path also mirrors the report into the
                // relational `exploration` table and journals the sweep's
                // fresh evaluations into the durable corpus; the
                // shared-lock path only answers the query (its corpus
                // recordings flush on the service's next exclusive pass).
                let (report, resp) = self.exec_explore(ns, cmd)?;
                self.publish_exploration(&report)?;
                self.flush_corpus()?;
                Ok(resp)
            }
            "corpus" => {
                // The exclusive path folds any pending sweep recordings in
                // first, so the answered counts include the latest sweep;
                // the shared-lock path reads the durable store as-is.
                self.flush_corpus()?;
                self.exec_corpus(cmd)
            }
            "persist" => {
                // `checkpoint:1` snapshots + rotates the WAL before
                // reporting (that mutates the data directory, so the
                // shared-lock path routes it here). `clear_fault:1`
                // checkpoints only when a durability fault is latched —
                // the explicit operator action re-arming a degraded
                // server.
                if persist_wants_promote(cmd)? {
                    self.promote_journal()?;
                } else if persist_wants_checkpoint(cmd)? {
                    self.checkpoint()?;
                } else if persist_wants_clear_fault(cmd)? {
                    self.clear_journal_fault()?;
                }
                self.exec_persist(cmd)
            }
            "metrics" => self.exec_metrics(cmd),
            other => Err(IcdbError::Cql(format!("unknown command `{other}`"))),
        }
    }

    fn dispatch_read_in(&self, ns: NsId, cmd: &Command) -> Result<ReadDispatch, IcdbError> {
        match cmd.name.as_str() {
            "component_query" => self.exec_component_query(cmd).map(ReadDispatch::Done),
            "function_query" => self.exec_function_query(cmd).map(ReadDispatch::Done),
            "instance_query" => self.exec_instance_query(ns, cmd),
            "connect_component" => self.exec_connect(ns, cmd).map(ReadDispatch::Done),
            "merge_query" => self.exec_merge_query(cmd).map(ReadDispatch::Done),
            "tool_query" => self.exec_tool_query(cmd).map(ReadDispatch::Done),
            "cache_query" => self.exec_cache_query(cmd).map(ReadDispatch::Done),
            // A truthy `publish:` asks for the relational `exploration`
            // table to be refreshed, which mutates the store — route to
            // the exclusive path (`publish:0` stays read-only).
            "explore" if cmd.int_term("publish").unwrap_or(0) != 0 => Ok(ReadDispatch::NeedsWrite),
            "explore" => self
                .exec_explore(ns, cmd)
                .map(|(_, resp)| ReadDispatch::Done(resp)),
            "corpus" => self.exec_corpus(cmd).map(ReadDispatch::Done),
            "persist"
                if persist_wants_checkpoint(cmd)?
                    || persist_wants_clear_fault(cmd)?
                    || persist_wants_promote(cmd)? =>
            {
                Ok(ReadDispatch::NeedsWrite)
            }
            "persist" => self.exec_persist(cmd).map(ReadDispatch::Done),
            "metrics" => self.exec_metrics(cmd).map(ReadDispatch::Done),
            _ => Ok(ReadDispatch::NeedsWrite),
        }
    }

    /// `component_query` (§3.2.1): what implementations exist for a
    /// component/function set, or what functions an implementation (or a
    /// generated component) performs.
    fn exec_component_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let mut resp = Response::new();
        let functions = cmd.list_term("function").unwrap_or_default();

        // Candidate implementations.
        let candidates: Vec<&crate::library::ComponentImpl> =
            if let Some(name) = cmd.str_term("implementation") {
                self.library.implementation(name).into_iter().collect()
            } else if let Some(name) = cmd
                .str_term("ICDB_components")
                .or_else(|| cmd.str_term("ICDBcomponents"))
            {
                // A previously returned implementation name.
                self.library.implementation(name).into_iter().collect()
            } else if let Some(ty) = cmd.str_term("component") {
                let mut v = self.library.by_component_type(ty);
                if v.is_empty() {
                    v = self.library.implementation(ty).into_iter().collect();
                }
                v
            } else {
                self.library.iter().collect()
            };
        let matching: Vec<&crate::library::ComponentImpl> = candidates
            .into_iter()
            .filter(|c| {
                functions
                    .iter()
                    .all(|f| c.functions.iter().any(|cf| cf.eq_ignore_ascii_case(f)))
            })
            .collect();

        for key in cmd.pending_keys() {
            match key {
                "ICDB_components" | "ICDBcomponents" | "implementation" | "implementations" => {
                    resp.set(
                        key,
                        CqlValue::StrList(matching.iter().map(|c| c.name.clone()).collect()),
                    );
                }
                "function" | "functions" => {
                    let fs: Vec<String> = matching
                        .iter()
                        .flat_map(|c| c.functions.iter().cloned())
                        .collect();
                    let mut dedup = Vec::new();
                    for f in fs {
                        if !dedup.contains(&f) {
                            dedup.push(f);
                        }
                    }
                    resp.set(key, CqlValue::StrList(dedup));
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "component_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `function_query` (Appendix B §5.1): components / implementations
    /// that can execute a function set.
    fn exec_function_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let functions = cmd
            .list_term("function")
            .ok_or_else(|| IcdbError::Cql("function_query needs function:(…)".into()))?;
        let impls = self.library.by_functions(&functions);
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "implementation" | "implementations" | "implemntation" => {
                    // (the paper itself spells it `implemntation` once)
                    resp.set(
                        key,
                        CqlValue::StrList(impls.iter().map(|c| c.name.clone()).collect()),
                    );
                }
                "component" | "components" => {
                    let mut types: Vec<String> =
                        impls.iter().map(|c| c.component_type.clone()).collect();
                    types.dedup();
                    resp.set(key, CqlValue::StrList(types));
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "function_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `request_component` (§3.2.2, Appendix B §6): generate an instance,
    /// or regenerate a layout for an existing instance.
    fn exec_request_component(&mut self, ns: NsId, cmd: &Command) -> Result<Response, IcdbError> {
        let mut resp = Response::new();

        // Layout-regeneration form: `instance:%s; alternative:3;
        // port_position:%s; CIF_layout:?s`.
        if let Some(instance) = cmd.str_term("instance").map(str::to_string) {
            if cmd.pending_keys().contains(&"CIF_layout") {
                let alternative = cmd.int_term("alternative").map(|v| v as usize);
                let ports = cmd
                    .str_term("port_position")
                    .or_else(|| cmd.str_term("pin_position"))
                    .map(str::to_string);
                let cif = self.generate_layout_in(ns, &instance, alternative, ports.as_deref())?;
                resp.set("CIF_layout", CqlValue::Str(cif.to_string()));
                return Ok(resp);
            }
        }

        let source = if let Some(iif) = cmd.str_term("IIF") {
            Source::Iif(iif.to_string())
        } else if let Some(v) = cmd.str_term("VHDL_net_list") {
            // Either inline VHDL text or a design-data file name.
            let text = if v.contains("entity") {
                v.to_string()
            } else {
                self.files
                    .read(v)
                    .map(str::to_string)
                    .map_err(|_| IcdbError::NotFound(format!("VHDL netlist `{v}`")))?
            };
            Source::VhdlNetlist(text)
        } else {
            Source::Library {
                component_name: cmd.str_term("component_name").map(str::to_string),
                implementation: cmd
                    .str_term("implementation")
                    .or_else(|| cmd.str_term("implemntation"))
                    .map(str::to_string),
                functions: cmd.list_term("function").unwrap_or_default(),
            }
        };

        let mut request = ComponentRequest::by_component("");
        request.source = source;
        if let Some(attrs) = cmd.attrs_term("attribute") {
            request.attributes = attrs.to_vec();
        }
        // Bare `size:4` terms also act as attributes (Appendix B §4 example).
        for key in [
            "size",
            "shift_distance",
            "n",
            "type",
            "load",
            "enable",
            "up_or_down",
        ] {
            if let Some(v) = cmd.int_term(key) {
                request.attributes.push((key.to_string(), v.to_string()));
            }
        }
        if let Some(cw) = cmd
            .real_term("clock_width")
            .or_else(|| cmd.real_term("clk_width"))
        {
            request.constraints.clock_width = Some(cw);
        }
        if let Some(su) = cmd
            .real_term("set_up_time")
            .or_else(|| cmd.real_term("seq_delay"))
        {
            request.constraints.set_up_time = Some(su);
        }
        match cmd.real_term("comb_delay") {
            Some(worst) => request.constraints.comb_delay = Some(worst),
            None => {
                if let Some(text) = cmd.str_term("comb_delay") {
                    request.constraints.parse_delay_text(text)?;
                }
            }
        }
        if let Some(s) = cmd.str_term("strategy") {
            request.strategy = Some(s.to_string());
        }
        if let Some(t) = cmd.str_term("target") {
            request.target = match t {
                "layout" => TargetLevel::Layout,
                _ => TargetLevel::Logic,
            };
        }
        if let Some(p) = cmd
            .str_term("port_position")
            .or_else(|| cmd.str_term("pin_position"))
        {
            request.port_positions = Some(p.to_string());
        }
        if let Some(a) = cmd.int_term("alternative") {
            request.alternative = Some(a as usize);
        }
        if let Some(n) = cmd.str_term("naming") {
            request.instance_name = Some(n.to_string());
        }

        let name = self.request_component_in(ns, &request)?;
        for key in cmd.pending_keys() {
            match key {
                "generated_component" | "instance" | "component_instance" => {
                    resp.set(key, CqlValue::Str(name.clone()));
                }
                "CIF_layout" => {
                    let cif = self.cif_layout_in(ns, &name)?;
                    resp.set(key, CqlValue::Str(cif.to_string()));
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "request_component cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `instance_query` (§3.3, Appendix B §5.3): delay, area, shape
    /// function, functions, VHDL views, connection info, CIF. Read-only:
    /// asks for exclusive access when the query wants a CIF layout that
    /// has not been generated yet.
    fn exec_instance_query(&self, ns: NsId, cmd: &Command) -> Result<ReadDispatch, IcdbError> {
        let name = instance_query_target(cmd)?;
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            let key = key.to_string();
            match key.as_str() {
                "delay" => resp.set(key, CqlValue::Str(self.delay_string_in(ns, &name)?)),
                "shape_function" => resp.set(key, CqlValue::Str(self.shape_string_in(ns, &name)?)),
                "area" => resp.set(key, CqlValue::Str(self.area_string_in(ns, &name)?)),
                "function" | "functions" => {
                    resp.set(
                        key,
                        CqlValue::StrList(self.instance_in(ns, &name)?.functions.to_vec()),
                    );
                }
                "VHDL_net_list" => resp.set(key, CqlValue::Str(self.vhdl_netlist_in(ns, &name)?)),
                "VHDL_head" => resp.set(key, CqlValue::Str(self.vhdl_head_in(ns, &name)?)),
                "connect" => resp.set(key, CqlValue::Str(self.connect_string_in(ns, &name)?)),
                "CIF_layout" => match self.cif_layout_cached_in(ns, &name)? {
                    Some(cif) => resp.set(key, CqlValue::Str(cif.to_string())),
                    None => return Ok(ReadDispatch::NeedsWrite),
                },
                "clock_width" => {
                    resp.set(
                        key,
                        CqlValue::Real(self.instance_in(ns, &name)?.report.clock_width),
                    );
                }
                "power" => resp.set(key, CqlValue::Str(self.power_string_in(ns, &name)?)),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "instance_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(ReadDispatch::Done(resp))
    }

    /// `insert_component` (the §2.2 knowledge-acquisition path): insert a
    /// new parameterized implementation from IIF text with its ICDB data.
    fn exec_insert_component(&mut self, cmd: &Command) -> Result<Response, IcdbError> {
        let iif = cmd
            .str_term("IIF")
            .ok_or_else(|| IcdbError::Cql("insert_component needs IIF:%s".into()))?
            .to_string();
        let component_type = cmd
            .str_term("component")
            .unwrap_or("Logic_unit")
            .to_string();
        let functions: Vec<String> = cmd.list_term("function").unwrap_or_default();
        let function_refs: Vec<&str> = functions.iter().map(String::as_str).collect();
        let mut defaults = Vec::new();
        if let Some(attrs) = cmd
            .attrs_term("parameter")
            .or_else(|| cmd.attrs_term("attribute"))
        {
            for (k, v) in attrs {
                let value = v.parse::<i64>().map_err(|_| {
                    IcdbError::Cql(format!("parameter default {k}:{v} is not an integer"))
                })?;
                defaults.push((k.clone(), value));
            }
        }
        let default_refs: Vec<(&str, i64)> =
            defaults.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let connection = cmd.str_term("connect").map(str::to_string);
        let description = cmd.str_term("description").unwrap_or("").to_string();
        let name = self.insert_implementation(
            &iif,
            &component_type,
            &function_refs,
            &default_refs,
            connection.as_deref(),
            &description,
        )?;
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "implementation" | "inserted" => resp.set(key, CqlValue::Str(name.clone())),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "insert_component cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `merge_query` (§2.1): which single components can replace the named
    /// set (e.g. REGISTER + INCREMENTER → COUNTER)?
    fn exec_merge_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let parts = cmd
            .list_term("components")
            .or_else(|| cmd.list_term("component"))
            .ok_or_else(|| IcdbError::Cql("merge_query needs components:(…)".into()))?;
        let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
        let merged = self.merge_candidates(&refs)?;
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "merged" | "candidates" => resp.set(key, CqlValue::StrList(merged.clone())),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "merge_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `tool_query` (§4.2): the registered component generators, optionally
    /// filtered by accepted design-data format.
    fn exec_tool_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let generators: Vec<String> = match cmd.str_term("accepts") {
            Some(fmt) => self
                .tools
                .accepting(fmt)
                .iter()
                .map(|g| g.name.clone())
                .collect(),
            None => self.tools.names().iter().map(|s| s.to_string()).collect(),
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "generators" | "generator" => resp.set(key, CqlValue::StrList(generators.clone())),
                "steps" => {
                    let name = cmd.str_term("name").ok_or_else(|| {
                        IcdbError::Cql("tool_query steps:?s[] needs name:<generator>".into())
                    })?;
                    let g = self
                        .tools
                        .generator(name)
                        .ok_or_else(|| IcdbError::NotFound(format!("generator `{name}`")))?;
                    resp.set(
                        key,
                        CqlValue::StrList(g.steps.iter().map(|s| s.tool.clone()).collect()),
                    );
                }
                other => {
                    return Err(IcdbError::Cql(format!(
                        "tool_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `cache_query`: generation-cache statistics (hits, misses, evictions,
    /// entries, capacity — summed over the flat/netlist/result layers, or
    /// per layer via `layer:<name>`). The exclusive-access path also
    /// refreshes the relational `cache_stats` table before calling this.
    fn exec_cache_query(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let stats = self.cache_stats();
        let layer = match cmd.str_term("layer") {
            Some("flat") => Some(stats.flat),
            Some("netlist") => Some(stats.netlist),
            Some("result") => Some(stats.result),
            Some(other) => {
                return Err(IcdbError::Cql(format!(
                    "cache_query knows layers flat/netlist/result, not `{other}`"
                )))
            }
            None => None,
        };
        let (hits, misses, evictions, entries, capacity) = match layer {
            Some(s) => (s.hits, s.misses, s.evictions, s.entries, s.capacity),
            // Aggregate view: entries and capacity are both summed over the
            // three layers, so `entries <= capacity` holds here too.
            None => (
                stats.hits(),
                stats.misses(),
                stats.evictions(),
                stats.flat.entries + stats.netlist.entries + stats.result.entries,
                stats.flat.capacity + stats.netlist.capacity + stats.result.capacity,
            ),
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "hits" => resp.set(key, CqlValue::Int(hits as i64)),
                "misses" => resp.set(key, CqlValue::Int(misses as i64)),
                "evictions" => resp.set(key, CqlValue::Int(evictions as i64)),
                "entries" => resp.set(key, CqlValue::Int(entries as i64)),
                "capacity" => resp.set(key, CqlValue::Int(capacity as i64)),
                other => {
                    return Err(IcdbError::Cql(format!(
                        "cache_query cannot answer `{other}`"
                    )))
                }
            }
        }
        Ok(resp)
    }

    /// `explore`: the design-space exploration sweep. Candidates come from
    /// `implementation:(…)`, `component:<type>` or `function:(…)`; the
    /// grid is crossed with `widths:(4,8,16)` and
    /// `strategies:(cheapest,fastest)`. Constraint terms reuse the typed
    /// slot machinery (`max_delay:%r`, `max_area:%r`) and pick the
    /// objective: min-area under a delay bound, min-delay under an area
    /// bound, or `weights:(area:1,delay:1,power:0)`.
    ///
    /// Answerable outputs: `winner:?s` (label, empty when no candidate is
    /// feasible), `front:?s[]`, `table:?s`, `points:?d`, `front_size:?d`,
    /// and the winner metrics `area:?r` / `delay:?r` / `power:?r`.
    ///
    /// The sweep itself is read-only and served under the shared lock.
    /// Add `publish:1` to also refresh the relational `exploration` table
    /// — that mutates the store, so the command is then routed to the
    /// exclusive path (embedded [`Icdb::execute`] always refreshes it).
    fn exec_explore(
        &self,
        ns: NsId,
        cmd: &Command,
    ) -> Result<(icdb_explore::ExplorationReport, Response), IcdbError> {
        let widths: Vec<i64> = cmd
            .list_term("widths")
            .or_else(|| cmd.list_term("sizes"))
            .unwrap_or_default()
            .iter()
            .map(|w| {
                w.parse::<i64>()
                    .map_err(|_| IcdbError::Cql(format!("width `{w}` is not an integer")))
            })
            .collect::<Result<_, _>>()?;
        // Exactly one objective family may be supplied; silently letting
        // `max_delay` shadow a `max_area`/`weights` term would drop a
        // constraint the caller believes is enforced.
        let supplied: Vec<&str> = ["max_delay", "max_area", "weights"]
            .into_iter()
            .filter(|key| cmd.has(key))
            .collect();
        if supplied.len() > 1 {
            return Err(IcdbError::Cql(format!(
                "explore takes one objective, got {}",
                supplied.join(" + ")
            )));
        }
        // A present-but-unparsable bound must error loudly, not fall
        // through to the default objective with the constraint dropped.
        let bound = |key: &str| -> Result<Option<f64>, IcdbError> {
            match (cmd.has(key), cmd.real_term(key)) {
                (true, Some(v)) => Ok(Some(v)),
                (true, None) => Err(IcdbError::Cql(format!(
                    "explore {key}: value is not a number"
                ))),
                (false, _) => Ok(None),
            }
        };
        // Same loud-error rule for the `publish:` routing flag: a value
        // that is not an integer must not silently mean "don't publish".
        if cmd.has("publish") && cmd.int_term("publish").is_none() {
            return Err(IcdbError::Cql("explore publish: takes 0 or 1".to_string()));
        }
        // And for the corpus-pruning dials: `prune:0` is the escape hatch
        // that guarantees every grid point is evaluated, `prune_exact:0`
        // opts into heuristic margin pruning — a typo must not silently
        // flip either.
        if cmd.has("prune") && cmd.int_term("prune").is_none() {
            return Err(IcdbError::Cql("explore prune: takes 0 or 1".to_string()));
        }
        if cmd.has("prune_exact") && cmd.int_term("prune_exact").is_none() {
            return Err(IcdbError::Cql(
                "explore prune_exact: takes 0 or 1".to_string(),
            ));
        }
        if cmd.has("weights") && cmd.attrs_term("weights").is_none() {
            return Err(IcdbError::Cql(
                "explore weights must be an attribute list like (area:1,delay:2,power:0)"
                    .to_string(),
            ));
        }
        let objective = if let Some(bound) = bound("max_delay")? {
            icdb_explore::Objective::MinAreaUnderDelay(bound)
        } else if let Some(bound) = bound("max_area")? {
            icdb_explore::Objective::MinDelayUnderArea(bound)
        } else if let Some(weights) = cmd.attrs_term("weights") {
            // Reject unknown weight keys loudly: a typo (`aera:2`) would
            // otherwise default every metric to 0 and crown an arbitrary
            // winner.
            for (key, _) in weights {
                if !["area", "delay", "power"].contains(&key.as_str()) {
                    return Err(IcdbError::Cql(format!(
                        "explore knows weights area/delay/power, not `{key}`"
                    )));
                }
            }
            let weight = |name: &str| -> Result<f64, IcdbError> {
                weights
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, v)| {
                        // Finite and non-negative, not just parsed:
                        // "nan"/"inf" would poison every score, and a
                        // negative weight rewards dominated points the
                        // front-restricted selection can never return.
                        v.parse::<f64>()
                            .ok()
                            .filter(|w| w.is_finite() && *w >= 0.0)
                            .ok_or_else(|| {
                                IcdbError::Cql(format!(
                                    "weight {name}:{v} is not a finite non-negative number"
                                ))
                            })
                    })
                    .transpose()
                    .map(|w| w.unwrap_or(0.0))
            };
            icdb_explore::Objective::Weighted {
                area: weight("area")?,
                delay: weight("delay")?,
                power: weight("power")?,
            }
        } else {
            icdb_explore::Objective::default()
        };
        let default_workers = crate::explore::ExploreSpec::default().workers;
        let spec = crate::explore::ExploreSpec {
            component: cmd
                .str_term("component")
                .or_else(|| cmd.str_term("component_name"))
                .map(str::to_string),
            implementations: cmd
                .list_term("implementation")
                .or_else(|| cmd.list_term("implementations"))
                .unwrap_or_default(),
            functions: cmd
                .list_term("function")
                .or_else(|| cmd.list_term("functions"))
                .unwrap_or_default(),
            widths,
            strategies: cmd
                .list_term("strategies")
                .or_else(|| cmd.list_term("strategy"))
                .unwrap_or_default(),
            attributes: cmd
                .attrs_term("attribute")
                .map(<[(String, String)]>::to_vec)
                .unwrap_or_default(),
            objective,
            workers: cmd
                .int_term("workers")
                .map(|w| w.max(0) as usize)
                .unwrap_or(default_workers),
            prune: cmd.int_term("prune").unwrap_or(1) != 0,
            prune_exact: cmd.int_term("prune_exact").unwrap_or(1) != 0,
        };

        let (report, stats) = self.explore_in_with_stats(ns, &spec)?;
        let winner_metric = |metric: &dyn Fn(&icdb_explore::DesignPoint) -> f64,
                             key: &str|
         -> Result<CqlValue, IcdbError> {
            report
                .winner_point()
                .map(|p| CqlValue::Real(metric(p)))
                .ok_or_else(|| {
                    IcdbError::Cql(format!(
                        "explore cannot answer `{key}`: no candidate satisfies the constraint"
                    ))
                })
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "winner" | "selected" => {
                    let label = report
                        .winner_point()
                        .map(icdb_explore::DesignPoint::label)
                        .unwrap_or_default();
                    resp.set(key, CqlValue::Str(label));
                }
                "front" | "pareto_front" => {
                    resp.set(key, CqlValue::StrList(report.front_lines()));
                }
                "table" | "report" => resp.set(key, CqlValue::Str(report.to_table())),
                "points" => resp.set(key, CqlValue::Int(report.points.len() as i64)),
                "front_size" => resp.set(key, CqlValue::Int(report.front.len() as i64)),
                "evaluated" => resp.set(key, CqlValue::Int(stats.evaluated as i64)),
                "pruned" => resp.set(key, CqlValue::Int(stats.pruned as i64)),
                "corpus_hits" => resp.set(key, CqlValue::Int(stats.corpus_hits as i64)),
                "corpus_misses" => resp.set(key, CqlValue::Int(stats.corpus_misses as i64)),
                "area" => {
                    let v = winner_metric(&|p| p.area, key)?;
                    resp.set(key, v);
                }
                "delay" => {
                    let v = winner_metric(&|p| p.delay, key)?;
                    resp.set(key, v);
                }
                "power" => {
                    let v = winner_metric(&|p| p.power, key)?;
                    resp.set(key, v);
                }
                other => return Err(IcdbError::Cql(format!("explore cannot answer `{other}`"))),
            }
        }
        Ok((report, resp))
    }

    /// `corpus`: read-only view of the durable exploration corpus.
    /// Selectors `implementation:<name>`, `width:<n>` and
    /// `strategy:<cheapest|fastest>` filter the stored points. Answerable
    /// outputs: `entries:?d` (points matching the selectors),
    /// `hits:?d`/`misses:?d`/`pruned:?d` (lifetime counters),
    /// `list:?s[]` (one deterministic line per matching point, in
    /// serialized-key order — byte-identical across a primary and its
    /// converged followers), `near:?s[]` (the `k:` nearest neighbors of
    /// the probe the selectors describe, distance-prefixed), and the
    /// point metrics `area:?r`/`delay:?r`/`power:?r` when the selectors
    /// match exactly one point.
    fn exec_corpus(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let stats = self.corpus_stats();
        let store = self.corpus.export();
        let implementation = cmd.str_term("implementation").map(str::to_string);
        let width = if cmd.has("width") {
            Some(
                cmd.int_term("width")
                    .ok_or_else(|| IcdbError::Cql("corpus width: takes an integer".to_string()))?,
            )
        } else {
            None
        };
        let strategy = cmd.str_term("strategy").map(str::to_string);
        if let Some(s) = strategy.as_deref() {
            if !["cheapest", "fastest"].contains(&s) {
                return Err(IcdbError::Cql(format!(
                    "corpus knows strategies cheapest/fastest, not `{s}`"
                )));
            }
        }
        let selected: Vec<&icdb_store::corpus::CorpusPoint> = store
            .iter()
            .map(|(_, p)| p)
            .filter(|p| {
                implementation
                    .as_deref()
                    .is_none_or(|i| p.implementation == i)
            })
            .filter(|p| width.is_none_or(|w| p.width == w))
            .filter(|p| strategy.as_deref().is_none_or(|s| p.strategy == s))
            .collect();
        let render = |p: &icdb_store::corpus::CorpusPoint| -> String {
            format!(
                "{}/{}/{} area={:.3} delay={:.3} power={:.3} gates={} met={} \
                 lib={} cells={} seq={}",
                p.implementation,
                p.width,
                p.strategy,
                p.area,
                p.delay,
                p.power,
                p.gates,
                i32::from(p.met),
                p.library_version,
                p.cells_version,
                p.seq,
            )
        };
        let exact_metric = |metric: &dyn Fn(&icdb_store::corpus::CorpusPoint) -> f64,
                            key: &str|
         -> Result<CqlValue, IcdbError> {
            match selected.as_slice() {
                [point] => Ok(CqlValue::Real(metric(point))),
                [] => Err(IcdbError::NotFound(format!(
                    "corpus `{key}`: no stored point matches the selectors"
                ))),
                many => Err(IcdbError::Cql(format!(
                    "corpus `{key}`: selectors match {} points, need exactly one",
                    many.len()
                ))),
            }
        };
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "entries" => resp.set(key, CqlValue::Int(selected.len() as i64)),
                "hits" => resp.set(key, CqlValue::Int(stats.hits as i64)),
                "misses" => resp.set(key, CqlValue::Int(stats.misses as i64)),
                "pruned" => resp.set(key, CqlValue::Int(stats.pruned as i64)),
                "list" => resp.set(
                    key,
                    CqlValue::StrList(selected.iter().map(|p| render(p)).collect()),
                ),
                "near" => {
                    let Some(implementation) = implementation.clone() else {
                        return Err(IcdbError::Cql(
                            "corpus near:?s[] needs implementation:<name>".to_string(),
                        ));
                    };
                    let k = cmd.int_term("k").unwrap_or(5).max(0) as usize;
                    let probe = crate::corpus::Probe {
                        implementation,
                        width,
                        fastest: strategy.as_deref() == Some("fastest"),
                        constrained: false,
                        library_version: self.library.version(),
                        cells_version: self.cells.version(),
                    };
                    let lines: Vec<String> = self
                        .corpus
                        .neighbors(&probe, k)
                        .into_iter()
                        .map(|(d, p)| format!("d={d:.2} {}", render(&p)))
                        .collect();
                    resp.set(key, CqlValue::StrList(lines));
                }
                "area" => {
                    let v = exact_metric(&|p| p.area, key)?;
                    resp.set(key, v);
                }
                "delay" => {
                    let v = exact_metric(&|p| p.delay, key)?;
                    resp.set(key, v);
                }
                "power" => {
                    let v = exact_metric(&|p| p.power, key)?;
                    resp.set(key, v);
                }
                other => return Err(IcdbError::Cql(format!("corpus cannot answer `{other}`"))),
            }
        }
        Ok(resp)
    }

    /// `persist`: the durability layer's vitals. Answerable outputs:
    /// `enabled:?d` (1 when the server has a data directory),
    /// `generation:?d`, `wal_events:?d`, `wal_bytes:?d`,
    /// `snapshot_bytes:?d`, `recovered_events:?d`, `data_dir:?s` (empty
    /// when not persistent), `degraded:?d` (1 while a durability fault
    /// keeps the server read-only), `fault:?s` (the latched error, empty
    /// when healthy) and `fault_errno:?d` (its OS errno, 0 when none).
    /// Replication position: `role:?s` (`primary`/`follower`/`degraded`,
    /// `primary` for an in-memory server), `upstream:?s` (the follower's
    /// primary address, empty otherwise), `applied_seq:?d` and
    /// `lag_events:?d` (both 0 on a primary).
    /// Add `checkpoint:1` to snapshot + rotate the WAL first,
    /// `clear_fault:1` to checkpoint only if degraded, or `promote:1` to
    /// turn a replication follower into a writable primary — all three
    /// mutate the data directory, so they run under the exclusive lock
    /// (plain reporting runs under the shared lock).
    fn exec_persist(&self, cmd: &Command) -> Result<Response, IcdbError> {
        let stats = self.persist_stats();
        let fields = crate::persist::persist_fields(stats.as_ref());
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            // `events` is the historical alias for `wal_events`.
            let canonical = if key == "events" { "wal_events" } else { key };
            let Some((_, value)) = fields.iter().find(|(k, _)| *k == canonical) else {
                return Err(IcdbError::Cql(format!("persist cannot answer `{key}`")));
            };
            resp.set(key, value.clone());
        }
        Ok(resp)
    }

    /// `metrics`: the observability scrape over CQL. Answerable outputs:
    /// `text:?s` (the full Prometheus exposition, identical to the HTTP
    /// `/metrics` body), `rows:?ls` (one `name{labels} value` line per
    /// sample — the relational view), every `persist` key (answered from
    /// the same shared field list, so the two commands cannot disagree),
    /// or any label-less sample name (`icdb_cache_hits_total:?d`,
    /// `icdb_repl_lag_events:?d`, `icdb_cache_hit_ratio:?f`, …) typed as
    /// `Int`/`Real` by the sample itself.
    fn exec_metrics(&self, cmd: &Command) -> Result<Response, IcdbError> {
        // One persistence snapshot feeds both the sample list and the
        // persist-keyed answers, so `rows`/`text` and e.g. `degraded:?d`
        // in one response cannot straddle a checkpoint or fault flip.
        let stats = self.persist_stats();
        let samples = self.metrics_samples_from(stats.as_ref());
        let fields = crate::persist::persist_fields(stats.as_ref());
        let mut resp = Response::new();
        for key in cmd.pending_keys() {
            match key {
                "text" => resp.set(key, CqlValue::Str(icdb_obs::render_prometheus(&samples))),
                "rows" | "samples" => resp.set(
                    key,
                    CqlValue::StrList(samples.iter().map(icdb_obs::Sample::render).collect()),
                ),
                other => {
                    let canonical = if other == "events" {
                        "wal_events"
                    } else {
                        other
                    };
                    if let Some((_, value)) = fields.iter().find(|(k, _)| *k == canonical) {
                        resp.set(key, value.clone());
                    } else if let Some(sample) = samples
                        .iter()
                        .find(|s| s.labels.is_empty() && s.name == other)
                    {
                        let value = match sample.value {
                            icdb_obs::SampleValue::Int(v) => {
                                CqlValue::Int(i64::try_from(v).unwrap_or(i64::MAX))
                            }
                            icdb_obs::SampleValue::Float(v) => CqlValue::Real(v),
                        };
                        resp.set(key, value);
                    } else {
                        return Err(IcdbError::Cql(format!(
                            "metrics cannot answer `{other}`: not a persist field or label-less sample"
                        )));
                    }
                }
            }
        }
        Ok(resp)
    }

    /// `connect_component` (Appendix B §5.4).
    fn exec_connect(&self, ns: NsId, cmd: &Command) -> Result<Response, IcdbError> {
        let name = cmd
            .str_term("instance")
            .ok_or_else(|| IcdbError::Cql("connect_component needs instance:%s".into()))?
            .to_string();
        let mut resp = Response::new();
        resp.set("connect", CqlValue::Str(self.connect_string_in(ns, &name)?));
        Ok(resp)
    }
}

/// Whether a `persist` command asks for a checkpoint first — loud error on
/// a present-but-unparsable flag, like `explore publish:`.
fn persist_wants_checkpoint(cmd: &Command) -> Result<bool, IcdbError> {
    if cmd.has("checkpoint") && cmd.int_term("checkpoint").is_none() {
        return Err(IcdbError::Cql("persist checkpoint: takes 0 or 1".into()));
    }
    Ok(cmd.int_term("checkpoint").unwrap_or(0) != 0)
}

/// Whether a `persist` command asks for a latched durability fault to be
/// cleared (checkpoint-if-degraded) — same loud-error contract as
/// `checkpoint:`.
fn persist_wants_clear_fault(cmd: &Command) -> Result<bool, IcdbError> {
    if cmd.has("clear_fault") && cmd.int_term("clear_fault").is_none() {
        return Err(IcdbError::Cql("persist clear_fault: takes 0 or 1".into()));
    }
    Ok(cmd.int_term("clear_fault").unwrap_or(0) != 0)
}

/// Whether a `persist` command asks for follower promotion — same
/// loud-error contract as `checkpoint:`.
fn persist_wants_promote(cmd: &Command) -> Result<bool, IcdbError> {
    if cmd.has("promote") && cmd.int_term("promote").is_none() {
        return Err(IcdbError::Cql("persist promote: takes 0 or 1".into()));
    }
    Ok(cmd.int_term("promote").unwrap_or(0) != 0)
}

fn design_of(cmd: &Command) -> Result<String, IcdbError> {
    cmd.str_term("design")
        .map(str::to_string)
        .ok_or_else(|| IcdbError::Cql("missing design:".into()))
}

fn instance_query_target(cmd: &Command) -> Result<String, IcdbError> {
    cmd.str_term("instance")
        .or_else(|| cmd.str_term("generated_component"))
        .map(str::to_string)
        .ok_or_else(|| IcdbError::Cql("instance_query needs instance:%s".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name in `READ_ONLY_COMMANDS` must reach a real executor in
    /// `dispatch_read_in` (never the `NeedsWrite` default arm), and every
    /// other name must fall through to it — otherwise the shared-lock fast
    /// path silently drifts out of sync with the classification.
    #[test]
    fn read_only_list_matches_read_dispatch() {
        let icdb = Icdb::new();
        let bare = |name: &str| Command {
            name: name.to_string(),
            terms: Vec::new(),
        };
        for name in READ_ONLY_COMMANDS {
            // A bare command may legitimately error (missing terms), but a
            // routed command never reports NeedsWrite from the default arm.
            let routed = !matches!(
                icdb.dispatch_read_in(NsId::ROOT, &bare(name)),
                Ok(ReadDispatch::NeedsWrite)
            );
            assert!(routed, "`{name}` is listed read-only but not dispatched");
            assert!(command_is_read_only(name));
            assert!(command_text_is_read_only(&format!("command:{name}; x:?s")));
        }
        for name in ["request_component", "insert_component", "start_a_design"] {
            assert!(
                matches!(
                    icdb.dispatch_read_in(NsId::ROOT, &bare(name)),
                    Ok(ReadDispatch::NeedsWrite)
                ),
                "mutating `{name}` must fall through to the exclusive path"
            );
            assert!(!command_text_is_read_only(&format!("command:{name}")));
        }
    }

    /// Knowledge-only commands are a strict subset of the read-only set,
    /// and the text classifier routes instance/publish traffic away from
    /// the lock-free snapshot path.
    #[test]
    fn knowledge_only_is_a_snapshot_safe_subset() {
        for name in KNOWLEDGE_ONLY_COMMANDS {
            assert!(
                command_is_read_only(name),
                "`{name}` is knowledge-only but not read-only"
            );
            assert!(command_text_is_knowledge_only(&format!(
                "command:{name}; x:?s"
            )));
        }
        for text in [
            "command:instance_query; instance:%s",
            "command:connect_component; name:%s",
            "command:persist; stats:?s",
            "command:explore; component:%s; publish: 1",
            "command:explore; component:%s; publish: 0",
            "command:request_component",
            "x:?s",
        ] {
            assert!(
                !command_text_is_knowledge_only(text),
                "`{text}` must not route to the epoch snapshot"
            );
        }
    }
}
