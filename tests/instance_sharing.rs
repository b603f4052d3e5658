//! Instances share their generated data: a warm install hands out handles
//! to the cached payload instead of copies, the one mutator copies on
//! write, and dropping instances — one session or one design transaction
//! at a time — removes exactly their relational rows and view files.

use icdb::estimate::LoadSpec;
use icdb::{ComponentRequest, Icdb, NsId};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn counter() -> ComponentRequest {
    ComponentRequest::by_component("counter").attribute("size", "4")
}

#[test]
fn warm_installs_of_one_key_share_their_parts() {
    let mut icdb = Icdb::new();
    let a = icdb.request_component(&counter()).unwrap();
    let b = icdb.request_component(&counter()).unwrap();
    let (a, b) = (icdb.instance(&a).unwrap(), icdb.instance(&b).unwrap());
    assert_ne!(a.name, b.name);
    assert!(Arc::ptr_eq(&a.netlist, &b.netlist));
    assert!(Arc::ptr_eq(&a.report, &b.report));
    assert!(Arc::ptr_eq(&a.shape, &b.shape));
    assert!(Arc::ptr_eq(&a.connection, &b.connection));
    assert!(Arc::ptr_eq(&a.loads, &b.loads));
    assert!(Arc::ptr_eq(&a.functions, &b.functions));
    assert!(Arc::ptr_eq(&a.params, &b.params));
}

#[test]
fn resizing_one_instance_leaves_its_sibling_unchanged() {
    let mut icdb = Icdb::new();
    let a = icdb.request_component(&counter()).unwrap();
    let b = icdb.request_component(&counter()).unwrap();
    let before = icdb.instance(&b).unwrap().clone();
    let (delay, shape) = (
        icdb.delay_string(&b).unwrap(),
        icdb.shape_string(&b).unwrap(),
    );

    icdb.resize_for_load(&a, &LoadSpec::uniform(40.0), 10.0)
        .unwrap();

    let (resized, sibling) = (icdb.instance(&a).unwrap(), icdb.instance(&b).unwrap());
    assert!(!Arc::ptr_eq(&resized.netlist, &sibling.netlist));
    assert_ne!(resized.loads, sibling.loads);
    assert!(Arc::ptr_eq(&sibling.netlist, &before.netlist));
    assert!(Arc::ptr_eq(&sibling.report, &before.report));
    assert!(Arc::ptr_eq(&sibling.shape, &before.shape));
    assert_eq!(icdb.delay_string(&b).unwrap(), delay);
    assert_eq!(icdb.shape_string(&b).unwrap(), shape);
    // The resize really moved the resized instance's sizing.
    let sizes = |nl: &icdb::logic::GateNetlist| nl.gates.iter().map(|g| g.size).collect::<Vec<_>>();
    assert_ne!(sizes(&resized.netlist), sizes(&sibling.netlist));
    // A later warm install still gets the unresized payload.
    let c = icdb.request_component(&counter()).unwrap();
    assert!(Arc::ptr_eq(
        &icdb.instance(&c).unwrap().netlist,
        &before.netlist
    ));
}

#[test]
fn ending_a_transaction_removes_exactly_its_instances_data() {
    let mut icdb = Icdb::new();
    icdb.start_design("cpu").unwrap();
    let outside = icdb.request_component(&counter()).unwrap();
    icdb.start_transaction("cpu").unwrap();
    let kept = icdb.request_component(&counter()).unwrap();
    let dropped: Vec<String> = (0..3)
        .map(|_| icdb.request_component(&counter()).unwrap())
        .collect();
    icdb.generate_layout(&dropped[0], None, None).unwrap();
    icdb.put_in_component_list("cpu", &kept).unwrap();
    assert_eq!(icdb.end_transaction("cpu").unwrap(), 3);

    let live = [outside, kept];
    assert_eq!(icdb.instance_names().len(), 2);
    assert_eq!(rows(&icdb), live.iter().cloned().collect());
    let files: BTreeSet<String> = icdb.files.list("").into_iter().map(String::from).collect();
    for name in &dropped {
        assert!(!files
            .iter()
            .any(|f| f.starts_with(&format!("instances/{name}."))));
    }
    for name in &live {
        assert!(files.contains(&format!("instances/{name}.vhdl")));
    }
}

/// Names in the relational `instances` table.
fn rows(icdb: &Icdb) -> BTreeSet<String> {
    icdb.db
        .query("SELECT name FROM instances")
        .unwrap()
        .into_iter()
        .map(|r| r[0].as_text().unwrap().to_string())
        .collect()
}

/// One step of the interleaving: install into a namespace slot (0 is the
/// root, 1–3 the sessions), lay an instance out, or close a session.
#[derive(Debug, Clone)]
enum Step {
    Install { slot: usize, size: u32, named: bool },
    Layout { slot: usize },
    Close { slot: usize },
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Steps 0–5 install, 6 lays out, 7 closes.
    (0u32..8, 0usize..4, 2u32..5, any::<bool>()).prop_map(|(kind, slot, size, named)| match kind {
        0..=5 => Step::Install { slot, size, named },
        6 => Step::Layout { slot },
        _ => Step::Close { slot: slot.max(1) },
    })
}

/// The stores' expected contents: per live namespace, its instances and
/// whether each has a layout.
#[derive(Default)]
struct Model {
    spaces: Vec<(NsId, Vec<(String, bool)>)>,
}

impl Model {
    fn rows(&self) -> BTreeSet<String> {
        let mut rows = BTreeSet::new();
        for (ns, instances) in &self.spaces {
            for (name, _) in instances {
                rows.insert(if *ns == NsId::ROOT {
                    name.clone()
                } else {
                    format!("s{}:{name}", ns.raw())
                });
            }
        }
        rows
    }

    fn files(&self) -> BTreeSet<String> {
        let mut files = BTreeSet::new();
        for (ns, instances) in &self.spaces {
            let dir = if *ns == NsId::ROOT {
                "instances/".to_string()
            } else {
                format!("s{}/instances/", ns.raw())
            };
            for (name, laid_out) in instances {
                let mut views = vec!["iif", "milo", "vhdl", "vhdl_head", "delay", "shape"];
                if *laid_out {
                    views.extend(["cif", "layout.txt"]);
                }
                files.extend(views.into_iter().map(|v| format!("{dir}{name}.{v}")));
            }
        }
        files
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Three sessions and the root namespace, randomly interleaved: after
    /// every step, and in particular after each close, the `instances`
    /// table and the file store hold exactly the model's rows and view
    /// files. The sessions get ids 1, 10 and 11, so one id's prefix is a
    /// prefix of the others' (`s1` vs `s10`), and root instances may be
    /// named like a session directory.
    #[test]
    fn closing_a_session_removes_exactly_its_rows_and_files(
        steps in proptest::collection::vec(arb_step(), 1..40)
    ) {
        let mut icdb = Icdb::new();
        let mut model = Model::default();
        model.spaces.push((NsId::ROOT, Vec::new()));
        let mut slots = vec![Some(NsId::ROOT)];
        for id in 1..=11 {
            let ns = icdb.create_namespace();
            prop_assert_eq!(ns.raw(), id);
            if [1, 10, 11].contains(&id) {
                slots.push(Some(ns));
                model.spaces.push((ns, Vec::new()));
            } else {
                icdb.drop_namespace(ns);
            }
        }
        for (i, step) in steps.iter().enumerate() {
            match *step {
                Step::Install { slot, size, named } => {
                    let Some(ns) = slots[slot] else { continue };
                    let mut req = ComponentRequest::by_component("counter")
                        .attribute("size", size.to_string());
                    if named {
                        req.instance_name = Some(format!("s1x{i}"));
                    }
                    let name = icdb.request_component_in(ns, &req).unwrap();
                    let space = model.spaces.iter_mut().find(|(id, _)| *id == ns).unwrap();
                    space.1.push((name, false));
                }
                Step::Layout { slot } => {
                    let Some(ns) = slots[slot] else { continue };
                    let space = model.spaces.iter_mut().find(|(id, _)| *id == ns).unwrap();
                    let Some(last) = space.1.last_mut() else { continue };
                    icdb.generate_layout_in(ns, &last.0, None, None).unwrap();
                    last.1 = true;
                }
                Step::Close { slot } => {
                    let Some(ns) = slots[slot].take() else { continue };
                    let at = model.spaces.iter().position(|(id, _)| *id == ns).unwrap();
                    let (_, gone) = model.spaces.remove(at);
                    prop_assert_eq!(icdb.drop_namespace(ns), gone.len());
                }
            }
            prop_assert_eq!(rows(&icdb), model.rows());
            let files: BTreeSet<String> =
                icdb.files.list("").into_iter().map(String::from).collect();
            prop_assert_eq!(files, model.files());
        }
    }
}
