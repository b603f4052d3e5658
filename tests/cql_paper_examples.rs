//! Every CQL interaction printed in the paper, run verbatim-equivalent
//! through `Icdb::execute` (experiment E11 of DESIGN.md). Garbled OCR
//! spellings are normalized to the underscore keyword forms the appendix
//! defines (`ICDB_components`, `generated_component`, …).

use icdb::cql::CqlArg;
use icdb::Icdb;

/// §3.2.1, first query: implementations for a five-bit up counter.
#[test]
fn component_query_for_counters() {
    let mut icdb = Icdb::new();
    let mut counters = vec![CqlArg::OutStrList(None)];
    icdb.execute(
        "command: component_query;
         component :counter;
         function :(INC);
         attribute:(size:5);
         ICDB_components:?s[] ",
        &mut counters,
    )
    .unwrap();
    let CqlArg::OutStrList(Some(names)) = &counters[0] else {
        panic!()
    };
    assert!(!names.is_empty());
    assert!(names.iter().any(|n| n == "COUNTER"));
}

/// §3.2.1, second query: the functions of a returned implementation,
/// passed back in through a %s input slot.
#[test]
fn component_query_functions_of_component() {
    let mut icdb = Icdb::new();
    let mut args = vec![CqlArg::InStr("COUNTER".into()), CqlArg::OutStrList(None)];
    icdb.execute(
        "command: component_query;
         ICDB_components:%s;
         function:?s[]",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStrList(Some(functions)) = &args[1] else {
        panic!()
    };
    for f in ["INC", "DEC", "COUNTER", "STORAGE"] {
        assert!(
            functions.iter().any(|x| x == f),
            "missing {f} in {functions:?}"
        );
    }
}

/// §3.2.2: the five-bit counter request with clock width, comb-delay
/// constraint text and setup bound.
#[test]
fn request_component_with_constraints() {
    let mut icdb = Icdb::new();
    let c_delay = "rdelay Q[4] 10\nrdelay Q[3] 10\nrdelay Q[2] 10\n\
                   rdelay Q[1] 10\nrdelay Q[0] 10\n\
                   oload Q[4] 10\noload Q[3] 10\noload Q[2] 10\n\
                   oload Q[1] 10\noload Q[0] 10";
    let mut args = vec![CqlArg::InStr(c_delay.into()), CqlArg::OutStr(None)];
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
    let CqlArg::OutStr(Some(counter_ins)) = &args[1] else {
        panic!()
    };
    let inst = icdb.instance(counter_ins).unwrap();
    assert!(inst.report.clock_width <= 30.0, "CW constraint respected");
    for q in 0..5 {
        let wd = inst.report.output_delay(&format!("Q[{q}]")).unwrap();
        assert!(wd <= 10.0 + 1e-9, "rdelay Q[{q}] bound: {wd}");
    }
}

/// §3.3: the instance query for delay and shape function strings.
#[test]
fn instance_query_delay_and_shape() {
    let mut icdb = Icdb::new();
    let mut gen = vec![CqlArg::OutStr(None)];
    icdb.execute(
        "command:request_component; component_name:counter;
         attribute:(size:5,up_or_down:3,enable:1,load:1); generated_component:?s",
        &mut gen,
    )
    .unwrap();
    let CqlArg::OutStr(Some(counter_ins)) = gen.remove(0) else {
        panic!()
    };

    let mut args = vec![
        CqlArg::InStr(counter_ins),
        CqlArg::OutStr(None),
        CqlArg::OutStr(None),
    ];
    icdb.execute(
        "command:instance_query;
         generated_component:%s;
         delay:?s;
         shape_function:?s",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStr(Some(delay_s)) = &args[1] else {
        panic!()
    };
    let CqlArg::OutStr(Some(shape_s)) = &args[2] else {
        panic!()
    };
    // The paper's formats: `CW 29.0`, `WD Q[4] 8.5`, `SD DWUP 26.7` and
    // `Alternative=1 width=12000 height=48000`.
    assert!(delay_s.lines().any(|l| l.starts_with("CW ")), "{delay_s}");
    assert!(
        delay_s.lines().any(|l| l.starts_with("WD Q[4] ")),
        "{delay_s}"
    );
    assert!(
        delay_s.lines().any(|l| l.starts_with("SD DWUP ")),
        "{delay_s}"
    );
    assert!(
        shape_s
            .lines()
            .any(|l| l.starts_with("Alternative=1 width=")),
        "{shape_s}"
    );
}

/// §3.3: layout generation for an existing instance with a shape
/// alternative and pinned port positions.
#[test]
fn request_layout_with_port_positions() {
    let mut icdb = Icdb::new();
    let mut gen = vec![CqlArg::OutStr(None)];
    icdb.execute(
        "command:request_component; component_name:counter;
         attribute:(size:5,up_or_down:3,enable:1,load:1); generated_component:?s",
        &mut gen,
    )
    .unwrap();
    let CqlArg::OutStr(Some(counter_ins)) = gen.remove(0) else {
        panic!()
    };

    let pin_locs = "\
CLK left s1.0
D[0] top 10
D[1] top 20
D[2] top 30
D[3] top 40
D[4] top 50
LOAD left s2.0
DWUP left s3.0
ENA left s4.0
MINMAX right s2.0
RCLK right s3.0
Q[0] bottom 10
Q[1] bottom 20
Q[2] bottom 30
Q[3] bottom 40
Q[4] bottom 50
";
    let mut args = vec![
        CqlArg::InStr(counter_ins.clone()),
        CqlArg::InStr(pin_locs.into()),
        CqlArg::OutStr(None),
    ];
    icdb.execute(
        "command:request_component;
         instance:%s;
         alternative:3;
         port_position:%s;
         CIF_layout:?s",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStr(Some(cif)) = &args[2] else {
        panic!()
    };
    assert!(
        icdb::layout::cif_is_well_formed(cif),
        "CIF must be well-formed"
    );
    assert!(cif.contains("94 CLK "), "port label present");
    // Alternative 3 selects the third strip count of the shape function.
    let inst = icdb.instance(&counter_ins).unwrap();
    let expect_strips = inst.shape.alternatives[2].strips;
    assert_eq!(inst.layout.as_ref().unwrap().strips.len(), expect_strips);
}

/// §3.3: the VHDL netlist / head / connect query.
#[test]
fn instance_query_vhdl_and_connect() {
    let mut icdb = Icdb::new();
    let mut gen = vec![CqlArg::OutStr(None)];
    icdb.execute(
        "command:request_component; component_name:counter;
         attribute:(size:5,up_or_down:3,enable:1,load:1); generated_component:?s",
        &mut gen,
    )
    .unwrap();
    let CqlArg::OutStr(Some(counter_ins)) = gen.remove(0) else {
        panic!()
    };

    let mut args = vec![
        CqlArg::InStr(counter_ins),
        CqlArg::OutStr(None),
        CqlArg::OutStr(None),
        CqlArg::OutStr(None),
    ];
    icdb.execute(
        "command:instance_query;
         instance:%s;
         VHDL_net_list:?s;
         VHDL_head:?s;
         connect :?s",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStr(Some(netlist)) = &args[1] else {
        panic!()
    };
    let CqlArg::OutStr(Some(head)) = &args[2] else {
        panic!()
    };
    let CqlArg::OutStr(Some(connect)) = &args[3] else {
        panic!()
    };
    assert!(netlist.contains("architecture structural"));
    assert!(head.contains("entity counter is"));
    // §3.3 / §4.1: the INC invocation table.
    assert!(connect.contains("## function INC"), "{connect}");
    assert!(connect.contains("** DWUP 0"), "{connect}");
    assert!(connect.contains("** CLK 1 edge_trigger"), "{connect}");
}

/// Appendix B §4: the interactive adder/subtractor request and its
/// C-program twin with %s/%d input slots.
#[test]
fn request_fastest_adder_subtractor_both_forms() {
    let mut icdb = Icdb::new();
    // Interactive form (constants inline).
    let mut args = vec![CqlArg::OutStr(None)];
    icdb.execute(
        "command:request_component;
         component_name: Adder_Subtractor;
         size: 4;
         strategy: fastest;
         component_instance: ?s",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStr(Some(first)) = args.remove(0) else {
        panic!()
    };

    // C-program form (%s and %d slots).
    let mut args = vec![
        CqlArg::InStr("Adder_Subtractor".into()),
        CqlArg::InInt(4),
        CqlArg::OutStr(None),
    ];
    icdb.execute(
        "command:request_component;
         component_name: %s;
         size: %d;
         strategy: fastest;
         component_instance: ?s",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStr(Some(second)) = &args[2] else {
        panic!()
    };
    let a = icdb.instance(&first).unwrap();
    let b = icdb.instance(second).unwrap();
    assert_eq!(a.netlist.gates.len(), b.netlist.gates.len());
    assert_eq!(&*a.implementation, "ADDSUB");
}

/// Appendix B §5.1: function query for ADD ∧ SUB.
#[test]
fn function_query_add_sub() {
    let mut icdb = Icdb::new();
    let mut args = vec![CqlArg::OutStrList(None)];
    icdb.execute(
        "command: function_query;
         function:(ADD,SUB);
         component:?s[]",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStrList(Some(components)) = &args[0] else {
        panic!()
    };
    assert!(
        components.iter().any(|c| c == "Adder_Subtractor"),
        "{components:?}"
    );
}

/// Appendix B §5.4: the connection query for an add_sub instance, checking
/// the `## function ADD … ** control value` structure.
#[test]
fn connect_component_add_sub() {
    let mut icdb = Icdb::new();
    let mut gen = vec![CqlArg::OutStr(None)];
    icdb.execute(
        "command:request_component; implementation:ADDSUB; size:4; instance:?s",
        &mut gen,
    )
    .unwrap();
    let CqlArg::OutStr(Some(add_sub_4)) = gen.remove(0) else {
        panic!()
    };

    let mut args = vec![CqlArg::InStr(add_sub_4), CqlArg::OutStr(None)];
    icdb.execute(
        "command:connect_component; instance:%s; connect:?s",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutStr(Some(connect)) = &args[1] else {
        panic!()
    };
    assert!(connect.contains("## function ADD"), "{connect}");
    assert!(connect.contains("## function SUB"), "{connect}");
    assert!(connect.contains("** ADDSUBCTL 0"), "{connect}");
    assert!(connect.contains("** ADDSUBCTL 1"), "{connect}");
}

/// Appendix B §7: the component-list lifecycle commands.
#[test]
fn component_list_lifecycle() {
    let mut icdb = Icdb::new();
    icdb.execute("command:start_a_design; design:mydesign", &mut [])
        .unwrap();
    icdb.execute("command:start_a_transaction; design:mydesign", &mut [])
        .unwrap();

    let mut gen = vec![CqlArg::OutStr(None)];
    icdb.execute(
        "command:request_component; implementation:ADDER; size:4; instance:?s",
        &mut gen,
    )
    .unwrap();
    let CqlArg::OutStr(Some(keeper)) = gen.remove(0) else {
        panic!()
    };
    let mut gen = vec![CqlArg::OutStr(None)];
    icdb.execute(
        "command:request_component; implementation:REGISTER; size:4; instance:?s",
        &mut gen,
    )
    .unwrap();
    let CqlArg::OutStr(Some(scratch)) = gen.remove(0) else {
        panic!()
    };

    let mut args = vec![CqlArg::InStr(keeper.clone())];
    icdb.execute(
        "command:put_in_component_list; design:mydesign; instance:%s",
        &mut args,
    )
    .unwrap();
    icdb.execute("command:end_a_transaction; design:mydesign", &mut [])
        .unwrap();
    assert!(icdb.instance(&keeper).is_ok(), "listed instance survives");
    assert!(
        icdb.instance(&scratch).is_err(),
        "unlisted instance deleted"
    );

    icdb.execute("command:end_a_design; design:mydesign", &mut [])
        .unwrap();
    assert!(
        icdb.instance(&keeper).is_err(),
        "design teardown deletes the list"
    );
}

/// Unknown commands and missing slots produce errors, not silence.
#[test]
fn cql_error_paths() {
    let mut icdb = Icdb::new();
    assert!(icdb.execute("command:frobnicate; x:1", &mut []).is_err());
    assert!(icdb.execute("no_command_term:1", &mut []).is_err());
    let mut args = vec![CqlArg::OutStr(None)];
    assert!(icdb
        .execute(
            "command:instance_query; instance:ghost; delay:?s",
            &mut args
        )
        .is_err());
}
