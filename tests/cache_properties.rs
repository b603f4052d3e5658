//! Property-based regression suite for the generation cache: a warm cache
//! hit must produce a result *identical* to the cold path (netlist,
//! area/delay estimates, CIF output), and the cache statistics must add up
//! (`hits + misses == requests` on the result layer).

use icdb::{ComponentRequest, Icdb, IcdbService};
use proptest::prelude::*;

/// Random well-formed component requests over the builtin library,
/// covering parameterized attributes and timing constraints.
fn arb_request() -> impl Strategy<Value = ComponentRequest> {
    prop_oneof![
        (2u32..6, 1u32..4, 0u32..2, 0u32..2).prop_map(|(size, ud, en, ld)| {
            ComponentRequest::by_component("counter")
                .attribute("size", size.to_string())
                .attribute("up_or_down", ud.to_string())
                .attribute("enable", en.to_string())
                .attribute("load", ld.to_string())
        }),
        (2u32..9).prop_map(|size| {
            ComponentRequest::by_implementation("ADDER").attribute("size", size.to_string())
        }),
        (2u32..6).prop_map(|size| {
            ComponentRequest::by_implementation("ALU").attribute("size", size.to_string())
        }),
        (1u32..3).prop_map(|blocks| {
            ComponentRequest::by_implementation("CSEL_ADDER")
                .attribute("size", (4 * blocks).to_string())
        }),
        (2u32..7, 20u32..40).prop_map(|(size, cw)| {
            ComponentRequest::by_component("register")
                .attribute("size", size.to_string())
                .clock_width(f64::from(cw))
        }),
    ]
}

/// Everything the acceptance criteria compare between two instances.
fn fingerprint(icdb: &Icdb, name: &str) -> (usize, f64, String, String, String, String) {
    let inst = icdb.instance(name).expect("generated");
    (
        inst.netlist.gates.len(),
        inst.area(),
        icdb.delay_string(name).unwrap(),
        icdb.shape_string(name).unwrap(),
        icdb.area_string(name).unwrap(),
        icdb.vhdl_netlist(name).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cold generation followed by a warm hit of the *same* request yields
    /// two instances with identical netlists, estimates and CIF layouts,
    /// and the result-layer statistics account for both lookups.
    #[test]
    fn warm_hit_equals_cold_generation(request in arb_request()) {
        let mut icdb = Icdb::new();
        let cold = icdb.request_component(&request).unwrap();
        let warm = icdb.request_component(&request).unwrap();
        prop_assert_ne!(&cold, &warm, "instances get distinct names");

        prop_assert_eq!(fingerprint(&icdb, &cold), fingerprint(&icdb, &warm));

        // CIF output of warm-hit netlists is byte-identical to cold.
        let cif_cold = icdb.cif_layout(&cold).unwrap();
        let cif_warm = icdb.cif_layout(&warm).unwrap();
        prop_assert_eq!(&*cif_cold, &*cif_warm);

        let stats = icdb.cache_stats();
        prop_assert_eq!(stats.result.misses, 1, "first request is cold");
        prop_assert_eq!(stats.result.hits, 1, "second request is warm");
        prop_assert_eq!(stats.result.lookups(), 2, "hits + misses == requests");
    }

    /// Statistics add up over an arbitrary request mix, and every repeat of
    /// an earlier request in the same session is a result-layer hit.
    #[test]
    fn cache_statistics_add_up(requests in proptest::collection::vec(arb_request(), 1..5)) {
        let mut icdb = Icdb::new();
        let mut issued = 0u64;
        for request in &requests {
            icdb.request_component(request).unwrap();
            icdb.request_component(request).unwrap();
            issued += 2;
        }
        let stats = icdb.cache_stats();
        prop_assert_eq!(stats.result.lookups(), issued, "hits + misses == requests");
        prop_assert!(stats.result.hits >= issued / 2, "every repeat is a hit");

        // The same numbers are visible through the relational store layer.
        icdb.publish_cache_stats().unwrap();
        let rows = icdb
            .db
            .query("SELECT hits, misses FROM cache_stats WHERE layer = 'result'")
            .unwrap();
        let hits = rows[0][0].as_int().unwrap() as u64;
        let misses = rows[0][1].as_int().unwrap() as u64;
        prop_assert_eq!(hits + misses, issued);
    }

    /// A warm hit served to a *different session* of the shared service is
    /// identical to solo cold generation: session isolation never changes
    /// payloads, only namespaces.
    #[test]
    fn cross_session_warm_hit_equals_solo_cold(request in arb_request()) {
        let service = IcdbService::shared();
        let primer = service.open_session();
        let reader = service.open_session();
        let primed = primer.request_component(&request).unwrap();
        let warmed = reader.request_component(&request).unwrap();
        prop_assert_eq!(&primed, &warmed, "fresh namespaces name identically");
        let stats = service.cache_stats();
        prop_assert_eq!(stats.result.misses, 1, "primer generated cold");
        prop_assert_eq!(stats.result.hits, 1, "reader was served warm");

        let mut solo = Icdb::new();
        let solo_name = solo.request_component(&request).unwrap();
        prop_assert_eq!(&solo_name, &warmed);
        prop_assert_eq!(
            solo.delay_string(&solo_name).unwrap(),
            reader.delay_string(&warmed).unwrap()
        );
        prop_assert_eq!(
            solo.shape_string(&solo_name).unwrap(),
            reader.shape_string(&warmed).unwrap()
        );
        prop_assert_eq!(
            solo.vhdl_netlist(&solo_name).unwrap(),
            reader.vhdl_netlist(&warmed).unwrap()
        );
        // Warm CIF layouts are byte-identical to solo cold ones too.
        prop_assert_eq!(
            &*solo.cif_layout(&solo_name).unwrap(),
            &*reader.cif_layout(&warmed).unwrap()
        );
    }
}

/// Batch generation equals sequential generation: same names (install order
/// is deterministic) and same per-instance results, for every worker count.
#[test]
fn batch_matches_sequential() {
    let requests: Vec<ComponentRequest> = vec![
        ComponentRequest::by_component("counter").attribute("size", "4"),
        ComponentRequest::by_implementation("ADDER").attribute("size", "6"),
        ComponentRequest::by_implementation("ALU").attribute("size", "3"),
        ComponentRequest::by_component("counter").attribute("size", "4"),
        ComponentRequest::by_implementation("COMPARATOR").attribute("size", "5"),
    ];
    let mut sequential = Icdb::new();
    let seq_names: Vec<String> = requests
        .iter()
        .map(|r| sequential.request_component(r).unwrap())
        .collect();
    for workers in [1, 2, 4] {
        let mut batched = Icdb::new();
        let batch_names = batched
            .request_components_batch(&requests, workers)
            .unwrap();
        assert_eq!(seq_names, batch_names, "workers={workers}");
        for name in &batch_names {
            assert_eq!(
                sequential.delay_string(name).unwrap(),
                batched.delay_string(name).unwrap()
            );
            assert_eq!(
                sequential.vhdl_netlist(name).unwrap(),
                batched.vhdl_netlist(name).unwrap()
            );
        }
    }
}

/// Batch workers read the cache the sequential path filled: a primed
/// request repeated across a parallel batch hits on every worker.
#[test]
fn batch_shares_cache_across_workers() {
    let request = ComponentRequest::by_component("counter").attribute("size", "5");
    let mut icdb = Icdb::new();
    icdb.request_component(&request).unwrap(); // prime (cold miss)
    let requests = vec![request.clone(), request.clone(), request.clone()];
    let names = icdb.request_components_batch(&requests, 3).unwrap();
    assert_eq!(names.len(), 3);
    let stats = icdb.cache_stats();
    assert_eq!(stats.result.lookups(), 4);
    assert_eq!(stats.result.misses, 1, "{stats:?}");
    assert_eq!(stats.result.hits, 3, "{stats:?}");

    // Hits answered on the calling thread and misses fanned out to the
    // workers still count one lookup per request.
    let mixed = vec![
        request.clone(),
        ComponentRequest::by_implementation("ADDER").attribute("size", "3"),
        request,
        ComponentRequest::by_implementation("ALU").attribute("size", "3"),
    ];
    icdb.request_components_batch(&mixed, 2).unwrap();
    let stats = icdb.cache_stats();
    assert_eq!(stats.result.misses, 3, "{stats:?}");
    assert_eq!(stats.result.hits, 5, "{stats:?}");
}

/// The `cache_query` CQL command surfaces the counters.
#[test]
fn cache_query_through_cql() {
    use icdb::cql::CqlArg;
    let mut icdb = Icdb::new();
    let request = ComponentRequest::by_component("counter").attribute("size", "4");
    icdb.request_component(&request).unwrap();
    icdb.request_component(&request).unwrap();
    let mut args = vec![
        CqlArg::OutInt(None),
        CqlArg::OutInt(None),
        CqlArg::OutInt(None),
    ];
    icdb.execute(
        "command:cache_query; layer:result; hits:?d; misses:?d; capacity:?d",
        &mut args,
    )
    .unwrap();
    let CqlArg::OutInt(Some(hits)) = args[0] else {
        panic!("no hits")
    };
    let CqlArg::OutInt(Some(misses)) = args[1] else {
        panic!("no misses")
    };
    let CqlArg::OutInt(Some(capacity)) = args[2] else {
        panic!("no capacity")
    };
    assert_eq!(hits, 1);
    assert_eq!(misses, 1);
    assert!(capacity > 0);
}

/// A bounded cache evicts instead of growing, and keeps counting.
#[test]
fn lru_bound_is_respected() {
    let mut icdb = Icdb::new();
    icdb.set_cache_capacity(2);
    for size in 2..8 {
        let request =
            ComponentRequest::by_implementation("ADDER").attribute("size", size.to_string());
        icdb.request_component(&request).unwrap();
    }
    let stats = icdb.cache_stats();
    assert!(stats.result.entries <= 2, "{stats:?}");
    assert!(stats.result.evictions >= 4, "{stats:?}");
    assert_eq!(stats.result.lookups(), 6);
}
