//! E6 / Fig. 10: transistor sizing to hold a clock-width target while the
//! output load sweeps 10 → 50 unit transistors.

use criterion::{criterion_group, criterion_main, Criterion};
use icdb::estimate::LoadSpec;
use icdb::sizing::{size_netlist, SizingGoal, Strategy};
use icdb_bench::full_counter;

fn bench(c: &mut Criterion) {
    let mut icdb = icdb::Icdb::new();
    let name = full_counter(&mut icdb);
    let base = (*icdb.instance(&name).unwrap().netlist).clone();
    let cells = icdb.cells.clone();
    let target = {
        let mut nl = base.clone();
        let r = size_netlist(
            &mut nl,
            &cells,
            &LoadSpec::uniform(50.0),
            &Strategy::Fastest,
        );
        (r.report.clock_width * 1.12).ceil()
    };
    let mut group = c.benchmark_group("fig10_area_load");
    group.sample_size(10);
    for load in [10.0, 30.0, 50.0] {
        group.bench_function(format!("size_to_cw_at_load_{load}"), |b| {
            b.iter(|| {
                let mut nl = base.clone();
                size_netlist(
                    &mut nl,
                    &cells,
                    &LoadSpec::uniform(load),
                    &Strategy::Constraints(SizingGoal::clock(target)),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
