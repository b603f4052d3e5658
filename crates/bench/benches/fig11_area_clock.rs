//! E7 / Fig. 11: transistor sizing against a sweep of clock-width
//! constraints at fixed output load.

use criterion::{criterion_group, criterion_main, Criterion};
use icdb::estimate::LoadSpec;
use icdb::sizing::{size_netlist, SizingGoal, Strategy};
use icdb_bench::full_counter;

fn bench(c: &mut Criterion) {
    let mut icdb = icdb::Icdb::new();
    let name = full_counter(&mut icdb);
    let base = (*icdb.instance(&name).unwrap().netlist).clone();
    let cells = icdb.cells.clone();
    let loads = LoadSpec::uniform(10.0);
    let min_cw = {
        let mut nl = base.clone();
        size_netlist(&mut nl, &cells, &loads, &Strategy::Fastest)
            .report
            .clock_width
    };
    let mut group = c.benchmark_group("fig11_area_clock");
    group.sample_size(10);
    for factor in [1.05f64, 1.2, 1.4] {
        group.bench_function(format!("size_to_cw_x{factor}"), |b| {
            b.iter(|| {
                let mut nl = base.clone();
                size_netlist(
                    &mut nl,
                    &cells,
                    &loads,
                    &Strategy::Constraints(SizingGoal::clock(min_cw * factor)),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
