//! E2 / Fig. 6: shape-function estimation over the strip-count sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use icdb_bench::full_counter;

fn bench(c: &mut Criterion) {
    let mut icdb = icdb::Icdb::new();
    let name = full_counter(&mut icdb);
    let netlist = (*icdb.instance(&name).unwrap().netlist).clone();
    let cells = icdb.cells.clone();
    let mut group = c.benchmark_group("fig6_shape_function");
    group.sample_size(20);
    group.bench_function("estimate_shape_8_strips", |b| {
        b.iter(|| icdb::estimate::estimate_shape(&netlist, &cells, 8).unwrap())
    });
    group.bench_function("place_3_strips", |b| {
        b.iter(|| {
            icdb::layout::place(&netlist, &cells, 3, &icdb::layout::PortSpec::default()).unwrap()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
