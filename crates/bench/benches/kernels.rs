//! Kernel micro-benchmarks: one million `i64` elements folded into a
//! single accumulator cell three ways.
//!
//! * **scalar** — the row path's shape: one boxed [`Accumulator::iter`]
//!   call per element, each value wrapped in a [`Value`];
//! * **morsel** — [`Kernel::update_i64`] over 2048-element morsels with
//!   [`Validity::All`], the branch-free loop the morsel scan runs;
//! * **morsel_masked** — the same update with an all-set validity word
//!   per 64 elements, the price of the word-at-a-time null-handling path
//!   when nothing is actually null.
//!
//! The first two bracket the kernel speedup claimed in DESIGN.md
//! "Vectorized kernels".

use criterion::{criterion_group, criterion_main, Criterion};
use dc_aggregate::{builtin, Kernel, KernelCell, Validity};
use dc_relation::Value;

const N: usize = 1_000_000;
const MORSEL: usize = 2048;

fn data() -> Vec<i64> {
    (0..N).map(|i| ((i / 64) % 1009) as i64).collect()
}

fn bench_update_paths(c: &mut Criterion) {
    let vals = data();
    let boxed: Vec<Value> = vals.iter().map(|&v| Value::Int(v)).collect();
    let all_set: Vec<u64> = vec![!0u64; MORSEL / 64];
    // Every row of a morsel lands in the one cell.
    let slots: Vec<u32> = vec![0; MORSEL];
    let mut group = c.benchmark_group("kernel_update_1m");
    group.sample_size(20);

    group.bench_function("scalar", |b| {
        let sum = builtin("SUM").unwrap();
        b.iter(|| {
            let mut acc = sum.init();
            for v in &boxed {
                acc.iter(v);
            }
            std::hint::black_box(acc.final_value())
        });
    });

    for (name, validity) in [
        ("morsel", Validity::All),
        ("morsel_masked", Validity::Words(&all_set)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cells = [KernelCell::default()];
                for chunk in vals.chunks(MORSEL) {
                    Kernel::Sum.update_i64(
                        &mut cells,
                        1,
                        0,
                        &slots[..chunk.len()],
                        chunk,
                        validity,
                    );
                }
                std::hint::black_box(cells)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_update_paths);
criterion_main!(benches);
