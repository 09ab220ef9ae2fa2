//! Cube computation algorithms (§5 of the paper).
//!
//! Every algorithm consumes the same inputs — base rows, bound dimensions
//! and aggregates, and a grouping-set [`Lattice`] — and produces the same
//! cells, so results are interchangeable and property tests assert their
//! equality. What differs is the *work*, reported through
//! [`crate::ExecStats`]:
//!
//! | Algorithm | §5 reference | Cost shape |
//! |---|---|---|
//! | [`Algorithm::TwoToTheN`] | "the 2^N-algorithm" | `T × 2^N` Iter() calls, 1 scan |
//! | [`Algorithm::UnionGroupBys`] | §2's 64-way UNION | `2^N` scans, `T × 2^N` Iters |
//! | [`Algorithm::FromCore`] | "compute the super-aggregates from the core" | `T` Iters + cell merges |
//! | [`Algorithm::Sort`] | "sort the table ... then compute" (ROLLUP) | 1 sort + `T × N` Iters |
//! | [`Algorithm::Array`] | dense N-dimensional array over symbol tables | `T` Iters + array sweeps |
//! | [`Algorithm::Parallel`] | "use parallelism to aggregate each partition and then coalesce" | `T/P` Iters per thread + merges |
//! | [`Algorithm::PipeSort`] | the \[ADGNRS\] shared-sort idea | `C(N, N/2)` sorts, `T` Iters each |

pub(crate) mod array;
pub(crate) mod encoded;
pub(crate) mod from_core;
pub(crate) mod naive;
pub(crate) mod parallel;
pub(crate) mod pipesort;
pub(crate) mod sort;
pub(crate) mod unions;
pub(crate) mod vectorized;

pub use array::MAX_CELLS;
pub use from_core::ParentChoice;
pub use pipesort::symmetric_chains;

use crate::error::{CubeError, CubeResult, Resource};
use crate::exec::ExecContext;
use crate::groupby::{ExecStats, Grouped};
use crate::lattice::{rollup_sets, Lattice};
use crate::spec::{BoundAgg, BoundDimension};
use dc_aggregate::AggKind;
use dc_relation::Row;

/// Selects how a cube / rollup / grouping-sets query is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Pick automatically: holistic aggregates force the 2^N algorithm
    /// (§5: "We know of no more efficient way of computing
    /// super-aggregates of holistic functions"); otherwise cascade from
    /// the core.
    #[default]
    Auto,
    /// Update every matching cell of every grouping set for every input
    /// row.
    TwoToTheN,
    /// Run one independent GROUP BY per grouping set and union the
    /// results — the plan §2 predicts for the hand-written 64-way UNION.
    UnionGroupBys,
    /// Compute the core GROUP BY once, then cascade super-aggregates by
    /// merging scratchpads, dropping the smallest-cardinality dimension
    /// first.
    FromCore,
    /// Sort-based single-pass ROLLUP (rollup lattices only).
    Sort,
    /// Dense N-dimensional array over dictionary-encoded dimensions
    /// (full-cube lattices only; falls back with an error when the array
    /// would exceed [`array::MAX_CELLS`]).
    Array,
    /// PipeSort-style shared sorts (the paper's \[ADGNRS\] reference):
    /// cover the lattice with C(N, N/2) symmetric chains, one sorted
    /// scan each (full-cube lattices only).
    PipeSort,
    /// Partition the input across threads, aggregate each partition's
    /// core, coalesce by merging, then cascade.
    Parallel { threads: usize },
}

/// Per-query execution-path switches, threaded from [`crate::CubeQuery`]
/// down to the engines that honour them.
///
/// `encoded` enables the packed-`u64`-key engine for the hash-based
/// algorithms; `vectorize` additionally lets the from-core and parallel
/// paths run the columnar kernel engine when every aggregate kernelizes.
/// Results are identical on every path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathOpts {
    pub(crate) encoded: bool,
    pub(crate) vectorize: bool,
}

impl PathOpts {
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn new(encoded: bool, vectorize: bool) -> Self {
        PathOpts { encoded, vectorize }
    }
}

/// Execute the lattice with the chosen algorithm.
///
/// `opts.encoded` enables the packed-`u64`-key engine for the hash-based
/// algorithms (2^N, unions, from-core, parallel); each falls back to
/// `Row` keys automatically when the coordinate does not pack (see
/// [`crate::encode`]). `opts.vectorize` additionally lets the from-core
/// and parallel paths run the columnar kernel engine (see [`vectorized`])
/// when every aggregate kernelizes; it is ignored wherever the kernels
/// cannot apply. The sort- and array-based algorithms have their own key
/// machinery and ignore the options. Results are identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    algorithm: Algorithm,
    rows: &[Row],
    dims: &[BoundDimension],
    aggs: &[BoundAgg],
    lattice: &Lattice,
    stats: &mut ExecStats,
    opts: PathOpts,
    ctx: &ExecContext,
) -> CubeResult<Grouped> {
    let encoded = opts.encoded;
    // A UDA built without state()/merge() has a no-op Iter_super: any plan
    // that folds sub-aggregate scratchpads (from-core cascade, sort frame
    // closes, array slab sweeps, PipeSort chain hand-offs, parallel
    // coalescing) would silently drop its data. Such functions are still
    // legal — they just pin execution to the scan-per-cell 2^N path, after
    // each algorithm's own shape checks so error behavior is unchanged.
    let mergeable = aggs.iter().all(|a| a.func.mergeable());
    match algorithm {
        Algorithm::Auto => {
            if !mergeable || aggs.iter().any(|a| a.func.kind() == AggKind::Holistic) {
                naive::run(rows, dims, aggs, lattice, stats, encoded, ctx).map(Grouped::Rows)
            } else {
                from_core::run(rows, dims, aggs, lattice, stats, opts, ctx)
            }
        }
        Algorithm::TwoToTheN => {
            naive::run(rows, dims, aggs, lattice, stats, encoded, ctx).map(Grouped::Rows)
        }
        Algorithm::UnionGroupBys => {
            unions::run(rows, dims, aggs, lattice, stats, encoded, ctx).map(Grouped::Rows)
        }
        Algorithm::FromCore => {
            if !mergeable {
                return naive::run(rows, dims, aggs, lattice, stats, encoded, ctx)
                    .map(Grouped::Rows);
            }
            from_core::run(rows, dims, aggs, lattice, stats, opts, ctx)
        }
        Algorithm::Sort => {
            if lattice.sets() != rollup_sets(lattice.n_dims())?.as_slice() {
                return Err(CubeError::Unsupported(
                    "the sort algorithm applies only to ROLLUP lattices".into(),
                ));
            }
            if !mergeable {
                return naive::run(rows, dims, aggs, lattice, stats, encoded, ctx)
                    .map(Grouped::Rows);
            }
            sort::run(rows, dims, aggs, lattice, stats, ctx).map(Grouped::Rows)
        }
        Algorithm::Array => {
            if !lattice.is_full_cube() {
                return Err(CubeError::Unsupported(
                    "the dense array algorithm computes full cubes only".into(),
                ));
            }
            if !mergeable {
                return naive::run(rows, dims, aggs, lattice, stats, encoded, ctx)
                    .map(Grouped::Rows);
            }
            match array::run(rows, dims, aggs, lattice, stats, ctx) {
                // Degradation rung 1: the dense array's *projected* size is
                // checked before anything is materialized, so a cell/memory
                // trip here is free to retry on the sparse hash-based path
                // (which only pays for cells that actually exist).
                Err(CubeError::ResourceExhausted {
                    resource: Resource::Cells | Resource::MemoryBytes,
                    ..
                }) => {
                    stats.degraded_dense_to_sparse = true;
                    from_core::run(rows, dims, aggs, lattice, stats, opts, ctx)
                }
                other => other.map(Grouped::Rows),
            }
        }
        Algorithm::PipeSort => {
            if !lattice.is_full_cube() {
                return Err(CubeError::Unsupported(
                    "PipeSort computes full cubes only".into(),
                ));
            }
            if !mergeable {
                return naive::run(rows, dims, aggs, lattice, stats, encoded, ctx)
                    .map(Grouped::Rows);
            }
            pipesort::run(rows, dims, aggs, lattice, stats, ctx).map(Grouped::Rows)
        }
        Algorithm::Parallel { threads } => {
            if threads == 0 {
                return Err(CubeError::BadSpec("Parallel requires threads >= 1".into()));
            }
            if !mergeable {
                return naive::run(rows, dims, aggs, lattice, stats, encoded, ctx)
                    .map(Grouped::Rows);
            }
            parallel::run(rows, dims, aggs, lattice, threads, stats, opts, ctx)
        }
    }
}
