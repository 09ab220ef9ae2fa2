//! Vectorized columnar execution over packed keys: morsel-driven scans
//! feeding the POD kernels of [`dc_aggregate::vectorized`].
//!
//! This is the fast lane beside [`super::encoded`]: the same packed-`u64`
//! group keys and the same cascade schedule, but the accumulators are
//! 24-byte [`KernelCell`]s in one flat `Vec` and the inner loop is a
//! monomorphized kernel over a primitive column slice instead of a virtual
//! `Accumulator::iter` per (row, aggregate). It engages only when
//! [`plan`] succeeds — every aggregate exposes a [`Kernel`] *and* every
//! measure column extracts as `i64`/`f64` + validity bitmap — so holistic
//! and user-defined aggregates (and exotic column contents) transparently
//! keep the Init/Iter/Final row path, with identical results.
//!
//! Scans are *morsel-driven* (Leis et al.'s term): workers pull fixed-size
//! row ranges from a shared atomic cursor rather than receiving pre-split
//! partitions, so a worker stuck on a skewed, collision-heavy range does
//! not leave the others idle. The serial scan walks the same morsels, and
//! every morsel boundary polls [`ExecContext::checkpoint`], bounding the
//! latency of cancellation and deadline trips.
//!
//! [`ExecStats`] accounting matches the row path exactly where the work is
//! equivalent (`rows_scanned` per row, `iter_calls` per (row, aggregate),
//! `merge_calls` per (parent cell, aggregate) in the cascade and per
//! collision in the parallel coalesce); rehydrating a cell into a boxed
//! accumulator at materialization time is *not* a merge — it is the same
//! bookkeeping the arena's `into_group_map` does for free.

use crate::encode::{EncodedInput, KeyEncoder};
use crate::error::CubeResult;
use crate::exec::{self, ExecContext};
use crate::groupby::ExecStats;
#[cfg(test)]
use crate::groupby::{GroupMap, SetMaps};
use crate::lattice::{GroupingSet, Lattice};
use crate::spec::BoundAgg;
use dc_aggregate::{FusedOp, Kernel, KernelCell, Validity};
use dc_relation::{Bitmap, Column, ColumnData, FxHashMap, Row};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use super::encoded::PARALLEL_CASCADE_MIN_CELLS;
use super::from_core::ParentChoice;

/// Rows per morsel: two checkpoint intervals, so morsel-grained polling
/// is at worst 2x coarser than the row paths' `tick`, while the slot
/// buffer (4 bytes/row) stays comfortably in L1. A multiple of 64, so a
/// morsel's validity bits start on a word boundary and kernels can take
/// whole-word [`Validity::Words`] slices.
pub(crate) const MORSEL_ROWS: usize = 2 * exec::CHECKPOINT_INTERVAL;

/// Widest packed key a dense slot table may cover: `2^16` entries is a
/// 256 KiB `u32` table — safely cache-resident next to the cells it
/// indexes, and far cheaper than a hash probe per row.
const DENSE_SLOT_BITS: u32 = 16;

/// Cells per parallel-materialize task: big enough that a chunk's decode
/// work dwarfs the cursor fetch, small enough that the final chunks of a
/// skewed set still spread across workers.
const EMIT_CHUNK_CELLS: usize = 4096;

/// One aggregate's vectorized input. Lanes over the same measure column
/// share one extracted vector (`SUM(units)` and `AVG(units)` in one
/// select list extract `units` once, not twice).
pub(crate) enum LaneInput {
    /// No column to read — COUNT(*) and COUNT over the unit input count
    /// rows, not values.
    Star,
    /// An `i64` measure column with its validity bitmap.
    Ints(Arc<(Vec<i64>, Bitmap)>),
    /// An `f64` measure column with its validity bitmap.
    Floats(Arc<(Vec<f64>, Bitmap)>),
}

/// One aggregate compiled to a kernel over a typed column.
pub(crate) struct Lane {
    kernel: Kernel,
    input: LaneInput,
    /// Whether the measure column has no NULLs — computed once at plan
    /// time so every morsel takes the branch-free [`Validity::All`] path
    /// instead of re-deriving it.
    all_valid: bool,
}

impl Lane {
    fn float_input(&self) -> bool {
        matches!(self.input, LaneInput::Floats(..))
    }
}

/// The compiled plan: one [`Lane`] per aggregate, in aggregate order.
pub(crate) struct KernelPlan {
    lanes: Vec<Lane>,
}

/// A qualified fused row-major scan: every lane is fully valid and reads
/// either nothing (counting lanes) or one shared `i64` column, so one
/// pass per morsel updates all of a row's adjacent lane cells while their
/// cache lines are hot instead of re-touching them per lane-major pass.
pub(crate) struct FusedScan {
    col: Arc<(Vec<i64>, Bitmap)>,
    ops: Vec<FusedOp>,
}

impl KernelPlan {
    /// The fused scan for this plan, if it qualifies (see [`FusedScan`]).
    /// Checked once per query; the scan loops take it as an `Option`.
    fn fused_ints(&self) -> Option<FusedScan> {
        let mut col: Option<&Arc<(Vec<i64>, Bitmap)>> = None;
        let mut ops = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            if !lane.all_valid {
                return None;
            }
            match &lane.input {
                LaneInput::Star => ops.push(FusedOp::Star),
                LaneInput::Ints(c) => {
                    match col {
                        None => col = Some(c),
                        Some(prev) if Arc::ptr_eq(prev, c) => {}
                        Some(_) => return None,
                    }
                    ops.push(match lane.kernel {
                        // All-valid COUNT(x) counts every row, same as *.
                        Kernel::Count | Kernel::CountStar => FusedOp::Star,
                        Kernel::Sum => FusedOp::Sum,
                        Kernel::Min => FusedOp::Min,
                        Kernel::Max => FusedOp::Max,
                        Kernel::Avg => FusedOp::Avg,
                    });
                }
                LaneInput::Floats(_) => return None,
            }
        }
        Some(FusedScan {
            col: Arc::clone(col?),
            ops,
        })
    }
}

/// Try to compile every aggregate to a kernel lane. `None` — an aggregate
/// without a kernel (holistic, user-defined, PRODUCT, ...) or a measure
/// column that is not purely `Int`/`NULL` or `Float`/`NULL` — sends the
/// whole query down the row path.
pub(crate) fn plan(rows: &[Row], aggs: &[BoundAgg]) -> Option<KernelPlan> {
    if aggs.is_empty() {
        return None;
    }
    // One extraction per distinct measure column, shared across lanes.
    enum Extracted {
        Ints(Arc<(Vec<i64>, Bitmap)>),
        Floats(Arc<(Vec<f64>, Bitmap)>),
    }
    let mut columns: FxHashMap<usize, Option<Extracted>> = FxHashMap::default();
    let mut lanes = Vec::with_capacity(aggs.len());
    for a in aggs {
        let kernel = a.func.kernel()?;
        let input = match a.input {
            // The unit input is a constant non-NULL value: only the
            // counting kernels read nothing and stay correct.
            None => match kernel {
                Kernel::Count | Kernel::CountStar => LaneInput::Star,
                _ => return None,
            },
            Some(idx) => match kernel {
                Kernel::CountStar => LaneInput::Star,
                _ => {
                    let extracted = columns.entry(idx).or_insert_with(|| {
                        if let Some(col) = Column::try_ints(rows, idx) {
                            let ColumnData::Int(vals) = col.data else {
                                // cube-lint: allow(panic, try_ints only ever builds Int column data)
                                unreachable!()
                            };
                            Some(Extracted::Ints(Arc::new((vals, col.validity))))
                        } else if let Some(col) = Column::try_floats(rows, idx) {
                            let ColumnData::Float(vals) = col.data else {
                                // cube-lint: allow(panic, try_floats only ever builds Float column data)
                                unreachable!()
                            };
                            Some(Extracted::Floats(Arc::new((vals, col.validity))))
                        } else {
                            None
                        }
                    });
                    match extracted {
                        Some(Extracted::Ints(c)) => LaneInput::Ints(Arc::clone(c)),
                        Some(Extracted::Floats(c)) => LaneInput::Floats(Arc::clone(c)),
                        None => return None,
                    }
                }
            },
        };
        let all_valid = match &input {
            LaneInput::Star => true,
            LaneInput::Ints(c) => c.1.all_valid(),
            LaneInput::Floats(c) => c.1.all_valid(),
        };
        lanes.push(Lane {
            kernel,
            input,
            all_valid,
        });
    }
    Some(KernelPlan { lanes })
}

/// How a [`KernelArena`] resolves a packed key to a cell slot.
enum SlotIndex {
    /// General case: one Fx hash map over full keys.
    Map(FxHashMap<u64, u32>),
    /// Small key spaces (`table.len() == 1 << key_bits`, so every packed
    /// key indexes it): `table[key]` holds `slot + 1` (0 = empty) — the
    /// §5 dense-array idea applied to slot resolution.
    Dense(Vec<u32>),
}

/// Flat kernel-cell storage for one grouping set, mirroring
/// [`super::encoded::Arena`]: the index resolves a packed key to a cell
/// slot, `keys[slot]` remembers the full key for decoding, and cell
/// `i`'s lanes occupy `cells[i*n_lanes..(i+1)*n_lanes]`. Slots are
/// assigned in first-touch order, so iteration over `keys` is
/// deterministic.
pub(crate) struct KernelArena {
    index: SlotIndex,
    keys: Vec<u64>,
    cells: Vec<KernelCell>,
    n_lanes: usize,
}

impl KernelArena {
    fn new(n_lanes: usize) -> Self {
        KernelArena {
            index: SlotIndex::Map(FxHashMap::default()),
            keys: Vec::new(),
            cells: Vec::new(),
            n_lanes,
        }
    }

    fn with_capacity(n_lanes: usize, cells: usize) -> Self {
        KernelArena {
            index: SlotIndex::Map(FxHashMap::with_capacity_and_hasher(
                cells,
                Default::default(),
            )),
            keys: Vec::with_capacity(cells),
            cells: Vec::with_capacity(cells * n_lanes),
            n_lanes,
        }
    }

    /// A dense-indexed arena over `key_bits`-wide packed keys.
    fn dense(n_lanes: usize, key_bits: u32) -> Self {
        KernelArena {
            index: SlotIndex::Dense(vec![0u32; 1 << key_bits]),
            keys: Vec::new(),
            cells: Vec::new(),
            n_lanes,
        }
    }

    /// Whether dense slot resolution pays: the key space is at most
    /// [`DENSE_SLOT_BITS`] wide *and* small relative to the expected
    /// input (`hint` rows/cells) — a giant mostly-empty table loses to
    /// the hash map on allocation and cache footprint alone.
    fn dense_fits(key_bits: u32, hint: usize) -> bool {
        key_bits <= DENSE_SLOT_BITS && (1usize << key_bits) <= (64 * hint).max(1024)
    }

    /// A dense arena when [`Self::dense_fits`], else an unsized hash map.
    fn sized_for(n_lanes: usize, key_bits: u32, hint: usize) -> Self {
        if KernelArena::dense_fits(key_bits, hint) {
            KernelArena::dense(n_lanes, key_bits)
        } else {
            KernelArena::new(n_lanes)
        }
    }

    fn n_cells(&self) -> usize {
        self.keys.len()
    }

    /// The cell slot for `key`; a fresh cell charges the budget and
    /// zero-initializes its lanes (the kernels' Init is `default()` — no
    /// user code, so no panic guard needed).
    #[inline]
    fn slot(&mut self, key: u64, ctx: &ExecContext) -> CubeResult<u32> {
        let next = self.keys.len() as u32;
        match &mut self.index {
            SlotIndex::Map(map) => match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => return Ok(*e.get()),
                std::collections::hash_map::Entry::Vacant(e) => {
                    ctx.charge_cells(1)?;
                    e.insert(next);
                }
            },
            SlotIndex::Dense(table) => {
                let t = &mut table[key as usize];
                if *t != 0 {
                    return Ok(*t - 1);
                }
                ctx.charge_cells(1)?;
                *t = next + 1;
            }
        }
        self.keys.push(key);
        self.cells
            .resize(self.cells.len() + self.n_lanes, KernelCell::default());
        Ok(next)
    }

    /// Resolve one morsel of keys to slots, appended to `slot_buf`. For
    /// dense arenas the index `match` (and its bounds state) is hoisted
    /// out of the per-row loop; other arenas fall back to [`Self::slot`].
    #[inline]
    fn slots_for(
        &mut self,
        morsel_keys: &[u64],
        slot_buf: &mut Vec<u32>,
        ctx: &ExecContext,
    ) -> CubeResult<()> {
        if let SlotIndex::Dense(table) = &mut self.index {
            // cube-lint: allow(checkpoint, bounded by one morsel; the caller checkpoints per morsel)
            for &key in morsel_keys {
                let t = &mut table[key as usize];
                if *t != 0 {
                    slot_buf.push(*t - 1);
                    continue;
                }
                ctx.charge_cells(1)?;
                let next = self.keys.len() as u32;
                *t = next + 1;
                self.keys.push(key);
                self.cells
                    .resize(self.cells.len() + self.n_lanes, KernelCell::default());
                slot_buf.push(next);
            }
            return Ok(());
        }
        // cube-lint: allow(checkpoint, bounded by one morsel; the caller checkpoints per morsel)
        for &key in morsel_keys {
            let s = self.slot(key, ctx)?;
            slot_buf.push(s);
        }
        Ok(())
    }

    /// Slot lookup-or-insert without budget accounting and without cell
    /// allocation — the parallel coalesce, where cells were already
    /// charged by the worker that created them and fresh slots adopt the
    /// worker's cells wholesale. Returns `(slot, fresh)`.
    #[inline]
    fn entry_uncharged(&mut self, key: u64) -> (u32, bool) {
        let next = self.keys.len() as u32;
        let (slot, fresh) = match &mut self.index {
            SlotIndex::Map(map) => match map.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => (*e.get(), false),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(next);
                    (next, true)
                }
            },
            SlotIndex::Dense(table) => {
                let t = &mut table[key as usize];
                if *t != 0 {
                    (*t - 1, false)
                } else {
                    *t = next + 1;
                    (next, true)
                }
            }
        };
        if fresh {
            self.keys.push(key);
        }
        (slot, fresh)
    }

    /// Rehydrate every cell into boxed row-path accumulators keyed by
    /// decoded `Row`s. Production code materializes straight from cells
    /// via [`KernelSets::materialize`]; this hydration exists so tests
    /// can compare kernel results against row-path `GroupMap`s cell by
    /// cell.
    #[cfg(test)]
    fn into_group_map(
        self,
        encoder: &KeyEncoder,
        plan: &KernelPlan,
        aggs: &[BoundAgg],
    ) -> CubeResult<GroupMap> {
        let n = self.n_lanes;
        let mut map = GroupMap::with_capacity_and_hasher(self.keys.len(), Default::default());
        for (slot, &key) in self.keys.iter().enumerate() {
            let base = slot * n;
            let mut accs = Vec::with_capacity(n);
            for (lane, (cell, agg)) in plan
                .lanes
                .iter()
                .zip(self.cells[base..base + n].iter().zip(aggs))
            {
                let mut acc = exec::guard(agg.func.name(), || agg.func.init())?;
                lane.kernel
                    .rehydrate(acc.as_mut(), cell, lane.float_input());
                accs.push(acc);
            }
            map.insert(encoder.decode_key(key), accs);
        }
        Ok(map)
    }
}

/// The vectorized query result: one kernel arena per grouping set (in
/// lattice order) plus what is needed to decode keys and finalize cells.
/// The counterpart of [`SetMaps`] that never boxes an accumulator —
/// finals come straight from the POD cells at materialization time.
pub(crate) struct KernelSets {
    pub(crate) sets: Vec<(GroupingSet, KernelArena)>,
    plan: KernelPlan,
    encoder: KeyEncoder,
}

impl KernelSets {
    /// The direct materializer: the exact output contract of
    /// [`crate::groupby::materialize`] (sets in lattice order, each set's
    /// rows sorted by key with `ALL` collating last, one `final_calls`
    /// per (cell, aggregate)) without the `GroupMap` detour.
    pub(crate) fn materialize(
        self,
        schema: dc_relation::Schema,
        stats: &mut ExecStats,
        ctx: &ExecContext,
    ) -> CubeResult<dc_relation::Table> {
        exec::failpoint("materialize")?;
        let KernelSets {
            sets,
            plan,
            encoder,
        } = self;
        let n = plan.lanes.len();
        let nd = encoder.n_dims();
        // Sort each set by collation-remapped keys — a plain `u64` sort in
        // decoded-`Row` order — then decode each key exactly once while
        // emitting. Decode-then-compare-`Row`s costs ~10× more on large
        // results.
        let collator = encoder.collator();

        // Per-set prep: collation-sort the cells and invert to a
        // slot -> output-rank map, laying out each set's base offset in
        // the final table. Rows are then *emitted in slot order* — keys
        // and cells stream sequentially instead of one gather cache miss
        // per cell — and each decoded row scatters to its ranked slot.
        let mut ranks: Vec<Vec<u32>> = Vec::with_capacity(sets.len());
        let mut bases: Vec<usize> = Vec::with_capacity(sets.len());
        let mut total = 0usize;
        let mut order: Vec<(u64, u32)> = Vec::new();
        for (_set, arena) in &sets {
            ctx.checkpoint()?;
            order.clear();
            order.extend(
                arena
                    .keys
                    .iter()
                    .enumerate()
                    .map(|(slot, &key)| (collator.sort_key(key), slot as u32)),
            );
            order.sort_unstable_by_key(|c| c.0);
            let mut rank: Vec<u32> = vec![0; order.len()];
            for (i, &(_, slot)) in order.iter().enumerate() {
                rank[slot as usize] = i as u32;
            }
            ranks.push(rank);
            bases.push(total);
            total += arena.keys.len();
        }

        // Decode slots `[lo, hi)` of set `si` into `(output index, Row)`
        // pairs. Shared by the serial and parallel emitters below.
        let emit = |si: usize,
                    lo: usize,
                    hi: usize,
                    out: &mut Vec<(usize, Row)>,
                    final_calls: &mut u64,
                    ctx: &ExecContext|
         -> CubeResult<()> {
            let arena = &sets[si].1;
            let (rank, set_base) = (&ranks[si], bases[si]);
            for ((off, &key), &rk) in arena.keys[lo..hi].iter().enumerate().zip(&rank[lo..hi]) {
                let slot = lo + off;
                ctx.tick(slot)?;
                let mut vals = Vec::with_capacity(nd + n);
                encoder.append_key(key, &mut vals);
                let cbase = slot * n;
                // cube-lint: allow(checkpoint, bounded by the lane count; the cell loop above ticks)
                for (lane, cell) in plan.lanes.iter().zip(&arena.cells[cbase..cbase + n]) {
                    // cube-lint: allow(guard, engine-owned POD kernel, runs no user code)
                    vals.push(lane.kernel.final_value(cell, lane.float_input()));
                    *final_calls += 1;
                }
                out.push((set_base + rk as usize, Row::new(vals)));
            }
            Ok(())
        };

        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        let mut rows: Vec<Row> = vec![Row::new(Vec::new()); total];
        if threads > 1 && total >= PARALLEL_CASCADE_MIN_CELLS {
            // Large results: workers pull fixed slot chunks from a cursor
            // (decode cost is uniform per cell, and chunks keep the
            // sequential-read layout), then one pass scatters the built
            // rows — cheap `Row` moves — into final positions.
            let mut tasks: Vec<(usize, usize, usize)> = Vec::new();
            for (si, (_, arena)) in sets.iter().enumerate() {
                let mut lo = 0;
                while lo < arena.keys.len() {
                    let hi = (lo + EMIT_CHUNK_CELLS).min(arena.keys.len());
                    tasks.push((si, lo, hi));
                    lo = hi;
                }
            }
            let cursor = AtomicUsize::new(0);
            type EmitOutcome = (CubeResult<Vec<(usize, Row)>>, u64);
            let emit_ref = &emit;
            let tasks_ref = &tasks;
            let cursor_ref = &cursor;
            let outcomes: Vec<EmitOutcome> = crossbeam::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads.min(tasks.len()))
                    .map(|_| {
                        scope.spawn(move |_| -> EmitOutcome {
                            let mut out = Vec::new();
                            let mut final_calls = 0u64;
                            loop {
                                // cube-lint: allow(atomic, morsel work-claim counter: each claimed task is consumed only by the claiming thread, over data made visible by the scoped spawn)
                                let t = cursor_ref.fetch_add(1, Ordering::Relaxed);
                                if t >= tasks_ref.len() {
                                    break;
                                }
                                let (si, lo, hi) = tasks_ref[t];
                                if let Err(e) =
                                    emit_ref(si, lo, hi, &mut out, &mut final_calls, ctx)
                                {
                                    return (Err(e), final_calls);
                                }
                            }
                            (Ok(out), final_calls)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|p| {
                            (Err(exec::panic_error("materialize", p.as_ref())), 0)
                        })
                    })
                    .collect()
            })
            .unwrap_or_else(|p| vec![(Err(exec::panic_error("materialize", p.as_ref())), 0)]);
            // Fold every worker's stats in before surfacing the first
            // error, mirroring the scan and cascade scopes.
            let mut failed = None;
            for (result, final_calls) in outcomes {
                stats.final_calls += final_calls;
                match result {
                    Ok(pairs) => {
                        // cube-lint: allow(checkpoint, plain Row moves; workers polled per cell while decoding)
                        for (idx, row) in pairs {
                            rows[idx] = row;
                        }
                    }
                    Err(e) => failed = failed.or(Some(e)),
                }
            }
            if let Some(e) = failed {
                return Err(e);
            }
        } else {
            let mut out: Vec<(usize, Row)> = Vec::new();
            let mut final_calls = 0u64;
            for (si, set) in sets.iter().enumerate() {
                out.clear();
                emit(si, 0, set.1.keys.len(), &mut out, &mut final_calls, ctx)?;
                // cube-lint: allow(checkpoint, plain Row moves; emit above polled per cell)
                for (idx, row) in out.drain(..) {
                    rows[idx] = row;
                }
            }
            stats.final_calls += final_calls;
        }
        Ok(dc_relation::Table::from_validated_rows(schema, rows))
    }

    /// Hydrate into the row-path representation — test-only, for
    /// comparing against row-engine `SetMaps` cell by cell.
    #[cfg(test)]
    pub(crate) fn into_set_maps(self, aggs: &[BoundAgg]) -> CubeResult<SetMaps> {
        let KernelSets {
            sets,
            plan,
            encoder,
        } = self;
        sets.into_iter()
            .map(|(s, arena)| Ok((s, arena.into_group_map(&encoder, &plan, aggs)?)))
            .collect()
    }
}

/// The validity words for morsel rows `[base, base + n)`: morsels start
/// on 64-row boundaries, so this is a whole-word slice of the column's
/// bitmap (tail bits past the column end are zero by construction).
fn morsel_validity(bitmap: &Bitmap, all_valid: bool, base: usize, n: usize) -> Validity<'_> {
    if all_valid {
        Validity::All
    } else {
        Validity::Words(&bitmap.words()[base / 64..(base + n).div_ceil(64)])
    }
}

/// Run every lane's kernel over one morsel. `slots[j]` is the group slot
/// of row `base + j`; `iter_calls` counts one fold per (row, lane), the
/// row path's accounting.
fn update_morsel(
    arena: &mut KernelArena,
    plan: &KernelPlan,
    fused: Option<&FusedScan>,
    slots: &[u32],
    base: usize,
    stats: &mut ExecStats,
) {
    debug_assert_eq!(base % 64, 0);
    let n = slots.len();
    let stride = plan.lanes.len();
    if let Some(f) = fused {
        dc_aggregate::update_i64_fused(&mut arena.cells, &f.ops, slots, &f.col.0[base..base + n]);
        stats.iter_calls += (n * stride) as u64;
        return;
    }
    for (l, lane) in plan.lanes.iter().enumerate() {
        match &lane.input {
            LaneInput::Star => Kernel::update_star(&mut arena.cells, stride, l, slots),
            LaneInput::Ints(col) => lane.kernel.update_i64(
                &mut arena.cells,
                stride,
                l,
                slots,
                &col.0[base..base + n],
                morsel_validity(&col.1, lane.all_valid, base, n),
            ),
            LaneInput::Floats(col) => lane.kernel.update_f64(
                &mut arena.cells,
                stride,
                l,
                slots,
                &col.0[base..base + n],
                morsel_validity(&col.1, lane.all_valid, base, n),
            ),
        }
        stats.iter_calls += slots.len() as u64;
    }
}

/// Scan one morsel `[base, end)` into `arena`: resolve every row's slot
/// (charging fresh cells), then one kernel pass per lane.
#[allow(clippy::too_many_arguments)]
fn scan_morsel(
    arena: &mut KernelArena,
    enc: &EncodedInput,
    plan: &KernelPlan,
    fused: Option<&FusedScan>,
    slot_buf: &mut Vec<u32>,
    base: usize,
    end: usize,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<()> {
    exec::failpoint("vectorized::morsel")?;
    ctx.checkpoint()?;
    slot_buf.clear();
    let resolved = arena.slots_for(&enc.keys[base..end], slot_buf, ctx);
    // On a mid-morsel budget trip, the slots resolved so far are the rows
    // actually scanned — surface that partial progress in the error stats.
    stats.rows_scanned += if resolved.is_ok() {
        (end - base) as u64
    } else {
        slot_buf.len() as u64
    };
    resolved?;
    update_morsel(arena, plan, fused, slot_buf, base, stats);
    stats.morsels_processed += 1;
    Ok(())
}

/// The core GROUP BY: a serial morsel walk (row order preserved, so float
/// accumulation is bit-identical to the row path).
fn compute_core(
    enc: &EncodedInput,
    plan: &KernelPlan,
    n_rows: usize,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<KernelArena> {
    exec::failpoint("core::scan")?;
    let mut arena = KernelArena::sized_for(plan.lanes.len(), enc.encoder.total_bits(), n_rows);
    let fused = plan.fused_ints();
    let mut slot_buf = Vec::with_capacity(MORSEL_ROWS.min(n_rows));
    let mut base = 0;
    // cube-lint: allow(checkpoint, scan_morsel checkpoints at its own failpoint per morsel)
    while base < n_rows {
        let end = (base + MORSEL_ROWS).min(n_rows);
        scan_morsel(
            &mut arena,
            enc,
            plan,
            fused.as_ref(),
            &mut slot_buf,
            base,
            end,
            stats,
            ctx,
        )?;
        base = end;
    }
    Ok(arena)
}

/// From-core on kernels: core scan + [`cascade`]. Takes the plan by value
/// — the returned [`KernelSets`] owns it through materialization.
pub(crate) fn from_core(
    enc: &EncodedInput,
    plan: KernelPlan,
    n_rows: usize,
    lattice: &Lattice,
    choice: ParentChoice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<KernelSets> {
    // Recorded before the scan so partial stats on a budget trip already
    // say which engine was running.
    stats.vectorized_kernels_used = stats.vectorized_kernels_used.max(plan.lanes.len() as u64);
    let core = compute_core(enc, &plan, n_rows, stats, ctx)?;
    let sets = cascade(core, &enc.encoder, &plan, lattice, choice, stats, ctx)?;
    Ok(KernelSets {
        sets,
        plan,
        encoder: enc.encoder.clone(),
    })
}

/// Build one child set by folding a parent arena through the set's mask —
/// the paper's Iter_super, one `merge` per (parent cell, lane), the same
/// count as the accumulator cascades.
fn merged_child(
    parent: &KernelArena,
    mask: u64,
    key_bits: u32,
    plan: &KernelPlan,
    ctx: &ExecContext,
) -> CubeResult<(KernelArena, u64)> {
    let n = plan.lanes.len();
    let hint = parent.n_cells() / 2 + 1;
    // Children index masked keys through the same packed-key space, so a
    // narrow encoder gets the dense table here too; wide keys keep a
    // pre-sized map (children shrink, but rarely below half the parent).
    let mut child = if KernelArena::dense_fits(key_bits, hint) {
        KernelArena::dense(n, key_bits)
    } else {
        KernelArena::with_capacity(n, hint)
    };
    let mut merges = 0u64;
    for (pslot, &pkey) in parent.keys.iter().enumerate() {
        ctx.tick(pslot)?;
        let cslot = child.slot(pkey & mask, ctx)? as usize;
        let pbase = pslot * n;
        let srcs = &parent.cells[pbase..pbase + n];
        let dsts = &mut child.cells[cslot * n..(cslot + 1) * n];
        for ((lane, src), dst) in plan.lanes.iter().zip(srcs).zip(dsts) {
            lane.kernel
                // cube-lint: allow(guard, engine-owned POD kernel, runs no user code)
                .merge(dst, src, lane.float_input());
            merges += 1;
        }
    }
    Ok((child, merges))
}

/// The cascade over kernel arenas, parallel by lattice level with
/// task-pulling workers.
///
/// The level-at-a-time schedule is inherited from the accumulator cascade
/// (parents always live in earlier levels); within a level, workers pull
/// `(set, parent)` tasks from an atomic cursor instead of receiving
/// pre-chunked slices, so one slow set (a huge parent arena) does not
/// serialize the rest of its chunk behind it.
fn cascade(
    core: KernelArena,
    encoder: &KeyEncoder,
    plan: &KernelPlan,
    lattice: &Lattice,
    choice: ParentChoice,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<Vec<(GroupingSet, KernelArena)>> {
    let core_set = lattice.core();
    let cardinalities = encoder.cardinalities();

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let go_parallel = threads > 1 && core.n_cells() >= PARALLEL_CASCADE_MIN_CELLS;

    let mut done: FxHashMap<GroupingSet, KernelArena> = FxHashMap::default();
    let mut order: Vec<GroupingSet> = Vec::with_capacity(lattice.sets().len());
    done.insert(core_set, core);
    order.push(core_set);

    let sets: Vec<GroupingSet> = lattice
        .sets()
        .iter()
        .copied()
        .filter(|&s| s != core_set)
        .collect();
    let mut i = 0;
    while i < sets.len() {
        let arity = sets[i].len();
        let mut level: Vec<(GroupingSet, GroupingSet)> = Vec::new();
        while i < sets.len() && sets[i].len() == arity {
            let set = sets[i];
            let parent = match choice {
                ParentChoice::AlwaysCore => core_set,
                ParentChoice::SmallestCardinality => {
                    lattice.choose_parent(set, &cardinalities, &order)
                }
                ParentChoice::LargestCardinality => {
                    super::from_core::choose_largest(lattice, set, &cardinalities, &order)
                }
            };
            level.push((set, parent));
            i += 1;
        }

        let built: Vec<(GroupingSet, KernelArena, u64)> = if go_parallel && level.len() > 1 {
            let workers = threads.min(level.len());
            let cursor = AtomicUsize::new(0);
            let done_ref = &done;
            let level_ref = &level;
            let cursor_ref = &cursor;
            // Join every handle before surfacing any error — see the
            // accumulator cascade.
            let joined: Vec<CubeResult<Vec<(GroupingSet, KernelArena, u64)>>> =
                crossbeam::thread::scope(|scope| {
                    let handles: Vec<_> = (0..workers)
                        .map(|_| {
                            scope.spawn(move |_| -> CubeResult<Vec<_>> {
                                exec::failpoint("cascade::level")?;
                                let mut built = Vec::new();
                                loop {
                                    // cube-lint: allow(atomic, morsel work-claim counter: each claimed task is consumed only by the claiming thread, over data made visible by the scoped spawn)
                                    let t = cursor_ref.fetch_add(1, Ordering::Relaxed);
                                    if t >= level_ref.len() {
                                        break;
                                    }
                                    let (set, parent) = level_ref[t];
                                    ctx.checkpoint()?;
                                    let (arena, merges) = merged_child(
                                        &done_ref[&parent],
                                        encoder.set_mask(set),
                                        encoder.total_bits(),
                                        plan,
                                        ctx,
                                    )?;
                                    built.push((set, arena, merges));
                                }
                                Ok(built)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join().unwrap_or_else(|p| {
                                Err(exec::panic_error("cascade::level", p.as_ref()))
                            })
                        })
                        .collect()
                })
                .unwrap_or_else(|p| vec![Err(exec::panic_error("cascade::level", p.as_ref()))]);
            let mut built = Vec::new();
            for part in joined {
                built.extend(part?);
            }
            built
        } else {
            exec::failpoint("cascade::level")?;
            let mut built = Vec::with_capacity(level.len());
            for &(set, parent) in &level {
                ctx.checkpoint()?;
                let (arena, merges) = merged_child(
                    &done[&parent],
                    encoder.set_mask(set),
                    encoder.total_bits(),
                    plan,
                    ctx,
                )?;
                built.push((set, arena, merges));
            }
            built
        };

        for (set, arena, merges) in built {
            stats.merge_calls += merges;
            done.insert(set, arena);
            order.push(set);
        }
    }

    Ok(lattice
        .sets()
        .iter()
        // cube-lint: allow(panic, the cascade above materializes each lattice set exactly once)
        .map(|s| (*s, done.remove(s).expect("every set materialized")))
        .collect())
}

/// Morsel-driven parallel aggregation: `threads` workers pull morsels from
/// one atomic row cursor — load balance is automatic at adversarial skews
/// (a worker bogged down in a collision-heavy range simply pulls fewer
/// morsels). Partition arenas coalesce by adopting first-seen cells (POD
/// copy, no merge counted) and merging collisions, then the cascade runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn parallel(
    enc: &EncodedInput,
    plan: KernelPlan,
    n_rows: usize,
    lattice: &Lattice,
    threads: usize,
    stats: &mut ExecStats,
    ctx: &ExecContext,
) -> CubeResult<KernelSets> {
    stats.vectorized_kernels_used = stats.vectorized_kernels_used.max(plan.lanes.len() as u64);
    let threads = threads.max(1).min(n_rows.max(1));
    stats.threads_used = stats.threads_used.max(threads as u32);

    let cursor = AtomicUsize::new(0);
    // Each worker reports its local stats alongside the result so that a
    // budget trip mid-morsel still surfaces the scan progress made before
    // the trip in the error's partial [`ExecStats`].
    type WorkerOutcome = (CubeResult<KernelArena>, ExecStats);
    let partials: Vec<WorkerOutcome> = {
        let plan = &plan;
        crossbeam::thread::scope(|scope| {
            let cursor_ref = &cursor;
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(move |_| -> WorkerOutcome {
                        let mut local = ExecStats::default();
                        if let Err(e) = exec::failpoint("parallel::worker") {
                            return (Err(e), local);
                        }
                        let mut arena = KernelArena::sized_for(
                            plan.lanes.len(),
                            enc.encoder.total_bits(),
                            n_rows / threads + 1,
                        );
                        let fused = plan.fused_ints();
                        let mut slot_buf = Vec::with_capacity(MORSEL_ROWS);
                        loop {
                            // cube-lint: allow(atomic, morsel work-claim counter: each claimed range is consumed only by the claiming thread, over data made visible by the scoped spawn)
                            let base = cursor_ref.fetch_add(MORSEL_ROWS, Ordering::Relaxed);
                            if base >= n_rows {
                                break;
                            }
                            let end = (base + MORSEL_ROWS).min(n_rows);
                            if let Err(e) = scan_morsel(
                                &mut arena,
                                enc,
                                plan,
                                fused.as_ref(),
                                &mut slot_buf,
                                base,
                                end,
                                &mut local,
                                ctx,
                            ) {
                                return (Err(e), local);
                            }
                        }
                        (Ok(arena), local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|p| {
                        (
                            Err(exec::panic_error("parallel::worker", p.as_ref())),
                            ExecStats::default(),
                        )
                    })
                })
                .collect()
        })
        .unwrap_or_else(|p| {
            vec![(
                Err(exec::panic_error("parallel::worker", p.as_ref())),
                ExecStats::default(),
            )]
        })
    };

    let n = plan.lanes.len();
    let mut core = KernelArena::sized_for(n, enc.encoder.total_bits(), n_rows);
    // Fold every worker's stats in before propagating the first error —
    // the whole point of reporting them separately.
    let mut failed = None;
    let mut arenas = Vec::with_capacity(partials.len());
    for (result, local) in partials {
        stats.add(&local);
        match result {
            Ok(arena) => arenas.push(arena),
            Err(e) => failed = failed.or(Some(e)),
        }
    }
    if let Some(e) = failed {
        return Err(e);
    }
    for partial in arenas {
        for (pslot, &key) in partial.keys.iter().enumerate() {
            let pbase = pslot * n;
            let (cslot, fresh) = core.entry_uncharged(key);
            if fresh {
                // First worker to produce this cell: adopt the POD lanes
                // outright — no Init, no merge. Cells were charged by the
                // worker that created them.
                core.cells
                    .extend_from_slice(&partial.cells[pbase..pbase + n]);
            } else {
                let cbase = cslot as usize * n;
                for (l, lane) in plan.lanes.iter().enumerate() {
                    let src = partial.cells[pbase + l];
                    lane.kernel
                        // cube-lint: allow(guard, engine-owned POD kernel, runs no user code)
                        .merge(&mut core.cells[cbase + l], &src, lane.float_input());
                    stats.merge_calls += 1;
                }
            }
        }
    }

    let sets = cascade(
        core,
        &enc.encoder,
        &plan,
        lattice,
        ParentChoice::SmallestCardinality,
        stats,
        ctx,
    )?;
    Ok(KernelSets {
        sets,
        plan,
        encoder: enc.encoder.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::spec::{AggSpec, BoundDimension, Dimension};
    use dc_aggregate::builtin;
    use dc_relation::{row, DataType, Schema, Table, Value};

    fn setup() -> (Table, Vec<BoundDimension>, Vec<BoundAgg>) {
        let schema = Schema::from_pairs(&[
            ("model", DataType::Str),
            ("year", DataType::Int),
            ("units", DataType::Int),
            ("price", DataType::Float),
        ]);
        let mut t = Table::empty(schema);
        for (m, y, u, p) in [
            ("Chevy", 1994, 50, 1.5),
            ("Chevy", 1995, 85, 2.25),
            ("Ford", 1994, 50, 0.5),
            ("Ford", 1995, 75, 4.0),
        ] {
            t.push(row![m, y, u, p]).unwrap();
        }
        t.push(Row::new(vec![
            Value::str("Ford"),
            Value::Int(1994),
            Value::Null,
            Value::Null,
        ]))
        .unwrap();
        let dims = ["model", "year"]
            .iter()
            .map(|d| Dimension::column(d).bind(t.schema()).unwrap())
            .collect();
        let aggs = vec![
            AggSpec::new(builtin("SUM").unwrap(), "units")
                .bind(t.schema())
                .unwrap(),
            AggSpec::new(builtin("AVG").unwrap(), "price")
                .bind(t.schema())
                .unwrap(),
            AggSpec::new(builtin("COUNT").unwrap(), "units")
                .bind(t.schema())
                .unwrap(),
            AggSpec::star(builtin("COUNT(*)").unwrap())
                .bind(t.schema())
                .unwrap(),
            AggSpec::new(builtin("MIN").unwrap(), "price")
                .bind(t.schema())
                .unwrap(),
            AggSpec::new(builtin("MAX").unwrap(), "units")
                .bind(t.schema())
                .unwrap(),
        ];
        (t, dims, aggs)
    }

    #[allow(clippy::type_complexity)]
    fn finals(maps: SetMaps) -> Vec<(GroupingSet, Vec<(Row, Vec<Value>)>)> {
        maps.into_iter()
            .map(|(s, m)| {
                let mut cells: Vec<(Row, Vec<Value>)> = m
                    .into_iter()
                    .map(|(k, a)| (k, a.iter().map(|x| x.final_value()).collect()))
                    .collect();
                cells.sort();
                (s, cells)
            })
            .collect()
    }

    #[test]
    fn plan_compiles_builtins_and_rejects_the_rest() {
        let (t, _, aggs) = setup();
        let plan = plan(t.rows(), &aggs).expect("all six built-ins kernelize");
        assert_eq!(plan.lanes.len(), 6);

        // A holistic aggregate anywhere sends the whole query to the row
        // path.
        let with_median = vec![AggSpec::new(builtin("MEDIAN").unwrap(), "units")
            .bind(t.schema())
            .unwrap()];
        assert!(super::plan(t.rows(), &with_median).is_none());

        // A string measure cannot extract as a primitive column.
        let on_str = vec![AggSpec::new(builtin("MIN").unwrap(), "model")
            .bind(t.schema())
            .unwrap()];
        assert!(super::plan(t.rows(), &on_str).is_none());
    }

    #[test]
    fn vectorized_from_core_matches_arena_path() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(2).unwrap();
        let enc = encode(t.rows(), &dims).unwrap();
        let ctx = ExecContext::unlimited();

        let mut sv = ExecStats::default();
        let v = from_core(
            &enc,
            plan(t.rows(), &aggs).unwrap(),
            t.rows().len(),
            &lattice,
            ParentChoice::SmallestCardinality,
            &mut sv,
            &ctx,
        )
        .unwrap()
        .into_set_maps(&aggs)
        .unwrap();

        let mut sa = ExecStats::default();
        let a = super::super::encoded::from_core(
            &enc,
            t.rows(),
            &aggs,
            &lattice,
            ParentChoice::SmallestCardinality,
            &mut sa,
            &ctx,
        )
        .unwrap();

        assert_eq!(finals(v), finals(a));
        // Work counters agree wherever the work is the same.
        assert_eq!(sv.rows_scanned, sa.rows_scanned);
        assert_eq!(sv.iter_calls, sa.iter_calls);
        assert_eq!(sv.merge_calls, sa.merge_calls);
        assert_eq!(sv.vectorized_kernels_used, 6);
        assert!(sv.morsels_processed > 0);
    }

    #[test]
    fn vectorized_parallel_matches_serial() {
        let (t, dims, aggs) = setup();
        let lattice = Lattice::cube(2).unwrap();
        let enc = encode(t.rows(), &dims).unwrap();
        let ctx = ExecContext::unlimited();

        let expected = finals(
            from_core(
                &enc,
                plan(t.rows(), &aggs).unwrap(),
                t.rows().len(),
                &lattice,
                ParentChoice::SmallestCardinality,
                &mut ExecStats::default(),
                &ctx,
            )
            .unwrap()
            .into_set_maps(&aggs)
            .unwrap(),
        );
        for threads in [1, 4] {
            let mut sp = ExecStats::default();
            let par = parallel(
                &enc,
                plan(t.rows(), &aggs).unwrap(),
                t.rows().len(),
                &lattice,
                threads,
                &mut sp,
                &ctx,
            )
            .unwrap()
            .into_set_maps(&aggs)
            .unwrap();
            assert_eq!(sp.threads_used, threads as u32);
            assert_eq!(finals(par), expected, "{threads} threads");
        }
    }
}
