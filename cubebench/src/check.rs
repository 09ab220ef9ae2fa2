//! Output checks against the paper's reference algorithm, and the core
//! replay that the traced run times.

use crate::data::{Grouping, Stmt};
use datacube::{AggSpec, Algorithm, CompoundSpec, CubeQuery, Dimension, ExecStats};
use dc_aggregate::compare::value_close;
use dc_relation::{Row, Table, Value};
use std::collections::HashMap;

/// Float cells may differ by this many units in the last place (or by the
/// 1e-9 relative band of `value_close`): the paths fold in different
/// orders.
const MAX_ULPS: u64 = 64;

/// The statement's aggregation as a `CubeQuery` with the engine's default
/// execution paths.
pub fn engine_query(stmt: &Stmt) -> Result<CubeQuery, String> {
    stmt.aggs
        .iter()
        .enumerate()
        .try_fold(CubeQuery::new(), |q, (i, a)| {
            let spec = match a.col {
                Some(col) => AggSpec::new(builtin(a.func)?, col),
                None => AggSpec::star(builtin(a.func)?),
            };
            Ok(q.aggregate(spec.with_name(format!("a{i}"))))
        })
}

/// The paper's reference: the 2^N algorithm on the row-at-a-time path
/// with `Row` keys.
pub fn reference_query(stmt: &Stmt) -> Result<CubeQuery, String> {
    Ok(engine_query(stmt)?
        .algorithm(Algorithm::TwoToTheN)
        .vectorized(false)
        .encoded_keys(false))
}

fn builtin(name: &str) -> Result<dc_aggregate::AggRef, String> {
    dc_aggregate::builtin(name).map_err(|e| e.to_string())
}

/// Run `query` over `input` with the statement's grouping clause, the way
/// the SQL engine plans it (compound GROUP BY / ROLLUP / CUBE, or
/// GROUPING SETS).
pub fn run_core(
    stmt: &Stmt,
    query: CubeQuery,
    input: &Table,
) -> Result<(Table, ExecStats), String> {
    let dims: Vec<Dimension> = stmt.dims.iter().map(Dimension::column).collect();
    let out = match &stmt.grouping {
        Grouping::Sets(sets) => query.dimensions(dims).grouping_sets_with_stats(input, sets),
        Grouping::Plain => query.compound_with_stats(input, &CompoundSpec::new().group_by(dims)),
        Grouping::Rollup => query.compound_with_stats(input, &CompoundSpec::new().rollup(dims)),
        Grouping::Cube => query.compound_with_stats(input, &CompoundSpec::new().cube(dims)),
    };
    out.map_err(|e| e.to_string())
}

/// The rows of `base` the statement's WHERE slice keeps.
pub fn slice(stmt: &Stmt, base: &Table) -> Table {
    let rows: Vec<Row> = base
        .rows()
        .iter()
        .filter(|r| stmt.keeps(r))
        .cloned()
        .collect();
    Table::from_validated_rows(base.schema().clone(), rows)
}

/// `SUM(units)` (output column `a0`) of a result row, for HAVING and
/// ORDER BY.
fn a0(stmt: &Stmt, row: &Row) -> Option<i64> {
    row[stmt.dims.len()].as_i64()
}

/// Check the engine's answer `got` to `stmt` against the reference
/// computed on `base`, the same snapshot the engine read.
pub fn check(stmt: &Stmt, base: &Table, got: &Table) -> Result<(), String> {
    let input = slice(stmt, base);
    let (reference, _) = run_core(stmt, reference_query(stmt)?, &input)?;
    let n = stmt.dims.len();
    let width = n + stmt.aggs.len();
    if got.schema().len() != width {
        return Err(format!("{} columns, expected {width}", got.schema().len()));
    }
    let mut expected: Vec<Row> = reference.canonical_rows(n);
    if let Some(t) = stmt.having {
        expected.retain(|r| a0(stmt, r).is_some_and(|v| v > t));
    }
    let same = |a: &Row, b: &Row| {
        a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| value_close(x, y, MAX_ULPS))
    };
    match stmt.top {
        None => {
            if got.len() != expected.len() {
                return Err(format!("{} rows, expected {}", got.len(), expected.len()));
            }
            for (g, e) in got.canonical_rows(n).iter().zip(&expected) {
                if !same(g, e) {
                    return Err(format!("row {g:?} differs from reference {e:?}"));
                }
            }
        }
        Some(limit) => {
            // Ties on the sort key may be broken either way, so check the
            // key sequence exactly and each row's membership.
            let mut keys: Vec<Option<i64>> = expected.iter().map(|r| a0(stmt, r)).collect();
            keys.sort_by(|a, b| b.cmp(a));
            keys.truncate(limit);
            let got_keys: Vec<Option<i64>> = got.rows().iter().map(|r| a0(stmt, r)).collect();
            if got_keys != keys {
                return Err(format!("top-{limit} keys {got_keys:?}, expected {keys:?}"));
            }
            let by_dims: HashMap<Vec<Value>, &Row> = expected
                .iter()
                .map(|r| (r.values()[..n].to_vec(), r))
                .collect();
            for g in got.rows() {
                match by_dims.get(&g.values()[..n]) {
                    Some(e) if same(g, e) => {}
                    _ => return Err(format!("row {g:?} is not in the reference answer")),
                }
            }
        }
    }
    Ok(())
}

/// Two answers to one statement agree: same rows, floats within tolerance.
pub fn same_answer(n_dims: usize, a: &Table, b: &Table) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} rows vs {}", a.len(), b.len()));
    }
    for (x, y) in a
        .canonical_rows(n_dims)
        .iter()
        .zip(b.canonical_rows(n_dims).iter())
    {
        let ok = x
            .values()
            .iter()
            .zip(y.values())
            .all(|(p, q)| value_close(p, q, MAX_ULPS));
        if !ok {
            return Err(format!("row {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

/// The decoded wire rows are the in-process result's cells, as text.
pub fn wire_matches(table: &Table, rows: &[Vec<String>]) -> Result<(), String> {
    if rows.len() != table.len() {
        return Err(format!(
            "{} wire rows vs {} in process",
            rows.len(),
            table.len()
        ));
    }
    for (i, (w, t)) in rows.iter().zip(table.rows()).enumerate() {
        let text: Vec<String> = t.values().iter().map(|v| v.to_string()).collect();
        if *w != text {
            return Err(format!("row {i}: wire {w:?} vs in process {text:?}"));
        }
    }
    Ok(())
}
