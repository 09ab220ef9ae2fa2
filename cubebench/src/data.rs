//! Benchmark inputs: the Figure 6 retail table and the seeded statement
//! streams that run against it.
//!
//! Everything here runs before any clock starts. Each workload's inputs
//! are a pure function of its seed: the rows come from
//! `RetailWarehouse::generate` seeded from it, and the statements from a
//! SplitMix64 stream seeded from it.

use dc_relation::{DataType, Date, Row, Schema, Value};
use dc_warehouse::retail::{RetailParams, RetailWarehouse};
use std::collections::BTreeSet;

/// The string dimensions of the denormalized retail table: the office and
/// product hierarchies plus the customer segment.
pub const DIMS: [&str; 8] = [
    "office",
    "district",
    "region",
    "geography",
    "product",
    "category",
    "manufacturer",
    "segment",
];

/// Column positions in the denormalized retail table.
pub const DATE_COL: usize = 8;
pub const UNITS_COL: usize = 9;

/// First day of the generated calendar (the generator's default).
fn calendar_start() -> Date {
    RetailParams::default().start
}

/// SplitMix64: a small, fully specified generator, so the statement
/// streams do not depend on any other crate's random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose of one seed.
    pub fn derive(seed: u64, purpose: u64) -> Self {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len())]
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items of `xs`, in random order.
    pub fn sample<T: Clone>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        let mut v = xs.to_vec();
        self.shuffle(&mut v);
        v.truncate(k);
        v
    }
}

/// The denormalized retail table: schema and rows, generated in advance.
#[derive(Clone)]
pub struct RetailData {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// Distinct values of each string dimension, sorted (for WHERE slices).
    pub values: Vec<Vec<String>>,
}

/// Generate `n` denormalized retail sales rows.
pub fn retail(n: usize, seed: u64) -> RetailData {
    let wide = RetailWarehouse::generate(RetailParams {
        sales: n,
        customers: 200,
        seed,
        ..Default::default()
    })
    .denormalize();
    let values = (0..DIMS.len())
        .map(|c| {
            let set: BTreeSet<&str> = wide.rows().iter().filter_map(|r| r[c].as_str()).collect();
            set.into_iter().map(str::to_string).collect()
        })
        .collect();
    RetailData {
        schema: wide.schema().clone(),
        rows: wide.rows().to_vec(),
        values,
    }
}

/// One aggregate call of a select list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    /// Built-in aggregate name (`COUNT(*)` for the row count).
    pub func: &'static str,
    /// Measure column; `None` only for `COUNT(*)`.
    pub col: Option<&'static str>,
}

impl Agg {
    const fn of(func: &'static str, col: &'static str) -> Agg {
        Agg {
            func,
            col: Some(col),
        }
    }

    const fn count_star() -> Agg {
        Agg {
            func: "COUNT(*)",
            col: None,
        }
    }

    pub fn sql(&self) -> String {
        match self.col {
            Some(c) => format!("{}({c})", self.func),
            None => "COUNT(*)".to_string(),
        }
    }
}

/// Every statement's first aggregate: HAVING and ORDER BY key on it, and
/// its integer values make the sort order exact.
const SUM_UNITS: Agg = Agg::of("SUM", "units");

/// Further aggregates an analyst statement draws from.
const EXTRA_AGGS: [Agg; 8] = [
    Agg::of("AVG", "price"),
    Agg::of("MIN", "price"),
    Agg::of("MAX", "price"),
    Agg::count_star(),
    Agg::of("SUM", "price"),
    Agg::of("AVG", "units"),
    Agg::of("MAX", "units"),
    Agg::of("COUNT", "price"),
];

/// One conjunct of a WHERE slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// `<dimension> = '<value>'`; the index is into [`DIMS`].
    Eq(usize, String),
    /// `YEAR(date) = <year>`.
    Year(i32),
    /// `QUARTER(date) = <quarter>`.
    Quarter(u8),
}

impl Pred {
    pub fn sql(&self) -> String {
        match self {
            Pred::Eq(c, v) => format!("{} = '{v}'", DIMS[*c]),
            Pred::Year(y) => format!("YEAR(date) = {y}"),
            Pred::Quarter(q) => format!("QUARTER(date) = {q}"),
        }
    }

    /// The predicate on a denormalized retail row, as the benchmark's
    /// own filter (the SQL engine evaluates the text independently).
    pub fn matches(&self, row: &Row) -> bool {
        match self {
            Pred::Eq(c, v) => row[*c].as_str() == Some(v.as_str()),
            Pred::Year(y) => row[DATE_COL].as_date().is_some_and(|d| d.year() == *y),
            Pred::Quarter(q) => row[DATE_COL].as_date().is_some_and(|d| d.quarter() == *q),
        }
    }
}

/// The grouping clause of a statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    Plain,
    Rollup,
    Cube,
    /// Each set lists indices into the statement's dimensions.
    Sets(Vec<Vec<usize>>),
}

impl Grouping {
    fn tag(&self) -> &'static str {
        match self {
            Grouping::Plain => "groupby",
            Grouping::Rollup => "rollup",
            Grouping::Cube => "cube",
            Grouping::Sets(_) => "sets",
        }
    }
}

/// One SELECT: the structured form the checks and layer replays use, and
/// the SQL text the engine receives.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub table: &'static str,
    pub dims: Vec<&'static str>,
    pub grouping: Grouping,
    /// `aggs[0]` is always `SUM(units)`, output column `a0`.
    pub aggs: Vec<Agg>,
    /// Conjunctive WHERE slice (empty: no WHERE).
    pub slice: Vec<Pred>,
    /// `HAVING SUM(units) > t`.
    pub having: Option<i64>,
    /// `ORDER BY a0 DESC LIMIT n`.
    pub top: Option<usize>,
    pub sql: String,
}

impl Stmt {
    fn new(
        table: &'static str,
        dims: Vec<&'static str>,
        grouping: Grouping,
        aggs: Vec<Agg>,
        slice: Vec<Pred>,
        having: Option<i64>,
        top: Option<usize>,
    ) -> Stmt {
        let mut s = Stmt {
            table,
            dims,
            grouping,
            aggs,
            slice,
            having,
            top,
            sql: String::new(),
        };
        s.sql = s.render();
        s
    }

    fn render(&self) -> String {
        let mut items: Vec<String> = self.dims.iter().map(|d| d.to_string()).collect();
        items.extend(
            self.aggs
                .iter()
                .enumerate()
                .map(|(i, a)| format!("{} AS a{i}", a.sql())),
        );
        let mut sql = format!("SELECT {} FROM {}", items.join(", "), self.table);
        if !self.slice.is_empty() {
            let preds: Vec<String> = self.slice.iter().map(Pred::sql).collect();
            sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        let dims = self.dims.join(", ");
        match &self.grouping {
            Grouping::Plain => sql.push_str(&format!(" GROUP BY {dims}")),
            Grouping::Rollup => sql.push_str(&format!(" GROUP BY ROLLUP {dims}")),
            Grouping::Cube => sql.push_str(&format!(" GROUP BY CUBE {dims}")),
            Grouping::Sets(sets) => {
                let sets: Vec<String> = sets
                    .iter()
                    .map(|s| {
                        let names: Vec<&str> = s.iter().map(|&i| self.dims[i]).collect();
                        format!("({})", names.join(", "))
                    })
                    .collect();
                sql.push_str(&format!(" GROUP BY GROUPING SETS ({})", sets.join(", ")));
            }
        }
        if let Some(t) = self.having {
            sql.push_str(&format!(" HAVING {} > {t}", SUM_UNITS.sql()));
        }
        if let Some(n) = self.top {
            sql.push_str(&format!(" ORDER BY a0 DESC LIMIT {n}"));
        }
        sql
    }

    /// The statement's shape: output checks run once per shape.
    pub fn shape(&self) -> String {
        let median = self.aggs.iter().any(|a| a.func == "MEDIAN");
        format!(
            "{}/{}d{}",
            self.grouping.tag(),
            self.dims.len(),
            if median { "/median" } else { "" }
        )
    }

    /// Whether `row` (of the statement's table) passes the WHERE slice.
    pub fn keeps(&self, row: &Row) -> bool {
        self.slice.iter().all(|p| p.matches(row))
    }

    /// Base-table columns the statement reads, in schema order.
    pub fn columns(&self, schema: &Schema) -> Vec<usize> {
        let mut names: Vec<&str> = self.dims.clone();
        names.extend(self.aggs.iter().filter_map(|a| a.col));
        let mut idx: Vec<usize> = names
            .iter()
            .filter_map(|n| schema.index_of(n).ok())
            .collect();
        idx.sort_unstable();
        idx.dedup();
        idx
    }
}

/// The per-block templates of the analyst stream: (grouping kind — 0 GROUP
/// BY, 1 ROLLUP, 2 CUBE, 3 GROUPING SETS —, number of dimensions, with
/// MEDIAN). Every block of eight statements is a
/// seeded permutation of these, so the cost mix of any prefix of the
/// stream barely depends on the seed.
const ADHOC_BLOCK: [(u8, usize, bool); 8] = [
    (2, 2, false),
    (2, 4, false),
    (1, 3, false),
    (1, 4, false),
    (3, 3, false),
    (3, 2, false),
    (0, 1, false),
    (0, 2, true),
];

/// The analyst statement stream of `adhoc_slice`: `n` distinct statements
/// over 1–4 dimensions, each with a WHERE slice.
pub fn adhoc_stream(data: &RetailData, seed: u64, n: usize) -> Vec<Stmt> {
    let mut rng = Rng::derive(seed, 1);
    let mut out = Vec::with_capacity(n);
    let mut seen = BTreeSet::new();
    while out.len() < n {
        let mut block = ADHOC_BLOCK;
        rng.shuffle(&mut block);
        for (kind, n_dims, median) in block {
            // Redraw the rare exact repeat so every statement is distinct.
            loop {
                let s = analyst_statement(data, &mut rng, kind, n_dims, median);
                if seen.insert(s.sql.clone()) {
                    out.push(s);
                    break;
                }
            }
        }
    }
    out.truncate(n);
    out
}

/// One statement of each grouping kind: the analyst workload's fixed warm
/// pass at set-up.
pub fn adhoc_warm(data: &RetailData, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::derive(seed, 2);
    (0..4)
        .map(|kind| analyst_statement(data, &mut rng, kind, 2, false))
        .collect()
}

fn analyst_statement(
    data: &RetailData,
    rng: &mut Rng,
    kind: u8,
    n_dims: usize,
    median: bool,
) -> Stmt {
    let all: Vec<usize> = (0..DIMS.len()).collect();
    let dim_idx = rng.sample(&all, n_dims);
    let dims: Vec<&'static str> = dim_idx.iter().map(|&i| DIMS[i]).collect();
    let grouping = match kind {
        0 => Grouping::Plain,
        1 => Grouping::Rollup,
        2 => Grouping::Cube,
        _ => {
            // The full set plus one or two seeded subsets and maybe ().
            let mut sets = vec![(0..n_dims).collect::<Vec<_>>()];
            for _ in 0..1 + rng.below(2) {
                let k = rng.below(n_dims);
                let idx: Vec<usize> = (0..n_dims).collect();
                let mut sub = rng.sample(&idx, k);
                sub.sort_unstable();
                if !sets.contains(&sub) {
                    sets.push(sub);
                }
            }
            Grouping::Sets(sets)
        }
    };
    let mut aggs = vec![SUM_UNITS];
    let extra = 1 + rng.below(3);
    aggs.extend(rng.sample(&EXTRA_AGGS, extra));
    if median {
        aggs.push(Agg::of("MEDIAN", "price"));
    }

    // One or two conjuncts: at most one dimension equality (on a column
    // the statement does not group by) and at most one calendar
    // predicate, so a slice never contradicts itself.
    let mut slice = Vec::new();
    let free: Vec<usize> = all
        .iter()
        .copied()
        .filter(|i| !dim_idx.contains(i))
        .collect();
    for _ in 0..1 + rng.below(2) {
        let pred = match rng.below(4) {
            0 => Pred::Year(1994 + rng.below(2) as i32),
            1 => Pred::Quarter(1 + rng.below(4) as u8),
            _ => {
                let c = *rng.pick(&free);
                Pred::Eq(c, rng.pick(&data.values[c]).clone())
            }
        };
        let is_eq = |p: &Pred| matches!(p, Pred::Eq(..));
        if !slice.iter().any(|p: &Pred| is_eq(p) == is_eq(&pred)) {
            slice.push(pred);
        }
    }
    let having = (rng.below(4) == 0).then(|| 50 * (1 + rng.below(20)) as i64);
    let top = (rng.below(4) == 0).then(|| 5 + rng.below(20));
    Stmt::new("sales", dims, grouping, aggs, slice, having, top)
}

/// The six-statement dashboard panel over `table`, whose date column is
/// `date_col`. Every statement is cache-eligible: no WHERE, plain column
/// dimensions, and only rewrite-legal aggregates. Result sizes run from a
/// handful of rows to about 10^4 (the date × office roll-up).
pub fn panel(table: &'static str, date_col: &'static str, seed: u64) -> Vec<Stmt> {
    let mut rng = Rng::derive(seed, 3);
    let s = |dims: Vec<&'static str>, g: Grouping, aggs: Vec<Agg>| {
        Stmt::new(table, dims, g, aggs, Vec::new(), None, None)
    };
    vec![
        s(
            vec!["region"],
            Grouping::Rollup,
            vec![SUM_UNITS, Agg::of("SUM", "price")],
        ),
        s(
            vec!["geography", "region", "district"],
            Grouping::Rollup,
            vec![SUM_UNITS, Agg::count_star(), Agg::of("AVG", "price")],
        ),
        s(
            vec!["manufacturer", "category", "product"],
            Grouping::Rollup,
            vec![SUM_UNITS, Agg::of("MAX", "price"), Agg::of("MIN", "price")],
        ),
        s(
            vec!["region", "category", "segment"],
            Grouping::Cube,
            vec![SUM_UNITS, Agg::of("AVG", "price"), Agg::count_star()],
        ),
        s(vec![date_col, "office"], Grouping::Rollup, vec![SUM_UNITS]),
        Stmt::new(
            table,
            vec!["office", "product"],
            Grouping::Plain,
            vec![SUM_UNITS, Agg::of("SUM", "price")],
            Vec::new(),
            Some(100 * (1 + rng.below(10)) as i64),
            Some(5 + rng.below(10)),
        ),
    ]
}

/// Rows per INSERT statement of the ingest stream.
pub const INGEST_BATCH_ROWS: usize = 64;
/// Every `INGEST_K`-th write statement is the retention DELETE.
pub const INGEST_K: usize = 8;
/// Rows one retention window holds: the INSERTs between two DELETEs.
pub const WINDOW_ROWS: usize = INGEST_BATCH_ROWS * (INGEST_K - 1);

/// One write of the ingest stream.
pub enum Write {
    /// `INSERT INTO <table> VALUES ...`: its rows, as the engine stores them.
    Insert { sql: String, rows: Vec<Row> },
    /// `DELETE FROM <table> WHERE batch = w`, removing `rows` rows.
    Delete { sql: String, rows: usize },
}

impl Write {
    pub fn sql(&self) -> &str {
        match self {
            Write::Insert { sql, .. } | Write::Delete { sql, .. } => sql,
        }
    }
}

/// A table under a rolling retention window, and its write stream.
pub struct WindowedTable {
    pub name: String,
    pub schema: Schema,
    /// Initial rows: `windows` whole windows, tagged `batch` 0, 1, ...
    pub rows: Vec<Row>,
    pub writes: Vec<Write>,
    /// Expected `COUNT(*)` and `SUM(units)` after each write.
    pub totals: Vec<(i64, i64)>,
    pub initial: (i64, i64),
}

/// Render one row as an SQL VALUES tuple.
fn values_tuple(row: &Row) -> String {
    let cells: Vec<String> = row
        .values()
        .iter()
        .map(|v| match v {
            Value::Str(s) => format!("'{s}'"),
            Value::Float(x) => format!("{x:?}"),
            other => other.to_string(),
        })
        .collect();
    format!("({})", cells.join(", "))
}

/// Build a windowed table of `windows` retention windows with columns
/// `columns` (values from `cell`), and a stream of `max_windows` further
/// windows: per window, `INGEST_K - 1` INSERTs of the new window's rows,
/// then a DELETE of the oldest window. The table's size is therefore the
/// same after every DELETE, whatever the run length.
fn windowed(
    table: &str,
    schema: Schema,
    units_col: usize,
    windows: usize,
    max_windows: usize,
    batch_rows: usize,
    mut make_row: impl FnMut(usize, i64) -> Row,
) -> WindowedTable {
    let per_window = batch_rows * (INGEST_K - 1);
    let units = |r: &Row| r[units_col].as_i64().unwrap_or(0);
    let mut rows = Vec::with_capacity(windows * per_window);
    let mut window_units = std::collections::VecDeque::new();
    for w in 0..windows {
        let mut u = 0;
        for i in 0..per_window {
            let r = make_row(w * per_window + i, w as i64);
            u += units(&r);
            rows.push(r);
        }
        window_units.push_back(u);
    }
    let initial = (rows.len() as i64, window_units.iter().sum::<i64>());
    let (mut count, mut sum) = initial;
    let mut writes = Vec::new();
    let mut totals = Vec::new();
    let mut next = windows * per_window;
    for w in windows..windows + max_windows {
        let mut u = 0;
        for _ in 0..INGEST_K - 1 {
            let batch: Vec<Row> = (0..batch_rows)
                .map(|i| make_row(next + i, w as i64))
                .collect();
            next += batch_rows;
            let bu: i64 = batch.iter().map(units).sum();
            u += bu;
            count += batch_rows as i64;
            sum += bu;
            let tuples: Vec<String> = batch.iter().map(values_tuple).collect();
            writes.push(Write::Insert {
                sql: format!("INSERT INTO {table} VALUES {}", tuples.join(", ")),
                rows: batch,
            });
            totals.push((count, sum));
        }
        window_units.push_back(u);
        let oldest = w - windows;
        count -= per_window as i64;
        sum -= window_units.pop_front().unwrap_or(0);
        writes.push(Write::Delete {
            sql: format!("DELETE FROM {table} WHERE batch = {oldest}"),
            rows: per_window,
        });
        totals.push((count, sum));
    }
    WindowedTable {
        name: table.to_string(),
        schema,
        rows,
        writes,
        totals,
        initial,
    }
}

/// The `ingest_window` table: the retail columns with `date` stored as an
/// integer `day` (the SQL dialect has no date literal for INSERT), plus
/// the `batch` tag the retention DELETE keys on. `source` supplies the
/// rows, initial and inserted alike.
pub fn ingest_table(source: &RetailData, windows: usize, max_windows: usize) -> WindowedTable {
    let mut pairs: Vec<(&str, DataType)> = DIMS.iter().map(|d| (*d, DataType::Str)).collect();
    pairs.extend([
        ("day", DataType::Int),
        ("units", DataType::Int),
        ("price", DataType::Float),
        ("batch", DataType::Int),
    ]);
    let schema = Schema::from_pairs(&pairs);
    let start = calendar_start().days_from_epoch();
    let src = &source.rows;
    windowed(
        "ingest",
        schema,
        UNITS_COL,
        windows,
        max_windows,
        INGEST_BATCH_ROWS,
        |i, batch| {
            let r = &src[i % src.len()];
            let day = r[DATE_COL]
                .as_date()
                .map_or(0, |d| d.days_from_epoch() - start);
            let mut v: Vec<Value> = r.values()[..DIMS.len()].to_vec();
            v.extend([
                Value::Int(day),
                r[UNITS_COL].clone(),
                r[UNITS_COL + 1].clone(),
                Value::Int(batch),
            ]);
            Row::new(v)
        },
    )
}

/// A side table of the write probe on the read-only workloads: a small
/// `<name>(seq, units, price, batch)` under the same retention scheme as
/// `ingest_window`, so its write cost stays O(probe table), not O(retail
/// table).
pub fn probe_table(seed: u64, name: &str) -> WindowedTable {
    let schema = Schema::from_pairs(&[
        ("seq", DataType::Int),
        ("units", DataType::Int),
        ("price", DataType::Float),
        ("batch", DataType::Int),
    ]);
    let mut rng = Rng::derive(seed, 4);
    windowed(
        name,
        schema,
        1,
        PROBE_WINDOWS,
        PROBE_WRITE_WINDOWS,
        PROBE_BATCH_ROWS,
        |i, batch| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int(1 + rng.below(5) as i64),
                Value::Float((10_000 + rng.below(20_000)) as f64),
                Value::Int(batch),
            ])
        },
    )
}

const PROBE_BATCH_ROWS: usize = 8;
/// 16 windows of 56 rows: 896 rows.
const PROBE_WINDOWS: usize = 16;
/// Writes generated in advance (8 per window): far more than a run's
/// reads, which pace them.
const PROBE_WRITE_WINDOWS: usize = 1000;
