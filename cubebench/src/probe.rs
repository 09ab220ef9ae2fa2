//! Write statements: the shared write step, and the write probe of the
//! read-only workloads.
//!
//! `BENCHMARK.json` asks every workload for every end-to-end metric, and
//! `adhoc_slice` and `dashboard_wire` only read their retail table.
//! So each reading thread also keeps a small side table (`probe_log*`,
//! 896 rows under the ingest retention scheme) through an embedded session
//! of the same engine, and issues three writes to it after each of its
//! reads. Spreading the writes over the whole timed phase keeps their
//! medians steady; each costs about 0.2 ms against reads of 60–90 ms. The
//! probe is the control for `ingest_window`: its writes cost O(probe
//! table), so a change to how INSERT scales with table size should move
//! `ingest_window` and leave the probe alone.

use crate::data::{WindowedTable, Write};
use crate::stats::{ms, Samples};
use crate::{err, Outcome};
use dc_relation::{Row, Table};
use dc_sql::{Engine, Session};
use std::time::Instant;

/// Latencies of one stream of writes.
#[derive(Debug, Default)]
pub(crate) struct Writes {
    pub all: Samples,
    pub inserts: Samples,
    pub deletes: Samples,
    pub rows_inserted: u64,
}

impl Writes {
    /// Execute write `w` on `session`, time it, and check its
    /// acknowledgement against the generator's row count.
    pub fn step(&mut self, session: &Session, w: &Write, out: &mut Outcome) {
        let t0 = Instant::now();
        let r = session.execute(w.sql());
        let dt = ms(t0.elapsed());
        let Some(ack) = out.op("write", r) else {
            return;
        };
        let (expected, kind) = match w {
            Write::Insert { rows, .. } => (rows.len(), &mut self.inserts),
            Write::Delete { rows, .. } => (*rows, &mut self.deletes),
        };
        let got = ack.rows().first().and_then(|r| r[1].as_i64());
        if got != Some(expected as i64) {
            out.fail("write ack", format!("{got:?} rows, expected {expected}"));
            return;
        }
        if matches!(w, Write::Insert { .. }) {
            self.rows_inserted += expected as u64;
        }
        kind.push(dt);
        self.all.push(dt);
    }

    pub fn extend(&mut self, other: &Writes) {
        self.all.extend(&other.all);
        self.inserts.extend(&other.inserts);
        self.deletes.extend(&other.deletes);
        self.rows_inserted += other.rows_inserted;
    }

    /// Rows committed by INSERT per second of write-statement time.
    pub fn rows_per_s(&self) -> f64 {
        let secs = self.all.sum() / 1e3;
        if secs > 0.0 {
            self.rows_inserted as f64 / secs
        } else {
            0.0
        }
    }
}

/// Replay the INSERT path's publish copy: the snapshot's rows plus the
/// batch, revalidated by `Table::new`.
pub(crate) fn publish_copy(old: &Table, batch: &[Row]) -> Result<Table, String> {
    let mut next = old.rows().to_vec();
    next.extend(batch.iter().cloned());
    Table::new(old.schema().clone(), next).map_err(err)
}

/// Check `COUNT(*)` and `SUM(units)` of `table` against the generator's
/// running totals.
pub(crate) fn check_totals(
    session: &Session,
    table: &str,
    expected: (i64, i64),
    out: &mut Outcome,
) {
    let sql = format!("SELECT COUNT(*) AS n, SUM(units) AS u FROM {table}");
    let Some(t) = out.op("totals query", session.execute(&sql)) else {
        return;
    };
    let got = t
        .rows()
        .first()
        .map(|r| (r[0].as_i64().unwrap_or(-1), r[1].as_i64().unwrap_or(-1)));
    if got != Some(expected) {
        out.fail(
            "totals check",
            format!("{table}: (COUNT, SUM(units)) = {got:?}, expected {expected:?}"),
        );
    }
}

/// Register a probe table (outside any clock).
pub(crate) fn register(engine: &mut Engine, probe: &WindowedTable) -> Result<(), String> {
    let t = Table::new(probe.schema.clone(), probe.rows.clone()).map_err(err)?;
    engine.register_table(&probe.name, t).map_err(err)
}

/// Probe writes issued after each read: enough samples for steady tail
/// percentiles, at about 1% of a read's time.
const WRITES_PER_READ: usize = 3;

/// One thread's write probe: the next write of its side table's stream.
pub(crate) struct Probe<'a> {
    engine: &'a Engine,
    session: Session,
    table: &'a WindowedTable,
    next: usize,
    pub writes: Writes,
    /// Publish-copy replay times, when replaying.
    pub publish: Samples,
}

impl<'a> Probe<'a> {
    pub fn new(engine: &'a Engine, table: &'a WindowedTable) -> Self {
        Probe {
            engine,
            session: engine.session(),
            table,
            next: 0,
            writes: Writes::default(),
            publish: Samples::new(),
        }
    }

    /// Issue the next `WRITES_PER_READ` writes (none once the stream is
    /// used up). With `replay`, also replay each INSERT's publish copy
    /// after it commits.
    pub fn step(&mut self, replay: bool, out: &mut Outcome) {
        for _ in 0..WRITES_PER_READ {
            let Some(w) = self.table.writes.get(self.next) else {
                return;
            };
            self.next += 1;
            let old = replay.then(|| self.engine.table(&self.table.name));
            self.writes.step(&self.session, w, out);
            if let (Some(Ok(old)), Write::Insert { rows, .. }) = (old, w) {
                let t0 = Instant::now();
                out.op("publish replay", publish_copy(&old, rows));
                self.publish.push(ms(t0.elapsed()));
            }
        }
    }

    /// Check the side table's totals after the writes issued so far.
    pub fn finish(&self, out: &mut Outcome) {
        let expected = self
            .next
            .checked_sub(1)
            .map_or(self.table.initial, |i| self.table.totals[i]);
        check_totals(&self.session, &self.table.name, expected, out);
    }
}
