//! `adhoc_slice`: one embedded session, closed loop, running a seeded
//! stream of distinct analyst statements, each with a WHERE slice.
//!
//! A WHERE clause makes a statement cache-ineligible, so every statement
//! goes through parse, row-wise WHERE evaluation, column extraction, the
//! core scan and cascade, and post-aggregation. The cache and wire layers
//! do nothing here.

use crate::check;
use crate::data::{self, Stmt};
use crate::probe::{self, Probe};
use crate::stats::{ms, Samples};
use crate::trace::Tracer;
use crate::{
    err, keep_going, overhead_pct, timed_setups, Config, EndToEnd, Layers, Outcome, Report,
    FIXED_PREFIX,
};
use dc_relation::{ColumnarBatch, Row, Table};
use dc_sql::Engine;
use std::collections::BTreeMap;
use std::time::Instant;

/// Statements generated in advance; a run uses a prefix.
const STREAM_LEN: usize = 4000;
/// Every `SAMPLE_EVERY`-th statement of the traced phase is traced.
const SAMPLE_EVERY: usize = 2;

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    // Inputs, before any clock starts.
    let data = data::retail(cfg.scale.sales_rows, cfg.seed);
    let stream = data::adhoc_stream(&data, cfg.seed, STREAM_LEN);
    let warm = data::adhoc_warm(&data, cfg.seed);
    let probe_t = data::probe_table(cfg.seed, "probe_log");
    let mut out = Outcome::default();

    let n_setups = if cfg.trace { 1 } else { cfg.scale.setups };
    let (mut engine, setup) = timed_setups(n_setups, || {
        let rows = data.rows.clone();
        let t0 = Instant::now();
        let table = Table::new(data.schema.clone(), rows).map_err(err)?;
        let mut engine = Engine::new();
        engine.register_table("sales", table).map_err(err)?;
        let session = engine.session();
        for s in &warm {
            session.execute(&s.sql).map_err(err)?;
        }
        Ok((engine, t0.elapsed()))
    })?;
    probe::register(&mut engine, &probe_t)?;
    let session = engine.session();
    let base = engine.table("sales").map_err(err)?;
    let mut probe = Probe::new(&engine, &probe_t);

    // The untraced phase: all of an untraced run, the first half of a
    // traced one (with enough statements to trace the counters' prefix).
    let (seconds, min) = if cfg.trace {
        (cfg.seconds / 2.0, FIXED_PREFIX * SAMPLE_EVERY)
    } else {
        (cfg.seconds, cfg.scale.min_samples)
    };
    let start = Instant::now();
    let mut reads = Samples::new();
    let mut first: BTreeMap<String, (usize, Table)> = BTreeMap::new();
    let mut done = 0;
    while done < stream.len() && keep_going(start, seconds, reads.len(), min) {
        let stmt = &stream[done];
        let t0 = Instant::now();
        let r = session.execute(&stmt.sql);
        let dt = ms(t0.elapsed());
        if let Some(t) = out.op("select", r) {
            reads.push(dt);
            first.entry(stmt.shape()).or_insert((done, t));
        }
        probe.step(false, &mut out);
        done += 1;
    }
    let read_secs = start.elapsed().as_secs_f64();
    for (i, got) in first.values() {
        let r = check::check(&stream[*i], &base, got);
        out.op(&format!("check {}", stream[*i].sql), r);
    }

    if !cfg.trace {
        probe.finish(&mut out);
        let metrics = EndToEnd {
            setup,
            reads,
            read_secs,
            writes: &probe.writes,
        }
        .metrics()?;
        return Ok(Report {
            outcome: out,
            metrics,
            tracer: None,
        });
    }

    // The traced phase: the same statements again.
    let probe_a = std::mem::take(&mut probe.writes);
    let mut layers = Layers::default();
    let cache0 = engine.cube_cache().counters();
    let adm0 = engine.admission().counters();
    let mut tracer = Tracer::new(Instant::now());
    let mut traced = Samples::new();
    for (i, stmt) in stream[..done].iter().enumerate() {
        let mut req = (i % SAMPLE_EVERY == 0).then(|| tracer.request(0, "request"));
        let t0 = Instant::now();
        let r = match &mut req {
            Some(req) => req.span("session.execute", || session.execute(&stmt.sql)),
            None => session.execute(&stmt.sql),
        };
        let dt = ms(t0.elapsed());
        let ok = out.op("select", r).is_some();
        if ok {
            traced.push(dt);
        }
        if let Some(mut req) = req {
            if ok {
                layers
                    .queue_wait
                    .push(f64::from(session.last_admission().queue_wait_ms));
                replay(stmt, &base, &mut req, &mut layers, &mut out);
            }
            tracer.finish(req);
        }
        probe.step(true, &mut out);
    }
    layers.cache_delta(&cache0, &engine.cube_cache().counters());
    layers.admission_delta(&adm0, &engine.admission().counters());
    for (_, spans) in tracer.by_request() {
        let get = |k| spans.get(k).copied().unwrap_or(0.0);
        layers.parse.push(get("parser.parse"));
        layers.columnar.push(get("relation.columnar"));
        layers.core.push(get("core.cube"));
        layers
            .engine_self
            .push(get("session.execute") - get("parser.parse") - get("core.cube"));
        layers.sampled += 1;
    }
    layers.overhead_pct = overhead_pct(&reads, &traced);
    probe.finish(&mut out);
    layers.insert = probe_a.inserts;
    layers.delete = probe_a.deletes;
    layers.publish = std::mem::take(&mut probe.publish);
    Ok(Report {
        outcome: out,
        metrics: layers.metrics(),
        tracer: Some(tracer),
    })
}

/// Replay one statement's inputs through the parser, the columnar
/// extraction and the core operator, as child spans of `req`. The WHERE
/// slice is applied by the benchmark, outside any span.
pub(crate) fn replay(
    stmt: &Stmt,
    base: &Table,
    req: &mut crate::trace::Request,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let parsed = req.span("parser.parse", || dc_sql::parser::parse(&stmt.sql));
    out.op("parse replay", parsed);
    let sliced;
    let input = if stmt.slice.is_empty() {
        base
    } else {
        sliced = check::slice(stmt, base);
        &sliced
    };
    // Extraction of the columns the statement reads, as the core does.
    let cols = stmt.columns(input.schema());
    let Some(projected) = out.op("projection", project(input, &cols)) else {
        return;
    };
    let batch = req.span("relation.columnar", || {
        ColumnarBatch::from_table(&projected)
    });
    std::hint::black_box(batch);
    let query = match check::engine_query(stmt) {
        Ok(q) => q,
        Err(e) => {
            out.fail("core replay", e);
            return;
        }
    };
    let result = req.span("core.cube", || check::run_core(stmt, query, input));
    if let Some((_, stats)) = out.op("core replay", result) {
        layers.count_core(&stats);
    }
}

/// The columns `cols` of `t`.
fn project(t: &Table, cols: &[usize]) -> Result<Table, String> {
    let schema = dc_relation::Schema::new(
        cols.iter()
            .map(|&c| t.schema().column_at(c).clone())
            .collect(),
    )
    .map_err(err)?;
    let rows = t
        .rows()
        .iter()
        .map(|r| Row::new(cols.iter().map(|&c| r[c].clone()).collect()))
        .collect();
    Ok(Table::from_validated_rows(schema, rows))
}
