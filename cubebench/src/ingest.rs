//! `ingest_window`: an embedded writer session and reader session in
//! lockstep. The writer runs a closed loop of seeded 64-row INSERT
//! batches; every 8th write statement is the retention DELETE of the
//! oldest window, so the table keeps a fixed size. After every committed
//! write the reader refreshes the whole dashboard panel.
//!
//! Lockstep keeps each read's table version, and so the cache's hit/miss
//! sequence, a function of the seed rather than of relative speed: an
//! INSERT is absorbed into cached views (reads stay hits), a DELETE
//! invalidates them (the next refresh misses and repopulates).

use crate::adhoc::replay;
use crate::check;
use crate::data::{self, Stmt, WindowedTable, Write};
use crate::probe::{self, publish_copy, Writes};
use crate::stats::{ms, Samples};
use crate::trace::Tracer;
use crate::{
    err, keep_going, overhead_pct, timed_setups, Config, EndToEnd, Layers, Outcome, Report,
};
use dc_relation::Table;
use dc_sql::{Engine, Session};
use std::time::Instant;

/// What one timed phase did.
struct Phase {
    writes: Writes,
    reads: Samples,
    secs: f64,
    /// Write statements committed (a prefix of the stream).
    done: usize,
}

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let windows = cfg.scale.ingest_windows;
    let max_windows = cfg.scale.ingest_max_windows;
    let source = data::retail((windows + max_windows) * data::WINDOW_ROWS, cfg.seed);
    let table = data::ingest_table(&source, windows, max_windows);
    drop(source);
    let panel = data::panel("ingest", "day", cfg.seed);
    let mut out = Outcome::default();

    // One set-up: the table, the engine, and the panel's warm pass (which
    // populates the cache); returns the warm pass's per-statement times.
    let setup_once = || {
        let rows = table.rows.clone();
        let t0 = Instant::now();
        let t = Table::new(table.schema.clone(), rows).map_err(err)?;
        let mut engine = Engine::new();
        engine.register_table("ingest", t).map_err(err)?;
        let session = engine.session();
        let mut warm = Vec::new();
        for s in &panel {
            let t = Instant::now();
            session.execute(&s.sql).map_err(err)?;
            warm.push(ms(t.elapsed()));
        }
        Ok(((engine, warm), t0.elapsed()))
    };

    if !cfg.trace {
        let ((engine, _), setup) = timed_setups(cfg.scale.setups, setup_once)?;
        let (writer, reader) = (engine.session(), engine.session());
        let p = stream(
            &engine,
            &writer,
            &reader,
            &table,
            &panel,
            Run::For(cfg),
            None,
            &mut out,
        );
        verify(&engine, &table, &panel, p.done, &mut out);
        let metrics = EndToEnd {
            setup,
            reads: p.reads,
            read_secs: p.secs,
            writes: &p.writes,
        }
        .metrics()?;
        return Ok(Report {
            outcome: out,
            metrics,
            tracer: None,
        });
    }

    // Traced run: an untraced phase, then a fresh set-up replaying the same
    // writes traced.
    let a = {
        // Two set-ups, so the untraced phase, like the traced one, runs on
        // memory the process has touched before.
        let ((engine, _), _) = timed_setups(2, setup_once)?;
        let (writer, reader) = (engine.session(), engine.session());
        let mut half = Config {
            seconds: cfg.seconds / 2.0,
            ..cfg.clone()
        };
        // Enough writes that the counters' fixed prefix of cache misses
        // (six per retention DELETE) is traced.
        half.scale.min_samples = 4 * data::INGEST_K;
        stream(
            &engine,
            &writer,
            &reader,
            &table,
            &panel,
            Run::For(&half),
            None,
            &mut out,
        )
    };
    let ((engine, warm), _) = timed_setups(1, setup_once)?;
    let mut layers = Layers::default();
    let uncached = engine.session();
    uncached.set_option("CUBE_CACHE", 0).map_err(err)?;
    for (s, miss_ms) in panel.iter().zip(&warm) {
        let t0 = Instant::now();
        out.op("uncached select", uncached.execute(&s.sql));
        layers.populate_ms += miss_ms - ms(t0.elapsed());
    }
    let (writer, reader) = (engine.session(), engine.session());
    let cache0 = engine.cube_cache().counters();
    let adm0 = engine.admission().counters();
    let mut tracer = Tracer::new(Instant::now());
    let b = stream(
        &engine,
        &writer,
        &reader,
        &table,
        &panel,
        Run::Exactly(a.done),
        Some((&mut tracer, &mut layers)),
        &mut out,
    );
    layers.cache_delta(&cache0, &engine.cube_cache().counters());
    layers.admission_delta(&adm0, &engine.admission().counters());
    for (kind, spans) in tracer.by_request() {
        let get = |k| spans.get(k).copied().unwrap_or(0.0);
        match kind {
            "write" => {
                layers.parse.push(get("parser.parse"));
                if let Some(p) = spans.get("write.publish_copy") {
                    layers.publish.push(*p);
                }
            }
            "read_hit" => layers.hit_ms.push(get("session.execute")),
            _ => {
                layers.columnar.push(get("relation.columnar"));
                layers.core.push(get("core.cube"));
                layers
                    .engine_self
                    .push(get("session.execute") - get("parser.parse") - get("core.cube"));
            }
        }
        layers.sampled += 1;
    }
    layers.insert = a.writes.inserts;
    layers.delete = a.writes.deletes;
    layers.overhead_pct = overhead_pct(&a.writes.all, &b.writes.all);
    verify(&engine, &table, &panel, b.done, &mut out);
    Ok(Report {
        outcome: out,
        metrics: layers.metrics(),
        tracer: Some(tracer),
    })
}

/// How long a phase runs.
enum Run<'a> {
    /// Until `--seconds` have passed and there are enough samples.
    For(&'a Config),
    /// Exactly this many write statements.
    Exactly(usize),
}

/// The writer/reader lockstep over the stream of writes. With `trace`,
/// every write and every panel read is a traced request.
#[allow(clippy::too_many_arguments)]
fn stream(
    engine: &Engine,
    writer: &Session,
    reader: &Session,
    table: &WindowedTable,
    panel: &[Stmt],
    run: Run<'_>,
    mut trace: Option<(&mut Tracer, &mut Layers)>,
    out: &mut Outcome,
) -> Phase {
    let mut writes = Writes::default();
    let mut reads = Samples::new();
    let mut done = 0;
    let start = Instant::now();
    for w in &table.writes {
        let more = match &run {
            Run::For(cfg) => keep_going(
                start,
                cfg.seconds,
                writes.all.len().min(reads.len()),
                cfg.scale.min_samples,
            ),
            Run::Exactly(n) => done < *n,
        };
        if !more {
            break;
        }
        match trace.as_mut() {
            None => writes.step(writer, w, out),
            Some((tracer, layers)) => {
                let old = engine.table("ingest");
                let mut req = tracer.request(0, "write");
                req.span("session.execute", || writes.step(writer, w, out));
                layers
                    .queue_wait
                    .push(f64::from(writer.last_admission().queue_wait_ms));
                out.op(
                    "parse replay",
                    req.span("parser.parse", || dc_sql::parser::parse(w.sql())),
                );
                if let (Write::Insert { rows, .. }, Ok(old)) = (w, old) {
                    let t = req.span("write.publish_copy", || publish_copy(&old, rows));
                    out.op("publish replay", t);
                }
                tracer.finish(req);
            }
        }
        done += 1;
        for s in panel {
            let Some((tracer, layers)) = trace.as_mut() else {
                let t0 = Instant::now();
                let r = reader.execute(&s.sql);
                let dt = ms(t0.elapsed());
                if out.op("select", r).is_some() {
                    reads.push(dt);
                }
                continue;
            };
            let mut req = tracer.request(0, "read_miss");
            let t0 = Instant::now();
            let r = req.span("session.execute", || reader.execute(&s.sql));
            let dt = ms(t0.elapsed());
            if out.op("select", r).is_some() {
                reads.push(dt);
                if reader.last_admission().answered_from_cache {
                    req.rename("read_hit");
                } else if let Some(base) = out.op("snapshot", engine.table("ingest")) {
                    replay(s, &base, &mut req, layers, out);
                }
            }
            tracer.finish(req);
        }
    }
    Phase {
        writes,
        reads,
        secs: start.elapsed().as_secs_f64(),
        done,
    }
}

/// Output checks after `done` writes: `COUNT(*)` and `SUM(units)` against
/// the generator's running totals, and per panel statement the cache-on
/// answer against the cache-off answer and both against the reference.
fn verify(engine: &Engine, table: &WindowedTable, panel: &[Stmt], done: usize, out: &mut Outcome) {
    let on = engine.session();
    let expected = done
        .checked_sub(1)
        .map_or(table.initial, |i| table.totals[i]);
    probe::check_totals(&on, "ingest", expected, out);
    let off = engine.session();
    if let Err(e) = off.set_option("CUBE_CACHE", 0) {
        out.fail("cache off", e);
        return;
    }
    let Some(base) = out.op("snapshot", engine.table("ingest")) else {
        return;
    };
    for s in panel {
        let (Some(a), Some(b)) = (
            out.op("select", on.execute(&s.sql)),
            out.op("select", off.execute(&s.sql)),
        ) else {
            continue;
        };
        // Top-N ties may be broken either way; the reference check below
        // covers those statements on both answers.
        if s.top.is_none() {
            out.op(
                &format!("cache on/off {}", s.sql),
                check::same_answer(s.dims.len(), &a, &b),
            );
        }
        out.op(&format!("check {}", s.sql), check::check(s, &base, &a));
        out.op(
            &format!("check (cache off) {}", s.sql),
            check::check(s, &base, &b),
        );
    }
}
