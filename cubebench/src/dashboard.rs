//! `dashboard_wire`: `dc_sql::serve` on loopback in the same process, and
//! `nproc` (at most two) connections each running a closed loop of the
//! dashboard panel through the shipped client, `wire::request`.
//!
//! The engine keeps its default lattice cache, so after the set-up's warm
//! pass every read is a cache hit: time goes to the cache's answer path,
//! wire encode/decode and TCP transport, and the core scan does nothing.

use crate::check;
use crate::data::{self, Stmt};
use crate::probe::{self, Probe, Writes};
use crate::stats::{ms, Samples};
use crate::trace::Tracer;
use crate::{
    err, keep_going, overhead_pct, timed_setups, Config, EndToEnd, Layers, Outcome, Report,
};
use dc_relation::Table;
use dc_sql::wire::{self, Response};
use dc_sql::{Engine, ServerConfig, ServiceConfig};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Every `SAMPLE_EVERY`-th request of a connection's traced phase is
/// traced.
const SAMPLE_EVERY: usize = 2;

/// A governed service sized so that nothing is shed at this load: two
/// client connections plus the traced run's in-process replays.
fn service() -> ServiceConfig {
    ServiceConfig {
        max_concurrent: 4,
        cheap_reserved: 1,
        cheap_cells: 1 << 16,
        global_cells: 1 << 26,
        min_grant_cells: 0,
        queue_depth: 8,
    }
}

/// One connection's part of a timed phase.
#[derive(Default)]
struct Conn {
    lat: Samples,
    out: Outcome,
    tracer: Option<Tracer>,
    hit_ms: Samples,
    queue_wait: Samples,
    bytes: Samples,
}

pub(crate) fn run(cfg: &Config) -> Result<Report, String> {
    let data = data::retail(cfg.scale.sales_rows, cfg.seed);
    let panel = data::panel("sales", "date", cfg.seed);
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let probe_ts: Vec<_> = (0..conns)
        .map(|c| data::probe_table(cfg.seed, &format!("probe_log_{c}")))
        .collect();
    let mut rng = data::Rng::derive(cfg.seed, 5);
    let offsets: Vec<usize> = (0..conns).map(|_| rng.below(panel.len())).collect();
    let mut out = Outcome::default();

    let n_setups = if cfg.trace { 1 } else { cfg.scale.setups };
    let ((mut engine, warm), setup) = timed_setups(n_setups, || {
        let rows = data.rows.clone();
        let t0 = Instant::now();
        let table = Table::new(data.schema.clone(), rows).map_err(err)?;
        let mut engine = Engine::with_service(service());
        engine.register_table("sales", table).map_err(err)?;
        let session = engine.session();
        let mut warm = Vec::new();
        for s in &panel {
            let t = Instant::now();
            let result = session.execute(&s.sql).map_err(err)?;
            warm.push((result.len(), ms(t.elapsed())));
        }
        Ok(((engine, warm), t0.elapsed()))
    })?;
    for t in &probe_ts {
        probe::register(&mut engine, t)?;
    }
    let expected: Vec<usize> = warm.iter().map(|w| w.0).collect();
    let server = dc_sql::serve(&engine, "127.0.0.1:0", ServerConfig::default()).map_err(err)?;
    let addr = server.local_addr();
    let mut probes: Vec<Probe> = probe_ts.iter().map(|t| Probe::new(&engine, t)).collect();

    // One timed phase: every connection's closed loop, on its own thread.
    let phase = |probes: &mut [Probe],
                 seconds: f64,
                 min: usize,
                 counts: Option<&[usize]>,
                 trace: Option<(&Engine, Instant)>| {
        let start = Instant::now();
        let results: Vec<Conn> = std::thread::scope(|s| {
            let handles: Vec<_> = probes
                .iter_mut()
                .enumerate()
                .map(|(c, probe)| {
                    let (panel, expected) = (&panel, &expected);
                    let plan = Plan {
                        offset: offsets[c],
                        seconds,
                        min,
                        limit: counts.map(|n| n[c]),
                    };
                    s.spawn(move || client(addr, panel, expected, plan, probe, trace, c))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        let mut c = Conn::default();
                        c.out.fail("client", "thread panicked");
                        c
                    })
                })
                .collect()
        });
        (results, start.elapsed().as_secs_f64())
    };

    let report = if !cfg.trace {
        let min = cfg.scale.min_samples.div_ceil(conns);
        let (conns_out, read_secs) = phase(&mut probes, cfg.seconds, min, None, None);
        let mut reads = Samples::new();
        for c in conns_out {
            reads.extend(&c.lat);
            merge(&mut out, c.out);
        }
        verify(&engine, addr, &panel, &mut out);
        server.shutdown();
        let mut writes = Writes::default();
        for p in &probes {
            p.finish(&mut out);
            writes.extend(&p.writes);
        }
        let metrics = EndToEnd {
            setup,
            reads,
            read_secs,
            writes: &writes,
        }
        .metrics()?;
        Report {
            outcome: out,
            metrics,
            tracer: None,
        }
    } else {
        let mut layers = Layers::default();
        // Populate cost: each panel statement's warm-pass miss minus its
        // uncached time.
        let uncached = engine.session();
        uncached.set_option("CUBE_CACHE", 0).map_err(err)?;
        for (s, (_, miss_ms)) in panel.iter().zip(&warm) {
            let t0 = Instant::now();
            out.op("uncached select", uncached.execute(&s.sql));
            layers.populate_ms += miss_ms - ms(t0.elapsed());
        }
        let (a, _) = phase(&mut probes, cfg.seconds / 2.0, 1, None, None);
        let counts: Vec<usize> = a.iter().map(|c| c.lat.len()).collect();
        let mut untraced = Samples::new();
        for c in a {
            untraced.extend(&c.lat);
            merge(&mut out, c.out);
        }
        for p in &mut probes {
            let w = std::mem::take(&mut p.writes);
            layers.insert.extend(&w.inserts);
            layers.delete.extend(&w.deletes);
        }
        let cache0 = engine.cube_cache().counters();
        let adm0 = engine.admission().counters();
        let origin = Instant::now();
        let trace = Some((&engine, origin));
        let (b, _) = phase(&mut probes, f64::INFINITY, 0, Some(&counts), trace);
        layers.cache_delta(&cache0, &engine.cube_cache().counters());
        layers.admission_delta(&adm0, &engine.admission().counters());
        let mut traced = Samples::new();
        let mut tracer = Tracer::new(origin);
        for c in b {
            traced.extend(&c.lat);
            layers.hit_ms.extend(&c.hit_ms);
            layers.queue_wait.extend(&c.queue_wait);
            layers.bytes.extend(&c.bytes);
            merge(&mut out, c.out);
            if let Some(t) = c.tracer {
                tracer.merge(t);
            }
        }
        for (_, spans) in tracer.by_request() {
            let get = |k| spans.get(k).copied().unwrap_or(0.0);
            layers.parse.push(get("parser.parse"));
            layers
                .engine_self
                .push(get("session.execute") - get("parser.parse"));
            layers.encode.push(get("wire.encode"));
            layers.decode.push(get("wire.decode"));
            layers.transport.push(
                get("wire.request")
                    - get("session.execute")
                    - get("wire.encode")
                    - get("wire.decode"),
            );
            layers.sampled += 1;
        }
        layers.overhead_pct = overhead_pct(&untraced, &traced);
        verify(&engine, addr, &panel, &mut out);
        server.shutdown();
        for p in &probes {
            p.finish(&mut out);
            layers.publish.extend(&p.publish);
        }
        Report {
            outcome: out,
            metrics: layers.metrics(),
            tracer: Some(tracer),
        }
    };
    Ok(report)
}

fn merge(into: &mut Outcome, from: Outcome) {
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.notes.extend(from.notes);
}

/// How long one connection's loop runs, and where in the panel it starts.
#[derive(Clone, Copy)]
struct Plan {
    offset: usize,
    /// Until `seconds` have passed and there are `min` reads ...
    seconds: f64,
    min: usize,
    /// ... or exactly this many requests.
    limit: Option<usize>,
}

/// One connection's closed loop over the panel; after each request it
/// issues its probe's next write. With `trace`, every `SAMPLE_EVERY`-th
/// request is traced (spans relative to the given origin) and its inputs
/// replayed in process on the given engine.
fn client(
    addr: SocketAddr,
    panel: &[Stmt],
    expected: &[usize],
    plan: Plan,
    probe: &mut Probe,
    trace: Option<(&Engine, Instant)>,
    conn: usize,
) -> Conn {
    let mut c = Conn::default();
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            c.out.fail("connect", e);
            return c;
        }
    };
    let replay = trace.map(|(e, _)| e.session());
    let mut tracer = trace.map(|(_, origin)| Tracer::new(origin));
    let start = Instant::now();
    let mut j = 0;
    loop {
        let more = match plan.limit {
            Some(n) => j < n,
            None => keep_going(start, plan.seconds, c.lat.len(), plan.min),
        };
        if !more {
            break;
        }
        let k = (plan.offset + j) % panel.len();
        let sql = &panel[k].sql;
        let sampled = j % SAMPLE_EVERY == 0;
        j += 1;
        let mut req = match (&mut tracer, sampled) {
            (Some(t), true) => Some(t.request(conn as u64, "request")),
            _ => None,
        };
        let t0 = Instant::now();
        let r = match &mut req {
            Some(req) => req.span("wire.request", || wire::request(&mut stream, sql)),
            None => wire::request(&mut stream, sql),
        };
        let dt = ms(t0.elapsed());
        match c.out.op("wire select", r) {
            Some(Response::Table { rows, .. }) if rows.len() == expected[k] => c.lat.push(dt),
            Some(Response::Table { rows, .. }) => c.out.fail(
                "wire rows",
                format!("{} rows, expected {}", rows.len(), expected[k]),
            ),
            Some(Response::Error { code, message, .. }) => {
                c.out.fail("wire error", format!("{code}: {message}"))
            }
            // The connection is broken; further requests would fail too.
            None => break,
        }
        probe.step(trace.is_some(), &mut c.out);
        let (Some(mut req), Some(session), Some(tracer)) = (req, replay.as_ref(), tracer.as_mut())
        else {
            continue;
        };
        let t1 = Instant::now();
        let local = req.span("session.execute", || session.execute(sql));
        let exec_ms = ms(t1.elapsed());
        let adm = session.last_admission();
        c.queue_wait.push(f64::from(adm.queue_wait_ms));
        if adm.answered_from_cache {
            c.hit_ms.push(exec_ms);
        }
        req.span("parser.parse", || dc_sql::parser::parse(sql)).ok();
        if let Some(t) = c.out.op("replay select", local) {
            let bytes = req.span("wire.encode", || wire::encode_table(&t));
            c.bytes.push(bytes.len() as f64);
            let decoded = req.span("wire.decode", || wire::decode_response(&bytes));
            c.out.op("replay decode", decoded);
        }
        tracer.finish(req);
    }
    c.tracer = tracer;
    c
}

/// Output checks, once per panel statement: the decoded wire rows equal
/// the in-process result, which equals the reference algorithm's answer
/// on the same snapshot.
fn verify(engine: &Engine, addr: SocketAddr, panel: &[Stmt], out: &mut Outcome) {
    let session = engine.session();
    let Some(mut stream) = out.op("connect", TcpStream::connect(addr)) else {
        return;
    };
    let base = match engine.table("sales") {
        Ok(b) => b,
        Err(e) => {
            out.fail("snapshot", e);
            return;
        }
    };
    for s in panel {
        let wire_r = out.op("wire select", wire::request(&mut stream, &s.sql));
        let Some(local) = out.op("select", session.execute(&s.sql)) else {
            continue;
        };
        match wire_r {
            Some(Response::Table { rows, .. }) => {
                out.op(
                    &format!("wire check {}", s.sql),
                    check::wire_matches(&local, &rows),
                );
            }
            Some(Response::Error { code, message, .. }) => {
                out.fail("wire check", format!("{code}: {message}"))
            }
            None => {}
        }
        out.op(&format!("check {}", s.sql), check::check(s, &base, &local));
    }
}
