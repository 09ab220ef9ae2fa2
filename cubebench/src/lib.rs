//! `cubebench`: end-to-end and per-layer benchmark of the cube engine.
//!
//! Three workloads drive the engine through its public API the way users
//! do — SQL text in, result out:
//!
//! * `adhoc_slice` — one embedded session running distinct analyst
//!   statements, each with a WHERE slice (so none is cache-eligible);
//! * `dashboard_wire` — `dc_sql::serve` on loopback, two connections
//!   cycling a cache-eligible dashboard panel through the shipped client;
//! * `ingest_window` — a writer session streaming INSERT batches under a
//!   rolling retention DELETE, with a reader session refreshing the panel
//!   after every committed write.
//!
//! An untraced run reports the end-to-end metrics; a traced run (`--trace
//! 1`) replays sampled requests' inputs through each layer's public entry
//! point and reports per-layer metrics. See README.md.

pub mod check;
pub mod data;
pub mod stats;
pub mod trace;

mod adhoc;
mod dashboard;
mod ingest;
mod probe;

use stats::{Metric, Samples};
use std::fmt::Display;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["adhoc_slice", "dashboard_wire", "ingest_window"];

/// Input sizes and repetition counts of a run.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Rows of the retail table of `adhoc_slice` and `dashboard_wire`.
    pub sales_rows: usize,
    /// Retention windows the `ingest_window` table holds.
    pub ingest_windows: usize,
    /// Windows of writes generated in advance for `ingest_window`.
    pub ingest_max_windows: usize,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setups: usize,
    /// A timed phase runs past `--seconds` until it has this many reads
    /// (and, on `ingest_window`, writes), so a p95 has enough samples
    /// beyond it.
    pub min_samples: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Scale {
            sales_rows: 200_000,
            ingest_windows: 224,
            ingest_max_windows: 256,
            setups: 5,
            min_samples: 200,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn small() -> Self {
        Scale {
            sales_rows: 12_000,
            ingest_windows: 12,
            ingest_max_windows: 40,
            setups: 1,
            min_samples: 200,
        }
    }
}

/// One run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// Operations attempted and failed, with the first few failures.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one operation; keep its value if it succeeded.
    pub fn op<T, E: Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, e);
                None
            }
        }
    }

    /// Count a failed operation.
    pub fn fail(&mut self, what: &str, e: impl Display) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(format!("{what}: {e}"));
        }
    }
}

/// What a run reports.
pub struct Report {
    pub outcome: Outcome,
    pub metrics: Vec<Metric>,
    pub tracer: Option<Tracer>,
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        "adhoc_slice" => adhoc::run(cfg),
        "dashboard_wire" => dashboard::run(cfg),
        "ingest_window" => ingest::run(cfg),
        other => Err(format!(
            "unknown workload '{other}' (expected one of {WORKLOADS:?})"
        )),
    }
}

pub(crate) fn err(e: impl Display) -> String {
    e.to_string()
}

/// No timed phase runs longer than this, whatever `--seconds` says, so a
/// run ends well inside its time limit.
const HARD_CAP: Duration = Duration::from_secs(120);

/// Whether a timed phase that started at `start` and has `samples`
/// samples should take another step.
pub(crate) fn keep_going(start: Instant, seconds: f64, samples: usize, min: usize) -> bool {
    let t = start.elapsed();
    t < HARD_CAP && (t.as_secs_f64() < seconds || samples < min)
}

/// Run `once` (one full set-up, returning its own measured duration) `n`
/// times, dropping each result before the next, and keep the last.
pub(crate) fn timed_setups<T>(
    n: usize,
    mut once: impl FnMut() -> Result<(T, Duration), String>,
) -> Result<(T, Samples), String> {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let (v, d) = once()?;
        times.push(d.as_secs_f64());
        last = Some(v);
    }
    last.map(|v| (v, times))
        .ok_or_else(|| "no set-up ran".into())
}

/// The end-to-end measurements of an untraced run.
pub(crate) struct EndToEnd<'a> {
    pub setup: Samples,
    pub reads: Samples,
    pub read_secs: f64,
    pub writes: &'a probe::Writes,
}

impl EndToEnd<'_> {
    pub fn metrics(&self) -> Result<Vec<Metric>, String> {
        let tail = |s: &Samples, what: &str| {
            s.percentile(0.95).ok_or_else(|| {
                format!(
                    "{} {what} samples: too few for a p95 with {} beyond it",
                    s.len(),
                    stats::MIN_BEYOND
                )
            })
        };
        let w = &self.writes.all;
        let qps = if self.read_secs > 0.0 {
            self.reads.len() as f64 / self.read_secs
        } else {
            0.0
        };
        Ok(vec![
            Metric::new("setup_s", self.setup.median(), "s", self.setup.len()),
            Metric::new("read_p50_ms", self.reads.median(), "ms", self.reads.len()),
            Metric::new(
                "read_p95_ms",
                tail(&self.reads, "read")?,
                "ms",
                self.reads.len(),
            ),
            Metric::new("read_qps", qps, "1/s", self.reads.len()),
            Metric::new("write_p50_ms", w.median(), "ms", w.len()),
            Metric::new("write_p95_ms", tail(w, "write")?, "ms", w.len()),
            Metric::new(
                "ingest_rows_per_s",
                self.writes.rows_per_s(),
                "rows/s",
                self.writes.inserts.len(),
            ),
            Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1),
        ])
    }
}

/// The per-layer measurements of a traced run. A layer a workload never
/// reaches reports 0.
#[derive(Debug, Default)]
pub(crate) struct Layers {
    pub parse: Samples,
    pub columnar: Samples,
    pub core: Samples,
    pub engine_self: Samples,
    /// §5 counters, summed over the first `FIXED_PREFIX` core replays.
    pub rows_scanned: u64,
    pub iter_calls: u64,
    pub merge_calls: u64,
    pub final_calls: u64,
    pub core_counted: usize,
    pub cache: dc_sql::CacheCounters,
    pub hit_ms: Samples,
    pub populate_ms: f64,
    pub queue_wait: Samples,
    pub queued: u64,
    pub shed: u64,
    pub insert: Samples,
    pub delete: Samples,
    pub publish: Samples,
    pub encode: Samples,
    pub decode: Samples,
    pub bytes: Samples,
    pub transport: Samples,
    pub overhead_pct: f64,
    pub sampled: usize,
}

/// Core replays whose §5 counters are summed: a fixed prefix, so the sums
/// are a function of the seed alone.
pub(crate) const FIXED_PREFIX: usize = 16;

impl Layers {
    /// Add one core replay's counters, if it is within the fixed prefix.
    pub fn count_core(&mut self, s: &datacube::ExecStats) {
        if self.core_counted < FIXED_PREFIX {
            self.core_counted += 1;
            self.rows_scanned += s.rows_scanned;
            self.iter_calls += s.iter_calls;
            self.merge_calls += s.merge_calls;
            self.final_calls += s.final_calls;
        }
    }

    /// Cache counters over a phase: `after` minus `before` (entries and
    /// cells as they stand at the end).
    pub fn cache_delta(&mut self, before: &dc_sql::CacheCounters, after: &dc_sql::CacheCounters) {
        self.cache = dc_sql::CacheCounters {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            ..*after
        };
    }

    pub fn admission_delta(
        &mut self,
        before: &dc_sql::AdmissionCounters,
        after: &dc_sql::AdmissionCounters,
    ) {
        self.queued = after.queued - before.queued;
        self.shed = after.shed - before.shed;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let med = |name, s: &Samples, unit| Metric::new(name, s.median(), unit, s.len());
        let count = |name, v: u64, n: usize| Metric::new(name, v as f64, "count", n);
        let c = &self.cache;
        let lookups = c.hits + c.misses;
        let ratio = if lookups > 0 {
            c.hits as f64 / lookups as f64
        } else {
            0.0
        };
        let n = self.core_counted;
        vec![
            med("parser.parse_ms", &self.parse, "ms"),
            med("relation.columnar_ms", &self.columnar, "ms"),
            med("core.cube_ms", &self.core, "ms"),
            count("core.rows_scanned", self.rows_scanned, n),
            count("core.iter_calls", self.iter_calls, n),
            count("core.merge_calls", self.merge_calls, n),
            count("core.final_calls", self.final_calls, n),
            med("engine.self_ms", &self.engine_self, "ms"),
            count("cache.hits", c.hits, 1),
            count("cache.misses", c.misses, 1),
            count("cache.lookups", lookups, 1),
            Metric::new("cache.hit_ratio", ratio, "ratio", lookups as usize),
            count("cache.evictions", c.evictions, 1),
            count("cache.cells", c.cells, 1),
            med("cache.hit_ms", &self.hit_ms, "ms"),
            Metric::new("cache.populate_ms", self.populate_ms, "ms", 1),
            Metric::new(
                "admission.queue_wait_ms",
                self.queue_wait.mean(),
                "ms",
                self.queue_wait.len(),
            ),
            count("admission.queued", self.queued, 1),
            count("admission.shed", self.shed, 1),
            med("write.insert_p50_ms", &self.insert, "ms"),
            med("write.delete_p50_ms", &self.delete, "ms"),
            med("write.publish_copy_ms", &self.publish, "ms"),
            med("wire.encode_ms", &self.encode, "ms"),
            med("wire.decode_ms", &self.decode, "ms"),
            med("wire.response_bytes", &self.bytes, "bytes"),
            med("wire.transport_ms", &self.transport, "ms"),
            Metric::new("trace.overhead_pct", self.overhead_pct, "%", 2),
            count("trace.sampled", self.sampled as u64, 1),
        ]
    }
}

/// `100 × (traced − untraced) / untraced` of two medians.
pub(crate) fn overhead_pct(untraced: &Samples, traced: &Samples) -> f64 {
    let u = untraced.median();
    if u > 0.0 {
        100.0 * (traced.median() - u) / u
    } else {
        0.0
    }
}
