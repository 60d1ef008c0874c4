//! The traced run: times the calls into each layer's public functions
//! and reads the engine's `db.*`/`storage.*`/`policy.*`/`view.*`/`wal.*`/
//! `net.*` counters around them.

use crate::LAYER_METRICS;
use exptime_core::algebra::{eval, EvalOptions};
use exptime_core::schema::Schema;
use exptime_engine::{Database, DbResult, ExecResult};
use exptime_sql::{plan_query, SchemaProvider, SqlError, Statement};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer accumulators. Each metric is one of: the median of its
/// samples, a ratio of two sums, a maximum, or a value set once.
#[derive(Debug, Default)]
pub struct Probe {
    samples: BTreeMap<&'static str, Vec<f64>>,
    ratios: BTreeMap<&'static str, (f64, f64)>,
    values: BTreeMap<&'static str, f64>,
}

impl Probe {
    /// Adds one sample of a median-summarised metric.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Adds to the numerator and denominator of a ratio metric.
    pub fn ratio(&mut self, name: &'static str, num: f64, den: f64) {
        let e = self.ratios.entry(name).or_default();
        e.0 += num;
        e.1 += den;
    }

    /// Raises a maximum metric to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.values.entry(name).or_insert(v);
        *e = e.max(v);
    }

    /// Sets a metric outright.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Folds another probe's samples, sums and maxima into this one.
    pub fn absorb(&mut self, other: Probe) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, (n, d)) in other.ratios {
            self.ratio(k, n, d);
        }
        for (k, v) in other.values {
            self.max(k, v);
        }
    }

    /// The current value of a metric (0 when nothing was recorded).
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        if let Some(xs) = self.samples.get(name) {
            return crate::stats::median(xs);
        }
        if let Some(&(num, den)) = self.ratios.get(name) {
            return if den > 0.0 { num / den } else { 0.0 };
        }
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric, in [`LAYER_METRICS`] order.
    #[must_use]
    pub fn metrics(&self) -> Vec<(String, f64, String)> {
        LAYER_METRICS
            .iter()
            .map(|(name, unit)| ((*name).to_string(), self.value(name), (*unit).to_string()))
            .collect()
    }
}

/// Plans against the engine's catalog, views included.
#[derive(Debug)]
pub struct DbProvider<'a>(pub &'a Database);

impl SchemaProvider for DbProvider<'_> {
    fn schema_of(&self, name: &str) -> Result<Schema, SqlError> {
        self.0.schema_of_relation(name)
    }
}

/// Engine counters read at the start and end of a traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub wal_fsyncs: u64,
    pub scans: u64,
    pub sliding_touches: u64,
}

impl Counters {
    /// Reads the counters of `db` (`scans` summed over `tables`).
    #[must_use]
    pub fn read(db: &Database, tables: &[&str]) -> Self {
        let m = db.metrics();
        Counters {
            wal_bytes: m.counter_value("wal.bytes"),
            wal_records: m.counter_value("wal.records"),
            wal_fsyncs: m.counter_value("wal.fsyncs"),
            scans: tables
                .iter()
                .map(|t| m.counter_value(&format!("storage.{t}.scans")))
                .sum(),
            sliding_touches: m.counter_value("policy.sliding_touches"),
        }
    }

    fn minus(self, o: Counters) -> Counters {
        Counters {
            wal_bytes: self.wal_bytes - o.wal_bytes,
            wal_records: self.wal_records - o.wal_records,
            wal_fsyncs: self.wal_fsyncs - o.wal_fsyncs,
            scans: self.scans - o.scans,
            sliding_touches: self.sliding_touches - o.sliding_touches,
        }
    }
}

/// Statement counts of a traced phase, for the per-statement ratios.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCounts {
    /// Every statement (not ticks).
    pub stmts: u64,
    /// `DELETE` and `UPDATE` statements.
    pub scanning_writes: u64,
    /// Reads of a table that slides on access.
    pub sliding_reads: u64,
    /// WAL work done by ticks, subtracted from the statements' share.
    pub tick_wal: Counters,
}

impl PhaseCounts {
    /// Adds another phase's counts to this one.
    pub fn absorb(&mut self, o: PhaseCounts) {
        self.stmts += o.stmts;
        self.scanning_writes += o.scanning_writes;
        self.sliding_reads += o.sliding_reads;
        self.tick_wal.wal_bytes += o.tick_wal.wal_bytes;
        self.tick_wal.wal_records += o.tick_wal.wal_records;
        self.tick_wal.wal_fsyncs += o.tick_wal.wal_fsyncs;
    }

    /// Folds the phase's counter deltas into `probe`.
    pub fn finish(&self, probe: &mut Probe, start: Counters, end: Counters) {
        let d = end.minus(start);
        let n = self.stmts as f64;
        probe.ratio(
            "wal.bytes_per_stmt",
            d.wal_bytes.saturating_sub(self.tick_wal.wal_bytes) as f64,
            n,
        );
        probe.ratio(
            "wal.records_per_stmt",
            d.wal_records.saturating_sub(self.tick_wal.wal_records) as f64,
            n,
        );
        probe.ratio(
            "wal.fsyncs_per_stmt",
            d.wal_fsyncs.saturating_sub(self.tick_wal.wal_fsyncs) as f64,
            n,
        );
        probe.ratio(
            "storage.scans_per_write",
            d.scans as f64,
            self.scanning_writes as f64,
        );
        probe.ratio(
            "policy.touches_per_read",
            d.sliding_touches as f64,
            self.sliding_reads as f64,
        );
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs a `SELECT` with each layer timed next to the engine's own
/// execution: `parse`, `plan_query`, `Database::snapshot` and
/// `algebra::eval` of the inlined plan over that snapshot, then
/// `Database::execute`. Returns the execution's result and latency.
pub fn traced_select(
    db: &mut Database,
    sql: &str,
    probe: &mut Probe,
) -> (DbResult<ExecResult>, Duration) {
    let t = Instant::now();
    let parsed = exptime_sql::parse(sql);
    let parse = t.elapsed();
    probe.sample("sql.parse_us", us(parse));
    let mut layered = parse;
    if let Ok(Statement::Select(query)) = parsed {
        let t = Instant::now();
        let planned = plan_query(&query, &DbProvider(db));
        let plan = t.elapsed();
        probe.sample("sql.plan_us", us(plan));
        layered += plan;
        if let Ok(expr) = planned {
            let t = Instant::now();
            let snapshot = db.snapshot();
            let snap = t.elapsed();
            let cloned: usize = snapshot.iter().map(|(_, r)| r.len()).sum();
            probe.sample("engine.snapshot_us", us(snap));
            probe.sample("engine.rows_cloned_per_read", cloned as f64);
            let inlined = db.inline_views(&expr);
            let t = Instant::now();
            let evaluated = eval(&inlined, &snapshot, db.now(), &EvalOptions::default());
            let ev = t.elapsed();
            probe.sample("core.eval_us", us(ev));
            let returned = evaluated.map_or(0, |m| m.rel.len());
            probe.ratio(
                "engine.rows_examined_per_result",
                cloned as f64,
                returned as f64,
            );
            layered += snap + ev;
        }
    }
    let t = Instant::now();
    let res = db.execute(sql);
    let took = t.elapsed();
    probe.sample("engine.read_unattributed_us", us(took) - us(layered));
    (res, took)
}

/// Runs a write statement with its parse timed beside it.
pub fn traced_write(
    db: &mut Database,
    sql: &str,
    probe: &mut Probe,
) -> (DbResult<ExecResult>, Duration) {
    let t = Instant::now();
    let _ = exptime_sql::parse(sql);
    probe.sample("sql.parse_us", us(t.elapsed()));
    let t = Instant::now();
    let res = db.execute(sql);
    (res, t.elapsed())
}

/// Advances the clock by one tick, recording the tick's cost per expired
/// row, checkpoint ticks, the WAL work the tick did, and the cost of
/// `Database::forecast` afterwards. Returns the tick's latency.
pub fn traced_tick(db: &mut Database, probe: &mut Probe, counts: &mut PhaseCounts) -> Duration {
    let before = Counters::read(db, &[]);
    let expired = db.metrics().counter_value("db.expired");
    let checkpoints = db.metrics().counter_value("wal.checkpoints");
    let t = Instant::now();
    db.tick(1);
    let took = t.elapsed();
    let d = Counters::read(db, &[]).minus(before);
    counts.tick_wal.wal_bytes += d.wal_bytes;
    counts.tick_wal.wal_records += d.wal_records;
    counts.tick_wal.wal_fsyncs += d.wal_fsyncs;
    let expired = db.metrics().counter_value("db.expired") - expired;
    if expired > 0 {
        probe.ratio("storage.tick_us_per_expired_row", us(took), expired as f64);
    }
    if db.metrics().counter_value("wal.checkpoints") > checkpoints {
        probe.sample("wal.checkpoint_tick_us", us(took));
    }
    let t = Instant::now();
    let forecast = db.forecast();
    probe.sample("obs.forecast_us", us(t.elapsed()));
    std::hint::black_box(forecast);
    took
}

/// What a traced phase carries: the per-layer accumulators and the
/// statement counts behind the per-statement ratios.
#[derive(Debug, Default)]
pub struct Traced {
    pub probe: Probe,
    pub counts: PhaseCounts,
}

/// Executes one statement, traced when `tr` is given, and records its
/// latency. Returns the result, or `None` after counting an unexpected
/// failure.
pub fn execute(
    db: &mut Database,
    sql: &str,
    kind: crate::stats::Op,
    rec: &mut crate::Recorder,
    tr: Option<&mut Traced>,
) -> Option<ExecResult> {
    use crate::stats::Op;
    let (res, took) = match tr {
        Some(t) => {
            t.counts.stmts += 1;
            if kind == Op::Read {
                traced_select(db, sql, &mut t.probe)
            } else {
                if sql.starts_with("DELETE") || sql.starts_with("UPDATE") {
                    t.counts.scanning_writes += 1;
                }
                traced_write(db, sql, &mut t.probe)
            }
        }
        None => {
            let t = Instant::now();
            let res = db.execute(sql);
            (res, t.elapsed())
        }
    };
    rec.op(kind, took);
    match res {
        Ok(r) => Some(r),
        Err(e) => {
            rec.unexpected_failure(format!("`{sql}` failed: {e}"));
            None
        }
    }
}

/// Advances the clock by one tick, traced when `tr` is given, and
/// records its latency.
pub fn tick(db: &mut Database, rec: &mut crate::Recorder, tr: Option<&mut Traced>) {
    let took = match tr {
        Some(t) => traced_tick(db, &mut t.probe, &mut t.counts),
        None => {
            let t = Instant::now();
            db.tick(1);
            t.elapsed()
        }
    };
    rec.op(crate::stats::Op::Tick, took);
}
