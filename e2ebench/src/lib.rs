//! End-to-end benchmark of exptime.
//!
//! Three closed-loop workloads drive the public API of the engine over a
//! durable write-ahead log (`Durability::Wal` over the in-memory
//! `MemStore`, one fsync per commit). Every answer is checked against
//! [`oracle`], a naive model kept by the harness itself; every run ends
//! by crashing the log at its last synced byte and recovering from it.
//!
//! A run with tracing off yields the end-to-end metrics
//! ([`E2E_METRICS`]); a traced run times the calls into each layer and
//! reads the engine's own counters ([`LAYER_METRICS`]). See README.md.

#![deny(unsafe_code)]

pub mod oracle;
pub mod probe;
pub mod process;
pub mod sensor_dashboard;
pub mod session_store;
pub mod stats;
pub mod wire_kv;

use exptime_core::time::Time;
use exptime_core::value::Value;
use exptime_engine::durability::MemStore;
use exptime_engine::{Database, DbConfig, Durability, RecoveryStats};
use std::time::{Duration, Instant};

pub use probe::Probe;
pub use stats::{Recorder, Report};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["session_store", "sensor_dashboard", "wire_kv"];

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const E2E_METRICS: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("write_p50_us", "us"),
    ("tick_p50_us", "us"),
    ("op_p99_us", "us"),
    ("recovery_s", "s"),
    ("log_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit. A layer that does not run on a
/// workload reports 0.
pub const LAYER_METRICS: [(&str, &str); 28] = [
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("engine.snapshot_us", "us"),
    ("engine.rows_cloned_per_read", "rows"),
    ("engine.rows_examined_per_result", "ratio"),
    ("engine.read_unattributed_us", "us"),
    ("engine.lock_wait_us", "us"),
    ("core.eval_us", "us"),
    ("core.view_read_us", "us"),
    ("core.view_recomputations", "count"),
    ("core.view_local_reads", "count"),
    ("core.view_patches", "count"),
    ("policy.touches_per_read", "rows"),
    ("storage.scans_per_write", "count"),
    ("storage.tick_us_per_expired_row", "us"),
    ("obs.forecast_us", "us"),
    ("wal.bytes_per_stmt", "bytes"),
    ("wal.records_per_stmt", "count"),
    ("wal.fsyncs_per_stmt", "count"),
    ("wal.checkpoint_tick_us", "us"),
    ("wal.replayed_records", "count"),
    ("wal.skipped_expired", "count"),
    ("net.rtt_us", "us"),
    ("net.server_stmt_us", "us"),
    ("net.overhead_us", "us"),
    ("net.codec_us", "us"),
    ("net.queue_depth_max", "count"),
    ("trace.overhead_pct", "%"),
];

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase. A traced run splits it into a traced
    /// half and an untraced half, in that order.
    pub seconds: f64,
    /// Whether to run the traced phase and report per-layer metrics.
    pub trace: bool,
    /// Multiplies every input size; 1.0 is the benchmark, the tests run
    /// smaller.
    pub scale: f64,
    /// How many times set-up is repeated before the timed phase, and
    /// again after the last check (the median is reported).
    pub reps: usize,
    /// How many slices the untraced timed phase is cut into, each
    /// followed by one timed recovery (the median is reported).
    pub recoveries: usize,
}

impl RunConfig {
    /// A size scaled by [`RunConfig::scale`], at least `min`.
    #[must_use]
    pub fn size(&self, full: usize, min: usize) -> usize {
        ((full as f64 * self.scale).round() as usize).max(min)
    }
}

/// Runs one workload by name.
///
/// # Errors
///
/// Returns a message for an unknown workload name or for a step that
/// could not run at all (set-up or recovery failing).
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Report, String> {
    match workload {
        "session_store" => session_store::run(cfg),
        "sensor_dashboard" => sensor_dashboard::run(cfg),
        "wire_kv" => wire_kv::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// The engine configuration every workload uses: WAL over the in-memory
/// store, one fsync per commit, checkpoints every `checkpoint_every`
/// ticks, expiration-aware replay, eager removal.
#[must_use]
pub fn durable_config(checkpoint_every: u64) -> DbConfig {
    DbConfig {
        durability: Durability::Wal {
            group_commit: 1,
            checkpoint_every,
            expiration_aware: true,
        },
        ..DbConfig::default()
    }
}

/// Opens a fresh durable database over `store`.
///
/// # Errors
///
/// Returns the engine's error as text.
pub fn open_fresh(store: &MemStore, config: DbConfig) -> Result<Database, String> {
    Database::open_with_store(Box::new(store.clone()), config).map_err(|e| format!("open: {e}"))
}

/// A log cut at its last synced byte, reopened as often as asked. Each
/// reopen starts from an independent copy of the cut disk and is timed.
#[derive(Debug)]
pub struct Crashed {
    store: MemStore,
    synced_len: u64,
    config: DbConfig,
    /// Seconds of each reopen so far.
    pub times: Vec<f64>,
    /// Recovery statistics of the last reopen.
    pub stats: RecoveryStats,
}

impl Crashed {
    /// Cuts `store` at `synced_len`, the last synced byte.
    #[must_use]
    pub fn cut(store: &MemStore, synced_len: u64, config: DbConfig) -> Self {
        Crashed {
            store: store.crash(synced_len),
            synced_len,
            config,
            times: Vec::new(),
            stats: RecoveryStats::default(),
        }
    }

    /// Reopens the cut log with `Database::open_with_store`, timed.
    ///
    /// # Errors
    ///
    /// Returns the engine's error as text.
    pub fn recover(&mut self) -> Result<Database, String> {
        let cut = self.store.crash(self.synced_len);
        let start = Instant::now();
        let db = Database::open_with_store(Box::new(cut), self.config)
            .map_err(|e| format!("recovery: {e}"))?;
        self.times.push(start.elapsed().as_secs_f64());
        self.stats = db
            .recovery_stats()
            .ok_or("recovered database has no recovery statistics")?;
        Ok(db)
    }
}

/// Runs an untraced timed phase as `slices` equal slices, each followed
/// by one timed reopen of `crashed`. The reopens thus sample the machine
/// across the whole run, as the timed phase does, rather than during the
/// second or two after it; the phase's counts and wall times add up.
///
/// # Errors
///
/// A reopen failing outright.
pub fn sliced(
    seconds: f64,
    slices: usize,
    crashed: &mut Crashed,
    mut run: impl FnMut(f64) -> Recorder,
) -> Result<Recorder, String> {
    let slices = slices.max(1);
    let mut timed = Recorder::default();
    for _ in 0..slices {
        timed.absorb(run(seconds / slices as f64));
        // On a thread of its own, which the C library's allocator gives a
        // heap (arena) of its own: a reopened database allocated between
        // the live one's allocations would fragment the live heap, and
        // peak memory would grow with every reopen.
        std::thread::scope(|s| s.spawn(|| crashed.recover().map(drop)).join())
            .map_err(|_| "recovery panicked".to_string())??;
    }
    Ok(timed)
}

/// The timed phases of one run, with what happened around them.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up.
    pub setup: Vec<f64>,
    /// The untraced timed phase.
    pub timed: Recorder,
    /// WAL bytes written during the untraced timed phase.
    pub wal_bytes: u64,
    /// The traced phase and what it measured.
    pub traced: Option<(Recorder, Probe)>,
    /// Seconds of each timed recovery, and the last one's statistics.
    pub recovery: Vec<f64>,
    pub recovery_stats: RecoveryStats,
    /// Failures of the checks made outside the timed phases: the final
    /// state, the tail before the crash, the recovered state.
    pub checks: Recorder,
}

impl Outcome {
    /// The result line: end-to-end metrics from the untraced phase, or
    /// per-layer metrics when a traced phase ran.
    #[must_use]
    pub fn report(self) -> Report {
        let mut correct = self.timed.correct() && self.checks.correct();
        let mut attempted = self.timed.attempted;
        let mut failed = self.timed.failed;
        let mut problems: Vec<String> = self.timed.unexpected.clone();
        problems.extend(self.checks.unexpected.iter().cloned());
        let ops_per_s = self.timed.ops_per_s();
        let metrics = match self.traced {
            None => {
                let (read, write, tick, p99) = self.timed.latencies();
                let values = [
                    stats::median(&self.setup),
                    ops_per_s,
                    read,
                    write,
                    tick,
                    p99,
                    stats::median(&self.recovery),
                    self.wal_bytes as f64 / self.timed.user_bytes.max(1) as f64,
                    peak_rss_mb(),
                ];
                E2E_METRICS
                    .iter()
                    .zip(values)
                    .map(|((n, u), v)| ((*n).to_string(), v, (*u).to_string()))
                    .collect()
            }
            Some((traced, mut probe)) => {
                correct &= traced.correct();
                attempted += traced.attempted;
                failed += traced.failed;
                problems.extend(traced.unexpected.iter().cloned());
                let traced_ops = traced.ops_per_s();
                probe.set(
                    "trace.overhead_pct",
                    (ops_per_s - traced_ops) / ops_per_s.max(1e-9) * 100.0,
                );
                probe.set("wal.replayed_records", self.recovery_stats.replayed as f64);
                probe.set(
                    "wal.skipped_expired",
                    self.recovery_stats.skipped_expired as f64,
                );
                probe.metrics()
            }
        };
        Report {
            correct,
            attempted,
            failed,
            metrics,
            problems,
        }
    }
}

/// A workload driven by one client in this process.
pub(crate) trait InProcess {
    fn db(&self) -> &Database;
    fn db_mut(&mut self) -> &mut Database;
    /// The log under the database.
    fn store(&self) -> &MemStore;
    /// Runs one round of the workload's operation mix.
    fn round(&mut self, rec: &mut Recorder, tr: Option<&mut probe::Traced>);
    /// The fixed write-only tail between the last checkpoint and the
    /// crash.
    fn tail(&mut self, checks: &mut Recorder);
    /// Checks `db` (this workload's database, or a recovered copy)
    /// against the oracle.
    fn check(&self, db: &Database, checks: &mut Recorder, ctx: &str);
}

/// Runs whole rounds until `seconds` have passed.
fn phase<W: InProcess>(w: &mut W, seconds: f64, mut tr: Option<&mut probe::Traced>) -> Recorder {
    let mut rec = Recorder::default();
    let start = Instant::now();
    let deadline = Deadline::after(seconds);
    while !deadline.passed() {
        w.round(&mut rec, tr.as_deref_mut());
    }
    rec.set_wall(start.elapsed());
    rec
}

/// Runs an in-process workload: the log `recovery_s` reopens, set-ups,
/// the timed phase (traced half first when tracing), the final check,
/// the crash at the end of the run and its checked recovery.
pub(crate) fn run_in_process<W: InProcess>(
    cfg: &RunConfig,
    tables: &[&str],
    config: DbConfig,
    mut build: impl FnMut() -> Result<W, String>,
) -> Result<Report, String> {
    let mut out = Outcome::default();
    // The log every timed reopen replays: one more set-up, then a fixed
    // tail from a fresh checkpoint, so that each reopen does the same work
    // whatever the timed phase reaches.
    let mut crashed = {
        let mut w = build()?;
        checkpoint(&mut w)?;
        w.tail(&mut out.checks);
        crash(&w, config, &mut out.checks, "recovery of the set-up log")?
    };
    let (setup, mut w) = timed_setups(cfg.reps, &mut build)?;
    out.setup = setup;
    if cfg.trace {
        let half = cfg.seconds / 2.0;
        let mut t = probe::Traced::default();
        let start = probe::Counters::read(w.db(), tables);
        let rec = phase(&mut w, half, Some(&mut t));
        let end = probe::Counters::read(w.db(), tables);
        t.counts.finish(&mut t.probe, start, end);
        out.traced = Some((rec, t.probe));
        out.timed = phase(&mut w, half, None);
    } else {
        let wal0 = w.db().metrics().counter_value("wal.bytes");
        out.timed = sliced(cfg.seconds, cfg.recoveries, &mut crashed, |s| {
            phase(&mut w, s, None)
        })?;
        out.wal_bytes = w.db().metrics().counter_value("wal.bytes") - wal0;
    }
    w.check(w.db(), &mut out.checks, "end of run");
    // The state the run reached, checkpointed and cut: checked, not timed.
    // The checkpoint keeps the log, and so the copies a crash makes, small.
    checkpoint(&mut w)?;
    crash(&w, config, &mut out.checks, "end of run, after recovery")?;
    drop(w);
    out.recovery = crashed.times;
    out.recovery_stats = crashed.stats;
    out.setup.extend(timed_setups(cfg.reps, build)?.0);
    Ok(out.report())
}

/// Writes a checkpoint of `w`'s database.
fn checkpoint<W: InProcess>(w: &mut W) -> Result<(), String> {
    w.db_mut()
        .checkpoint()
        .map(drop)
        .map_err(|e| format!("checkpoint: {e}"))
}

/// Cuts `w`'s log at its last synced byte, reopens it once and checks
/// the recovered database against `w`'s oracle.
fn crash<W: InProcess>(
    w: &W,
    config: DbConfig,
    checks: &mut Recorder,
    ctx: &str,
) -> Result<Crashed, String> {
    let mut crashed = Crashed::cut(w.store(), w.store().len(), config);
    let db = crashed.recover()?;
    w.check(&db, checks, ctx);
    Ok(crashed)
}

/// Times `reps` set-ups and keeps the last database built. Each run
/// times set-up before its timed phase and again after its last check, so
/// that the median spans the run rather than one moment of it.
///
/// # Errors
///
/// The first set-up error.
pub fn timed_setups<T>(
    reps: usize,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous build first, so peak memory counts one.
        drop(last.take());
        let start = Instant::now();
        let built = build()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((times, last.expect("at least one set-up ran")))
}

/// `texp` as a number, `u64::MAX` standing for ∞.
#[must_use]
pub fn texp_u64(t: Time) -> u64 {
    t.finite().unwrap_or(u64::MAX)
}

/// Converts an engine value to the oracle's cell type.
#[must_use]
pub fn cell(v: &Value) -> oracle::Cell {
    match v {
        Value::Int(i) => oracle::Cell::Int(*i),
        Value::Str(s) => oracle::Cell::Text(s.to_string()),
        other => oracle::Cell::Text(format!("{other:?}")),
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is not available.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A deadline a closed loop runs whole rounds against.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    length: Duration,
}

impl Deadline {
    #[must_use]
    pub fn after(seconds: f64) -> Self {
        Deadline {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds.max(0.0)),
        }
    }

    #[must_use]
    pub fn passed(&self) -> bool {
        self.start.elapsed() >= self.length
    }
}

/// SplitMix64: a small deterministic generator, so that inputs depend on
/// the seed alone and not on any crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform in `lo..hi` as `i64`.
    pub fn irange(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// The rows of an engine relation with their `texp`, sorted.
#[must_use]
pub fn rel_rows(rel: &exptime_core::relation::Relation) -> Vec<(oracle::Row, u64)> {
    let mut rows: Vec<(oracle::Row, u64)> = rel
        .iter()
        .map(|(t, e)| (t.values().iter().map(cell).collect(), texp_u64(e)))
        .collect();
    rows.sort();
    rows
}

/// Checks a stored table against the oracle at `now`: the same rows with
/// the same `texp`, and no row with `texp ≤ now` still stored.
pub fn check_table(
    db: &Database,
    name: &str,
    model: &oracle::Rel,
    now: u64,
    checks: &mut Recorder,
    ctx: &str,
) {
    let table = match db.table(name) {
        Ok(t) => t,
        Err(e) => return checks.wrong(format!("{ctx}: table {name}: {e}")),
    };
    let mut stored: Vec<(oracle::Row, u64)> = table
        .scan_at(Time::ZERO)
        .map(|(t, e)| (t.values().iter().map(cell).collect(), texp_u64(e)))
        .collect();
    stored.sort();
    if let Some((row, e)) = stored.iter().find(|(_, e)| *e <= now) {
        checks.wrong(format!(
            "{ctx}: {name} still holds {row:?} with texp {e} <= clock {now}"
        ));
    }
    let expected: Vec<(oracle::Row, u64)> = model.live(now).map(|(r, e)| (r.clone(), e)).collect();
    if stored != expected {
        let missing = expected.iter().filter(|r| !stored.contains(r)).count();
        let extra = stored.iter().filter(|r| !expected.contains(r)).count();
        checks.wrong(format!(
            "{ctx}: {name} differs from the oracle at {now}: {missing} row(s) missing or changed, {extra} unexpected"
        ));
    }
}
