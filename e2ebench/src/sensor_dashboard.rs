//! `sensor_dashboard`: one in-process client over a sliding window of
//! sensor readings, with eager removal and checkpoints on the engine's
//! own cadence.
//!
//! `readings (sensor, val, bytes)` has an absolute TTL window and
//! `sensors (sensor)` is eternal. Four materialized views sit on them: a
//! monotone selection (`alerts`), `COUNT(*)` per sensor (`counts`),
//! `SUM(bytes)` per sensor (`volume`) and the sensors without readings
//! (`silent`, a difference). A batch is ingested every [`TICKS_PER_BATCH`]
//! ticks, and every view is read through SQL after every tick.
//!
//! Every even sensor holds one eternal reading whose `bytes` is odd and
//! above 2^53; every other reading's `bytes` is even. Each such sensor's
//! exact total is therefore odd and above 2^53, which an `f64`
//! accumulator cannot represent: reads of `volume` are the benchmark's
//! one named failing operation, counted in `failed` on every read.

use crate::oracle::{self, Cell, Rel, Row};
use crate::probe::{self, Traced};
use crate::stats::{Op, Recorder};
use crate::{
    check_table, durable_config, open_fresh, rel_rows, run_in_process, InProcess, Report, Rng,
    RunConfig,
};
use exptime_engine::durability::MemStore;
use exptime_engine::{Database, DbConfig, ExecResult};
use std::collections::BTreeMap;
use std::time::Instant;

const TABLES: [&str; 2] = ["sensors", "readings"];
const VIEWS: [&str; 4] = ["alerts", "counts", "volume", "silent"];

/// Ticks between two ingested batches.
pub const TICKS_PER_BATCH: u64 = 4;

/// A reading with `val` at or above this raises an alert.
const ALERT_AT: i64 = 950;

/// The eternal reading of even sensor `s`: odd `bytes` above 2^53.
fn eternal_bytes(s: i64) -> i64 {
    (1i64 << 53) + 1 + 2 * s
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub sensors: usize,
    /// Readings per batch.
    pub batch: usize,
    /// `INSERT` statements per batch (sensors are split among them).
    pub inserts_per_batch: usize,
    /// The readings' TTL, in ticks.
    pub window: u64,
    /// Batches (each followed by its ticks) ingested during set-up, so
    /// that the timed phase starts from a window the feed has filled.
    pub history_batches: usize,
    /// Batches ingested between the final checkpoint and the crash.
    pub tail_batches: usize,
}

impl Sizes {
    #[must_use]
    pub fn of(cfg: &RunConfig) -> Self {
        let sensors = cfg.size(64, 8);
        Sizes {
            sensors,
            batch: cfg.size(2_000, 64),
            // Blocks of at least four sensors, two of them even.
            inserts_per_batch: (sensors / 4).clamp(1, 16),
            window: 16,
            history_batches: cfg.size(48, 4),
            tail_batches: 63,
        }
    }
}

/// Checkpoints every 256 ticks: the tail before the crash (63 batches,
/// 252 ticks) stays in the log.
fn config() -> DbConfig {
    durable_config(256)
}

struct World {
    db: Database,
    store: MemStore,
    rng: Rng,
    sizes: Sizes,
    now: u64,
    sensors: Rel,
    readings: Rel,
    /// Odd sensors that skip the current batch; a sensor offline for a
    /// whole window shows up in `silent`.
    offline: Vec<bool>,
}

impl World {
    fn build(seed: u64, sizes: Sizes) -> Result<World, String> {
        let store = MemStore::new();
        let db = open_fresh(&store, config())?;
        let mut w = World {
            db,
            store,
            rng: Rng::new(seed),
            sizes,
            now: 0,
            sensors: Rel::new(),
            readings: Rel::new(),
            offline: vec![false; sizes.sensors],
        };
        w.sql("CREATE TABLE sensors (sensor INT)")?;
        w.sql(&format!(
            "CREATE TABLE readings (sensor INT, val INT, bytes INT) TTL {}",
            sizes.window
        ))?;
        let all: Vec<String> = (0..sizes.sensors).map(|s| format!("({s})")).collect();
        w.sql(&format!(
            "INSERT INTO sensors VALUES {} EXPIRES NEVER",
            all.join(", ")
        ))?;
        let mut eternal = Vec::new();
        for s in (0..sizes.sensors as i64).step_by(2) {
            eternal.push(format!("({s}, 0, {})", eternal_bytes(s)));
            w.readings
                .insert(oracle::ints(&[s, 0, eternal_bytes(s)]), u64::MAX);
        }
        w.sql(&format!(
            "INSERT INTO readings VALUES {} EXPIRES NEVER",
            eternal.join(", ")
        ))?;
        for s in 0..sizes.sensors as i64 {
            w.sensors.insert(oracle::ints(&[s]), u64::MAX);
        }
        w.sql(&format!(
            "CREATE MATERIALIZED VIEW alerts AS SELECT sensor, val FROM readings WHERE val >= {ALERT_AT}"
        ))?;
        w.sql("CREATE MATERIALIZED VIEW counts AS SELECT sensor, COUNT(*) FROM readings GROUP BY sensor")?;
        w.sql("CREATE MATERIALIZED VIEW volume AS SELECT sensor, SUM(bytes) FROM readings GROUP BY sensor")?;
        w.sql("CREATE MATERIALIZED VIEW silent AS SELECT sensor FROM sensors EXCEPT SELECT sensor FROM readings")?;
        // The feed's history, which fills the window.
        let mut history = Recorder::default();
        for _ in 0..sizes.history_batches {
            w.feed(&mut history);
        }
        if let Some(e) = history.unexpected.first() {
            return Err(format!("set-up: {e}"));
        }
        Ok(w)
    }

    fn sql(&mut self, s: &str) -> Result<ExecResult, String> {
        self.db.execute(s).map_err(|e| format!("set-up `{s}`: {e}"))
    }

    /// Ingests one batch as `inserts_per_batch` statements, each covering
    /// its share of the online sensors; the table's TTL sets `texp`.
    fn ingest(&mut self, rec: &mut Recorder, mut tr: Option<&mut Traced>) {
        for s in (1..self.sizes.sensors).step_by(2) {
            self.offline[s] = self.rng.chance(0.5);
        }
        let online: Vec<i64> = (0..self.sizes.sensors)
            .filter(|&s| !self.offline[s])
            .map(|s| s as i64)
            .collect();
        let groups = self.sizes.inserts_per_batch;
        let per = self.sizes.batch / groups;
        let texp = self.now + self.sizes.window;
        for g in 0..groups {
            let mut values = Vec::with_capacity(per);
            let mut rows = Vec::with_capacity(per);
            // Contiguous blocks of sensors: each holds even sensors,
            // which never go offline, so no statement is ever empty.
            let block = self.sizes.sensors.div_ceil(groups);
            let mine: Vec<i64> = online
                .iter()
                .copied()
                .filter(|s| *s as usize / block == g)
                .collect();
            for _ in 0..per {
                let s = mine[self.rng.range(0, mine.len() as u64) as usize];
                let val = self.rng.irange(0, 1_000);
                let bytes = 2 * self.rng.irange(1, 4_096);
                values.push(format!("({s}, {val}, {bytes})"));
                rows.push(oracle::ints(&[s, val, bytes]));
            }
            let sql = format!("INSERT INTO readings VALUES {}", values.join(", "));
            rec.user_bytes += 24 * per as u64;
            let res = probe::execute(&mut self.db, &sql, Op::Write, rec, tr.as_deref_mut());
            match res {
                Some(ExecResult::Affected(n)) if n == per => {}
                Some(other) => rec.wrong(format!(
                    "batch insert at {}: expected {per} rows affected, got {other:?}",
                    self.now
                )),
                None => {}
            }
            for row in rows {
                self.readings.insert(row, texp);
            }
        }
    }

    /// A batch and its ticks, without reads.
    fn feed(&mut self, rec: &mut Recorder) {
        self.ingest(rec, None);
        for _ in 0..TICKS_PER_BATCH {
            self.tick(rec, None);
        }
    }

    fn tick(&mut self, rec: &mut Recorder, tr: Option<&mut Traced>) {
        probe::tick(&mut self.db, rec, tr);
        self.now += 1;
        if crate::texp_u64(self.db.now()) != self.now {
            rec.wrong(format!(
                "clock reads {} after tick to {}",
                self.db.now(),
                self.now
            ));
        }
        self.readings.expire(self.now);
    }

    /// Reads one view through SQL and checks it against the oracle.
    fn read(&mut self, view: &str, rec: &mut Recorder, mut tr: Option<&mut Traced>) {
        let sql = format!("SELECT * FROM {view}");
        let res = probe::execute(&mut self.db, &sql, Op::Read, rec, tr.as_deref_mut());
        if let Some(t) = tr {
            self.traced_view_read(view, t);
        }
        let Some(res) = res else { return };
        let ExecResult::Rows(rel) = res else {
            return rec.wrong(format!("`{sql}`: expected rows, got {res:?}"));
        };
        let got = rel_rows(&rel);
        let now = self.now;
        if let Some((row, e)) = got.iter().find(|(_, e)| *e <= now) {
            return rec.wrong(format!("`{sql}` at {now}: {row:?} has texp {e} <= now"));
        }
        match view {
            "alerts" => {
                let sel = oracle::select(&self.readings, now, |r| r[1].int() >= Some(ALERT_AT));
                let expected: Vec<(Row, u64)> = oracle::project(&sel, now, &[0, 1])
                    .live(now)
                    .map(|(r, e)| (r.clone(), e))
                    .collect();
                if got != expected {
                    rec.wrong(format!(
                        "`{sql}` at {now}: {} rows, oracle expects {}",
                        got.len(),
                        expected.len()
                    ));
                }
            }
            "counts" => {
                let expected: Vec<Row> = oracle::count_by(&self.readings, now, 0)
                    .into_iter()
                    .map(|(k, n)| vec![k, Cell::Int(n)])
                    .collect();
                let values: Vec<Row> = got.into_iter().map(|(r, _)| r).collect();
                if values != expected {
                    rec.wrong(format!("`{sql}` at {now}: counts differ from the oracle"));
                }
            }
            "volume" => self.check_volume(&sql, &got, rec),
            _ => {
                let reporting = oracle::project(&self.readings, now, &[0]);
                let expected = oracle::difference(&self.sensors, &reporting, now);
                let values: Vec<Row> = got.into_iter().map(|(r, _)| r).collect();
                if values != expected {
                    rec.wrong(format!(
                        "`{sql}` at {now}: {values:?}, oracle expects {expected:?}"
                    ));
                }
            }
        }
    }

    /// A drill-down: one sensor's alerts, read through the view.
    fn read_sensor_alerts(&mut self, rec: &mut Recorder, tr: Option<&mut Traced>) {
        let s = self.rng.irange(0, self.sizes.sensors as i64);
        let sql = format!("SELECT sensor, val FROM alerts WHERE sensor = {s}");
        let res = probe::execute(&mut self.db, &sql, Op::Read, rec, tr);
        let now = self.now;
        let sel = oracle::select(&self.readings, now, |r| {
            r[0] == Cell::Int(s) && r[1].int() >= Some(ALERT_AT)
        });
        let expected: Vec<(Row, u64)> = oracle::project(&sel, now, &[0, 1])
            .live(now)
            .map(|(r, e)| (r.clone(), e))
            .collect();
        match res {
            Some(ExecResult::Rows(rel)) if rel_rows(&rel) == expected => {}
            Some(other) => rec.wrong(format!(
                "`{sql}` at {now}: {other:?}, oracle expects {expected:?}"
            )),
            None => {}
        }
    }

    /// Checks a read of `volume` against the exact `SUM(bytes)` per
    /// sensor, counting the named fault as a failure.
    fn check_volume(&self, sql: &str, got: &[(Row, u64)], rec: &mut Recorder) {
        let now = self.now;
        let expected = oracle::sum_by(&self.readings, now, 0, 2);
        match volume_verdict(&expected, got) {
            Ok(false) => {}
            Ok(true) => rec.named_failure(),
            Err(e) => rec.wrong(format!("`{sql}` at {now}: {e}")),
        }
    }

    /// Next to the SQL read: `Database::read_view`, and the view
    /// counters it moves.
    fn traced_view_read(&mut self, view: &str, t: &mut Traced) {
        let m = self.db.metrics();
        let c = |f: &str| m.counter_value(&format!("view.{view}.{f}"));
        let before = [c("recomputations"), c("local_reads"), c("patches_applied")];
        let start = Instant::now();
        let res = self.db.read_view(view);
        t.probe
            .sample("core.view_read_us", start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(res.ok());
        let m = self.db.metrics();
        let c = |f: &str| m.counter_value(&format!("view.{view}.{f}"));
        let after = [c("recomputations"), c("local_reads"), c("patches_applied")];
        for (name, i) in [
            ("core.view_recomputations", 0),
            ("core.view_local_reads", 1),
            ("core.view_patches", 2),
        ] {
            t.probe.ratio(name, (after[i] - before[i]) as f64, 1.0);
        }
    }
}

impl InProcess for World {
    fn db(&self) -> &Database {
        &self.db
    }

    fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    fn store(&self) -> &MemStore {
        &self.store
    }

    /// One round: a batch, then [`TICKS_PER_BATCH`] ticks each followed
    /// by a read of every view and one sensor's alerts.
    fn round(&mut self, rec: &mut Recorder, mut tr: Option<&mut Traced>) {
        self.ingest(rec, tr.as_deref_mut());
        for _ in 0..TICKS_PER_BATCH {
            self.tick(rec, tr.as_deref_mut());
            for view in VIEWS {
                self.read(view, rec, tr.as_deref_mut());
            }
            self.read_sensor_alerts(rec, tr.as_deref_mut());
        }
    }

    fn tail(&mut self, checks: &mut Recorder) {
        for _ in 0..self.sizes.tail_batches {
            self.feed(checks);
        }
    }

    fn check(&self, db: &Database, checks: &mut Recorder, ctx: &str) {
        if crate::texp_u64(db.now()) != self.now {
            checks.wrong(format!(
                "{ctx}: clock is {}, oracle expects {}",
                db.now(),
                self.now
            ));
        }
        check_table(db, "sensors", &self.sensors, self.now, checks, ctx);
        check_table(db, "readings", &self.readings, self.now, checks, ctx);
    }
}

/// Compares a read of `volume` with the exact totals: `Ok(false)` when
/// every total is exact, `Ok(true)` when the only wrong ones carry the
/// named fault's signature, an error otherwise.
///
/// The signature: an even sensor, whose exact total is odd and above
/// 2^53, read back off by exactly one. Its other readings are even and
/// below 2^13, so an `f64` accumulator loses only the eternal reading's
/// last bit; any other difference is a fault of view maintenance.
fn volume_verdict(expected: &BTreeMap<Cell, i128>, got: &[(Row, u64)]) -> Result<bool, String> {
    let got_keys: Vec<&Cell> = got.iter().map(|(r, _)| &r[0]).collect();
    if got_keys != expected.keys().collect::<Vec<_>>() {
        return Err("groups differ from the oracle".into());
    }
    let mut named = false;
    for (row, _) in got {
        let exact = expected[&row[0]];
        let total = row[1].int().map(i128::from);
        if total == Some(exact) {
            continue;
        }
        let even = row[0].int().is_some_and(|s| s % 2 == 0);
        if even && exact > 1i128 << 53 && total.is_some_and(|t| (t - exact).abs() == 1) {
            named = true;
        } else {
            return Err(format!(
                "sensor {:?} sums to {:?}, exactly {exact}",
                row[0], row[1]
            ));
        }
    }
    Ok(named)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up or recovery failing outright.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let sizes = Sizes::of(cfg);
    run_in_process(cfg, &TABLES, config(), || World::build(cfg.seed, sizes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals() -> BTreeMap<Cell, i128> {
        [(0, i128::from(eternal_bytes(0)) + 40), (1, 60)]
            .into_iter()
            .map(|(s, t)| (Cell::Int(s), t))
            .collect()
    }

    fn read(t0: i128, t1: i128) -> Vec<(Row, u64)> {
        let row = |s: i64, t: i128| (oracle::ints(&[s, i64::try_from(t).unwrap()]), 20);
        vec![row(0, t0), row(1, t1)]
    }

    #[test]
    fn only_the_named_faults_signature_is_booked_to_it() {
        let exact = totals();
        let big = exact[&Cell::Int(0)];
        assert_eq!(volume_verdict(&exact, &read(big, 60)), Ok(false));
        assert_eq!(volume_verdict(&exact, &read(big + 1, 60)), Ok(true));
        assert_eq!(volume_verdict(&exact, &read(big - 1, 60)), Ok(true));
        // A dropped or doubled reading on the even sensor is not the fault.
        assert!(volume_verdict(&exact, &read(big + 2, 60)).is_err());
        assert!(volume_verdict(&exact, &read(big - 40, 60)).is_err());
        // Nor is any wrong total on an odd sensor, or a missing group.
        assert!(volume_verdict(&exact, &read(big, 61)).is_err());
        assert!(volume_verdict(&exact, &read(big, 60)[..1]).is_err());
    }
}
