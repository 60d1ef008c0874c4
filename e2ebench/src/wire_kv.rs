//! `wire_kv`: two client connections (`NetClient`), each in a closed
//! loop on its own thread, against an embedded `NetServer` over loopback
//! on a `SharedDatabase` (one server worker).
//!
//! One small table `cache (k, v)`. Each client owns a disjoint key range
//! and mixes point reads, inserts, `UPDATE … SET EXPIRES IN` by key and
//! `DELETE` by key; every [`STMTS_PER_TICK`] statements it ticks the
//! shared handle. Statements are small, so framing, sessions, the
//! admission queue and the one database mutex take a large share of each.
//!
//! The oracle is each client's model of its own keys: a read returns
//! exactly the client's last acknowledged write. The clock may move
//! between a statement's send and its acknowledgement (the other client
//! ticks), so a write's `texp` is known as a range until a read pins it.

use crate::probe::{self, Counters, Traced};
use crate::stats::{Op, Recorder};
use crate::{
    durable_config, open_fresh, sliced, timed_setups, Crashed, Outcome, Report, Rng, RunConfig,
};
use exptime_core::time::Time;
use exptime_core::value::Value;
use exptime_engine::durability::MemStore;
use exptime_engine::{DbConfig, ExecResult, SharedDatabase};
use exptime_net::{
    decode_msg, encode_msg, ClientConfig, Msg, NetClient, NetConfig, NetServer, ReplyBody,
};
use exptime_obs::Obs;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (and client threads).
pub const CLIENTS: usize = 2;

/// Statements a client issues between two ticks.
pub const STMTS_PER_TICK: usize = 8;

/// One client round: 5 reads and 3 writes, then a tick.
const ROUND: [Kind; STMTS_PER_TICK] = [
    Kind::Read,
    Kind::Write,
    Kind::Read,
    Kind::Write,
    Kind::Read,
    Kind::Read,
    Kind::Write,
    Kind::Read,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Read,
    Write,
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub keys_per_client: usize,
    /// Rounds each client runs during set-up, after loading its keys.
    pub warmup_rounds: usize,
    /// In-process write statements between the final checkpoint and the
    /// crash.
    pub tail_stmts: usize,
}

impl Sizes {
    #[must_use]
    pub fn of(cfg: &RunConfig) -> Self {
        Sizes {
            keys_per_client: cfg.size(128, 8),
            warmup_rounds: cfg.size(350, 5),
            tail_stmts: cfg.size(160_000, 40),
        }
    }
}

/// Statements between two ticks in the tail before the crash: fewer
/// ticks than the checkpoint period, so the whole tail stays in the log.
const TAIL_STMTS_PER_TICK: usize = 64;

/// Checkpoints every 4096 ticks.
fn config() -> DbConfig {
    durable_config(4_096)
}

/// A client's model of one key.
#[derive(Debug, Clone, Copy, Default)]
struct Key {
    /// Whether an acknowledged write left a row that may still live.
    present: bool,
    v: i64,
    /// The row's `texp` is known to lie in `lo..=hi`.
    lo: u64,
    hi: u64,
}

/// What a write statement does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Write {
    Insert { v: i64, ttl: u64 },
    Update { ttl: u64 },
    Delete,
}

/// One client's key range and model.
#[derive(Debug)]
struct Model {
    base: i64,
    keys: Vec<Key>,
    rng: Rng,
}

impl Model {
    fn new(id: usize, seed: u64, n: usize) -> Self {
        Model {
            base: (id * n) as i64,
            keys: vec![Key::default(); n],
            rng: Rng::new(seed.wrapping_mul(31).wrapping_add(id as u64)),
        }
    }

    fn pick(&mut self) -> usize {
        self.rng.range(0, self.keys.len() as u64) as usize
    }

    /// Chooses a write for key `i`, given the clock `now` read before
    /// sending: an insert where no row can live, else an update or a
    /// delete (both settle whether the row was still there).
    fn choose_write(&mut self, i: usize, now: u64) -> Write {
        let key = self.keys[i];
        if !key.present || key.hi <= now {
            self.keys[i].present = false;
            Write::Insert {
                v: self.rng.irange(0, 1 << 40),
                ttl: self.rng.range(8, 64),
            }
        } else if self.rng.chance(0.7) {
            // Each update extends the row past any `texp` it held before:
            // an update back to an earlier `texp` hits a storage fault
            // (see CHANGES.md), which would fail on some seeds only.
            Write::Update {
                ttl: key.hi.saturating_sub(now) + self.rng.range(1, 32),
            }
        } else {
            Write::Delete
        }
    }

    fn sql(&self, i: usize, w: Write) -> String {
        let k = self.base + i as i64;
        match w {
            Write::Insert { v, ttl } => {
                format!("INSERT INTO cache VALUES ({k}, {v}) EXPIRES IN {ttl} TICKS")
            }
            Write::Update { ttl } => {
                format!("UPDATE cache SET EXPIRES IN {ttl} TICKS WHERE k = {k}")
            }
            Write::Delete => format!("DELETE FROM cache WHERE k = {k}"),
        }
    }

    /// Applies an acknowledged write executed at some clock in `a0..=a1`.
    fn ack_write(
        &mut self,
        i: usize,
        w: Write,
        affected: u64,
        a0: u64,
        a1: u64,
    ) -> Result<(), String> {
        let key = self.keys[i];
        let k = self.base + i as i64;
        let could_live = key.present && key.hi > a0;
        let could_be_gone = !key.present || key.lo <= a1;
        match w {
            Write::Insert { v, ttl } => {
                if affected != 1 {
                    return Err(format!("insert of key {k}: {affected} rows affected"));
                }
                self.keys[i] = Key {
                    present: true,
                    v,
                    lo: a0 + ttl,
                    hi: a1 + ttl,
                };
            }
            Write::Update { ttl } => match affected {
                1 if could_live => {
                    self.keys[i].lo = a0 + ttl;
                    self.keys[i].hi = a1 + ttl;
                }
                0 if could_be_gone => self.keys[i].present = false,
                n => {
                    return Err(format!(
                        "update of key {k} ({key:?}, clock {a0}..={a1}): {n} rows affected"
                    ))
                }
            },
            Write::Delete => match affected {
                1 if could_live => self.keys[i].present = false,
                0 if could_be_gone => self.keys[i].present = false,
                n => {
                    return Err(format!(
                        "delete of key {k} ({key:?}, clock {a0}..={a1}): {n} rows affected"
                    ))
                }
            },
        }
        Ok(())
    }

    /// Checks a read of key `i` evaluated at `as_of`, and pins the
    /// model to what it saw.
    fn ack_read(&mut self, i: usize, as_of: u64, rows: &[(i64, i64, u64)]) -> Result<(), String> {
        let key = self.keys[i];
        let k = self.base + i as i64;
        match rows {
            [] => {
                if key.present && key.lo > as_of {
                    return Err(format!("read of key {k} at {as_of}: no row, model {key:?}"));
                }
                self.keys[i].present = false;
            }
            [(rk, v, texp)] => {
                let ok = key.present
                    && *rk == k
                    && *v == key.v
                    && (key.lo..=key.hi).contains(texp)
                    && *texp > as_of;
                if !ok {
                    return Err(format!(
                        "read of key {k} at {as_of}: got ({rk}, {v}) texp {texp}, model {key:?}"
                    ));
                }
                self.keys[i].lo = *texp;
                self.keys[i].hi = *texp;
            }
            more => {
                return Err(format!(
                    "read of key {k}: {} rows, expected at most 1",
                    more.len()
                ))
            }
        }
        Ok(())
    }

    /// Checks the stored rows of this client's range at `now`.
    fn check_rows(&self, now: u64, stored: &[(i64, i64, u64)], checks: &mut Recorder, ctx: &str) {
        let n = self.keys.len() as i64;
        let mine: Vec<&(i64, i64, u64)> = stored
            .iter()
            .filter(|(k, _, _)| (self.base..self.base + n).contains(k))
            .collect();
        for (i, key) in self.keys.iter().enumerate() {
            let k = self.base + i as i64;
            let rows: Vec<&&(i64, i64, u64)> = mine.iter().filter(|r| r.0 == k).collect();
            let ok = match rows.as_slice() {
                [] => !key.present || key.lo <= now,
                [(_, v, texp)] => {
                    key.present && *v == key.v && (key.lo..=key.hi).contains(texp) && *texp > now
                }
                _ => false,
            };
            if !ok {
                checks.wrong(format!(
                    "{ctx}: key {k} stored as {rows:?}, model {key:?} at {now}"
                ));
            }
        }
    }
}

fn cache_rows(db: &exptime_engine::Database) -> Result<Vec<(i64, i64, u64)>, String> {
    let table = db.table("cache").map_err(|e| e.to_string())?;
    Ok(table
        .scan_at(Time::ZERO)
        .map(|(t, e)| (int(&t.values()[0]), int(&t.values()[1]), crate::texp_u64(e)))
        .collect())
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        _ => i64::MIN,
    }
}

/// The server, its database, the log under it, and the clients.
struct World {
    shared: SharedDatabase,
    store: MemStore,
    obs: Obs,
    server: Option<NetServer>,
    /// The engine clock, stored under the database lock by every tick,
    /// so that a statement acknowledged after a tick sees it.
    clock: Arc<AtomicU64>,
    clients: Vec<(NetClient, Model)>,
}

impl World {
    fn build(seed: u64, sizes: Sizes) -> Result<World, String> {
        let store = MemStore::new();
        let mut db = open_fresh(&store, config())?;
        db.execute("CREATE TABLE cache (k INT, v INT)")
            .map_err(|e| format!("set-up: {e}"))?;
        let obs = db.obs().clone();
        let shared = SharedDatabase::from_database(db);
        let net = NetConfig {
            workers: 1,
            ..NetConfig::default()
        };
        let server =
            NetServer::serve(&shared, "127.0.0.1:0", net).map_err(|e| format!("serve: {e}"))?;
        let addr = server.local_addr().to_string();
        let mut w = World {
            shared,
            store,
            obs,
            server: Some(server),
            clock: Arc::new(AtomicU64::new(0)),
            clients: Vec::new(),
        };
        for id in 0..CLIENTS {
            let conn = NetClient::connect(&addr, ClientConfig::default())
                .map_err(|e| format!("connect: {e}"))?;
            w.clients
                .push((conn, Model::new(id, seed, sizes.keys_per_client)));
        }
        // Load every key, then warm up with a fixed number of rounds.
        let mut clients = std::mem::take(&mut w.clients);
        let results: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|(conn, model)| {
                    let w = &w;
                    s.spawn(move || -> Result<(), String> {
                        let mut rec = Recorder::default();
                        for i in 0..model.keys.len() {
                            let write = Write::Insert {
                                v: model.rng.irange(0, 1 << 40),
                                ttl: model.rng.range(8, 64),
                            };
                            w.write(conn, model, i, write, &mut rec, None);
                        }
                        for _ in 0..sizes.warmup_rounds {
                            w.round(conn, model, &mut rec, None);
                        }
                        rec.unexpected.first().map_or(Ok(()), |e| Err(e.clone()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        w.clients = clients;
        results.into_iter().collect::<Result<Vec<()>, String>>()?;
        Ok(w)
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Sends one statement and returns the reply and its round trip.
    fn send(
        &self,
        conn: &mut NetClient,
        sql: &str,
        tr: Option<&mut Traced>,
    ) -> (Result<ReplyBody, String>, Duration) {
        if let Some(t) = tr {
            let start = Instant::now();
            self.shared.with(|_| ());
            t.probe.sample("engine.lock_wait_us", us(start.elapsed()));
            t.counts.stmts += 1;
            let start = Instant::now();
            let res = conn.execute(sql).map_err(|e| format!("`{sql}`: {e}"));
            let took = start.elapsed();
            t.probe.sample("net.rtt_us", us(took));
            t.probe.max(
                "net.queue_depth_max",
                self.obs.registry().gauge_value("net.queue_depth") as f64,
            );
            if let Ok(body) = &res {
                let start = Instant::now();
                let bytes = encode_msg(&Msg::Reply {
                    seq: 1,
                    body: body.clone(),
                });
                std::hint::black_box(decode_msg(&bytes).ok());
                t.probe.sample("net.codec_us", us(start.elapsed()));
            }
            return (res, took);
        }
        let start = Instant::now();
        let res = conn.execute(sql).map_err(|e| format!("`{sql}`: {e}"));
        (res, start.elapsed())
    }

    fn write(
        &self,
        conn: &mut NetClient,
        model: &mut Model,
        i: usize,
        write: Write,
        rec: &mut Recorder,
        mut tr: Option<&mut Traced>,
    ) {
        let sql = model.sql(i, write);
        rec.user_bytes += match write {
            Write::Insert { .. } | Write::Update { .. } => 16,
            Write::Delete => 8,
        };
        if let Some(t) = tr.as_deref_mut() {
            let start = Instant::now();
            let _ = exptime_sql::parse(&sql);
            t.probe.sample("sql.parse_us", us(start.elapsed()));
            if matches!(write, Write::Update { .. } | Write::Delete) {
                t.counts.scanning_writes += 1;
            }
        }
        let a0 = self.now();
        let (res, took) = self.send(conn, &sql, tr);
        let a1 = self.now();
        rec.op(Op::Write, took);
        match res {
            Ok(ReplyBody::Affected(n)) => {
                if let Err(e) = model.ack_write(i, write, n, a0, a1) {
                    rec.wrong(e);
                }
            }
            Ok(other) => rec.wrong(format!("`{sql}`: unexpected reply {other:?}")),
            Err(e) => rec.unexpected_failure(e),
        }
    }

    fn read(
        &self,
        conn: &mut NetClient,
        model: &mut Model,
        rec: &mut Recorder,
        mut tr: Option<&mut Traced>,
    ) {
        let i = model.pick();
        let k = model.base + i as i64;
        let sql = format!("SELECT k, v FROM cache WHERE k = {k}");
        if let Some(t) = tr.as_deref_mut() {
            // The read's layers, timed in process next to the wire read (a
            // read of a table without a sliding policy has no side effect).
            let (res, _) = self
                .shared
                .with(|db| probe::traced_select(db, &sql, &mut t.probe));
            std::hint::black_box(res.ok());
        }
        let (res, took) = self.send(conn, &sql, tr);
        rec.op(Op::Read, took);
        match res {
            Ok(ReplyBody::Rows {
                as_of,
                degraded: false,
                rows,
                ..
            }) => {
                let rows: Vec<(i64, i64, u64)> = rows
                    .iter()
                    .map(|(vals, e)| {
                        (
                            vals.first().map_or(i64::MIN, int),
                            vals.get(1).map_or(i64::MIN, int),
                            crate::texp_u64(*e),
                        )
                    })
                    .collect();
                if let Err(e) = model.ack_read(i, as_of, &rows) {
                    rec.wrong(e);
                }
            }
            Ok(other) => rec.wrong(format!("`{sql}`: unexpected reply {other:?}")),
            Err(e) => rec.unexpected_failure(e),
        }
    }

    fn tick(&self, rec: &mut Recorder, tr: Option<&mut Traced>) {
        let took = self.shared.with(|db| {
            let took = match tr {
                Some(t) => probe::traced_tick(db, &mut t.probe, &mut t.counts),
                None => {
                    let start = Instant::now();
                    db.tick(1);
                    start.elapsed()
                }
            };
            self.clock
                .store(crate::texp_u64(db.now()), Ordering::SeqCst);
            took
        });
        rec.op(Op::Tick, took);
    }

    fn round(
        &self,
        conn: &mut NetClient,
        model: &mut Model,
        rec: &mut Recorder,
        mut tr: Option<&mut Traced>,
    ) {
        for kind in ROUND {
            match kind {
                Kind::Read => self.read(conn, model, rec, tr.as_deref_mut()),
                Kind::Write => {
                    let i = model.pick();
                    let write = model.choose_write(i, self.now());
                    self.write(conn, model, i, write, rec, tr.as_deref_mut());
                }
            }
        }
        self.tick(rec, tr);
    }

    /// Both clients run whole rounds on their own threads until
    /// `seconds` have passed.
    fn phase(&mut self, seconds: f64, trace: bool) -> (Recorder, Option<Traced>) {
        let stop = AtomicBool::new(false);
        let start = Instant::now();
        let mut clients = std::mem::take(&mut self.clients);
        let results: Vec<(Recorder, Option<Traced>)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|(conn, model)| {
                    let w = &*self;
                    let stop = &stop;
                    s.spawn(move || {
                        let mut rec = Recorder::default();
                        let mut tr = trace.then(Traced::default);
                        while !stop.load(Ordering::SeqCst) {
                            w.round(conn, model, &mut rec, tr.as_mut());
                            if start.elapsed().as_secs_f64() >= seconds {
                                stop.store(true, Ordering::SeqCst);
                            }
                        }
                        (rec, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall = start.elapsed();
        self.clients = clients;
        let mut rec = Recorder::default();
        rec.set_wall(wall);
        let mut traced: Option<Traced> = None;
        for (r, t) in results {
            rec.absorb(r);
            if let Some(t) = t {
                let all = traced.get_or_insert_with(Traced::default);
                all.probe.absorb(t.probe);
                all.counts.absorb(t.counts);
            }
        }
        (rec, traced)
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl World {
    /// Closes the clients, drains the server and checks the table against
    /// the client models; then checkpoints, writes `tail_stmts` statements
    /// in process, cuts the log at its last synced byte, reopens it once
    /// and checks the recovered table.
    fn crash(
        mut self,
        tail_stmts: usize,
        checks: &mut Recorder,
        ctx: &str,
    ) -> Result<Crashed, String> {
        for (conn, _) in &mut self.clients {
            conn.close();
        }
        if let Some(server) = self.server.take() {
            server.drain();
        }
        // Every acknowledged write is in the table, once.
        let now = self.now();
        let stored = self.shared.with(|db| cache_rows(db))?;
        let models: Vec<&Model> = self.clients.iter().map(|(_, m)| m).collect();
        check_models(
            &models,
            now,
            &stored,
            checks,
            &format!("{ctx}, after drain"),
        );

        let mut models: Vec<Model> = self.clients.drain(..).map(|(_, m)| m).collect();
        self.shared.with(|db| -> Result<(), String> {
            db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
            for n in 0..tail_stmts {
                let model = &mut models[n % CLIENTS];
                let i = model.pick();
                let now = crate::texp_u64(db.now());
                let write = model.choose_write(i, now);
                let sql = model.sql(i, write);
                match db.execute(&sql) {
                    Ok(ExecResult::Affected(a)) => {
                        if let Err(e) = model.ack_write(i, write, a as u64, now, now) {
                            checks.wrong(format!("{ctx}, tail: {e}"));
                        }
                    }
                    other => checks.wrong(format!("{ctx}, tail `{sql}`: {other:?}")),
                }
                if n % TAIL_STMTS_PER_TICK == TAIL_STMTS_PER_TICK - 1 {
                    db.tick(1);
                }
            }
            Ok(())
        })?;
        let (now, synced) = self
            .shared
            .with(|db| (crate::texp_u64(db.now()), self.store.len()));
        let mut crashed = Crashed::cut(&self.store, synced, config());
        let recovered = crashed.recover()?;
        if crate::texp_u64(recovered.now()) != now {
            checks.wrong(format!(
                "{ctx}: recovered clock {} != {now}",
                recovered.now()
            ));
        }
        let stored = cache_rows(&recovered)?;
        let models: Vec<&Model> = models.iter().collect();
        check_models(
            &models,
            now,
            &stored,
            checks,
            &format!("{ctx}, after recovery"),
        );
        Ok(crashed)
    }
}

/// Runs the workload: the log `recovery_s` reopens, set-ups, the timed
/// phase (traced half first when tracing), the crash at the end of the
/// run and its checked recovery.
///
/// # Errors
///
/// Set-up or recovery failing outright.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    // Before the first server or client thread starts, so all inherit
    // them: one CPU and one heap (see `process`).
    crate::process::pin_to_one_cpu();
    crate::process::one_heap();
    let sizes = Sizes::of(cfg);
    let build = || World::build(cfg.seed, sizes);
    let mut out = Outcome::default();
    // The log every timed reopen replays: one more set-up, then a fixed
    // tail from a fresh checkpoint, so that each reopen does the same work
    // whatever the timed phase reaches.
    let mut crashed = build()?.crash(sizes.tail_stmts, &mut out.checks, "set-up log")?;
    let (setup, mut w) = timed_setups(cfg.reps, build)?;
    out.setup = setup;
    let registry = w.obs.registry().clone();
    if cfg.trace {
        let half = cfg.seconds / 2.0;
        registry.histogram("net.stmt_ns").reset();
        let start = w.shared.with(|db| Counters::read(db, &["cache"]));
        let (rec, traced) = w.phase(half, true);
        let end = w.shared.with(|db| Counters::read(db, &["cache"]));
        let mut t = traced.unwrap_or_default();
        let counts = t.counts;
        counts.finish(&mut t.probe, start, end);
        let server_us = registry.histogram("net.stmt_ns").snapshot().p50() / 1e3;
        t.probe.set("net.server_stmt_us", server_us);
        let overhead = t.probe.value("net.rtt_us") - server_us;
        t.probe.set("net.overhead_us", overhead);
        out.traced = Some((rec, t.probe));
        (out.timed, _) = w.phase(half, false);
    } else {
        let wal0 = registry.counter_value("wal.bytes");
        out.timed = sliced(cfg.seconds, cfg.recoveries, &mut crashed, |s| {
            w.phase(s, false).0
        })?;
        out.wal_bytes = registry.counter_value("wal.bytes") - wal0;
    }
    // The state the run reached, checkpointed and cut: checked, not timed.
    // The checkpoint keeps the log, and so the copies a crash makes, small.
    w.crash(0, &mut out.checks, "end of run")?;
    out.recovery = crashed.times;
    out.recovery_stats = crashed.stats;
    out.setup.extend(timed_setups(cfg.reps, build)?.0);
    Ok(out.report())
}

/// The table equals the union of the client models: every row belongs
/// to one client's range, matches its model, and no key holds two rows.
fn check_models(
    models: &[&Model],
    now: u64,
    stored: &[(i64, i64, u64)],
    checks: &mut Recorder,
    ctx: &str,
) {
    let total: i64 = models.iter().map(|m| m.keys.len() as i64).sum();
    if let Some(r) = stored
        .iter()
        .find(|(k, _, e)| !(0..total).contains(k) || *e <= now)
    {
        checks.wrong(format!("{ctx}: unexpected stored row {r:?} at {now}"));
    }
    for m in models {
        m.check_rows(now, stored, checks, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with_row() -> Model {
        let mut m = Model::new(0, 1, 4);
        // An insert of (2, 7) with TTL 10, sent at clock 5 and
        // acknowledged at clock 6: texp is 15 or 16.
        m.ack_write(2, Write::Insert { v: 7, ttl: 10 }, 1, 5, 6)
            .unwrap();
        m
    }

    #[test]
    fn the_last_acknowledged_write_is_read_back() {
        let mut m = model_with_row();
        m.ack_read(2, 8, &[(2, 7, 16)]).unwrap();
        assert_eq!((m.keys[2].lo, m.keys[2].hi), (16, 16), "the read pins texp");
        // Once expired, the row may be gone.
        m.ack_read(2, 16, &[]).unwrap();
        assert!(!m.keys[2].present);
    }

    #[test]
    fn perturbed_reads_are_caught() {
        for (as_of, rows) in [
            (8, vec![(2, 8, 16)]),             // wrong value
            (8, vec![(2, 7, 17)]),             // texp outside the ack window
            (8, vec![]),                       // a live row missing
            (8, vec![(2, 7, 16), (2, 9, 16)]), // a duplicate
            (16, vec![(2, 7, 16)]),            // returned at its texp
        ] {
            let mut m = model_with_row();
            assert!(m.ack_read(2, as_of, &rows).is_err(), "{rows:?} at {as_of}");
        }
    }

    #[test]
    fn writes_settle_whether_the_row_lived() {
        let mut m = model_with_row();
        // Update sent at 14, acknowledged at 17: the row may have expired.
        m.ack_write(2, Write::Update { ttl: 5 }, 0, 14, 17).unwrap();
        assert!(!m.keys[2].present);
        let mut m = model_with_row();
        // At clock 8 it certainly lived: an update of no row is wrong.
        assert!(m.ack_write(2, Write::Update { ttl: 5 }, 0, 8, 8).is_err());
        assert!(m.ack_write(2, Write::Delete, 0, 8, 8).is_err());
    }
}
