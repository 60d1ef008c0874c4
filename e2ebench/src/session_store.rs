//! `session_store`: one in-process client over a session store.
//!
//! Tables: `sessions (sid, uid)` with `TTL n SLIDING ON ACCESS`, a small
//! eternal `users (uid, name)`, and an append-only `clicks (sid, url,
//! seq)` with an absolute TTL, several times the size of `sessions`.
//! Each round is a fixed sequence of session lookups by id (which slide
//! the session's expiration), profile lookups, click inserts, logins,
//! a logout (`DELETE … WHERE sid = ?`) and a tick. Every read touches one
//! row in a catalog dominated by unrelated rows.

use crate::oracle::{Cell, Rel, Row};
use crate::probe::{self, Traced};
use crate::stats::{Op, Recorder};
use crate::{
    check_table, durable_config, open_fresh, rel_rows, run_in_process, InProcess, Report, Rng,
    RunConfig,
};
use exptime_engine::durability::MemStore;
use exptime_engine::{Database, DbConfig, ExecResult};

const TABLES: [&str; 3] = ["users", "sessions", "clicks"];

/// One step of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Tick,
    Login,
    Click,
    Lookup,
    Profile,
    Logout,
}

use Step::{Click, Login, Logout, Lookup, Profile, Tick};

/// One round: 15 operations (5 reads, 9 writes, 1 tick).
const ROUND: [Step; 15] = [
    Tick, Login, Click, Click, Click, Lookup, Lookup, Profile, Click, Click, Click, Login, Lookup,
    Lookup, Logout,
];

/// The write-only rounds that end set-up and run between the final
/// checkpoint and the crash.
const TAIL_ROUND: [Step; 10] = [
    Tick, Login, Click, Click, Click, Click, Click, Click, Login, Logout,
];

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub users: usize,
    pub sessions: usize,
    pub clicks: usize,
    pub ttl_session: u64,
    pub ttl_click: u64,
    /// Rounds of [`TAIL_ROUND`] that end set-up, as the first traffic.
    pub warmup_rounds: usize,
    /// Rounds of [`TAIL_ROUND`] before the crash.
    pub tail_rounds: usize,
}

impl Sizes {
    #[must_use]
    pub fn of(cfg: &RunConfig) -> Self {
        Sizes {
            users: cfg.size(250, 10),
            sessions: cfg.size(1_000, 20),
            clicks: cfg.size(7_000, 60),
            ttl_session: cfg.size(500, 20) as u64,
            // Six clicks a tick: the table stays at its set-up size.
            ttl_click: cfg.size(1_175, 20) as u64,
            warmup_rounds: cfg.size(3_200, 5),
            tail_rounds: cfg.size(6_400, 5),
        }
    }
}

/// Checkpoints every 8192 ticks: the tail before the crash (6,400 ticks)
/// stays in the log, so recovery replays all of it.
fn config() -> DbConfig {
    durable_config(8_192)
}

/// The database, its log and the oracle's record of every row.
struct World {
    db: Database,
    store: MemStore,
    rng: Rng,
    sizes: Sizes,
    now: u64,
    users: Rel,
    sessions: Rel,
    clicks: Rel,
    next_sid: i64,
    next_click: i64,
}

impl World {
    /// Builds the initial database through SQL and the WAL, in the
    /// steady state of the round mix: sessions and clicks with
    /// expirations spread over their TTLs.
    fn build(seed: u64, sizes: Sizes) -> Result<World, String> {
        let store = MemStore::new();
        let mut db = open_fresh(&store, config())?;
        let mut w = World {
            db: Database::default(),
            store,
            rng: Rng::new(seed),
            sizes,
            now: 0,
            users: Rel::new(),
            sessions: Rel::new(),
            clicks: Rel::new(),
            next_sid: 0,
            next_click: 0,
        };
        let sql =
            |db: &mut Database, s: &str| db.execute(s).map_err(|e| format!("set-up `{s}`: {e}"));
        sql(&mut db, "CREATE TABLE users (uid INT, name TEXT)")?;
        sql(
            &mut db,
            &format!(
                "CREATE TABLE sessions (sid INT, uid INT) TTL {} SLIDING ON ACCESS",
                sizes.ttl_session
            ),
        )?;
        sql(
            &mut db,
            &format!(
                "CREATE TABLE clicks (sid INT, url INT, seq INT) TTL {}",
                sizes.ttl_click
            ),
        )?;
        for chunk in (0..sizes.users as i64).collect::<Vec<_>>().chunks(100) {
            let values: Vec<String> = chunk
                .iter()
                .map(|uid| format!("({uid}, 'user-{uid}')"))
                .collect();
            sql(
                &mut db,
                &format!(
                    "INSERT INTO users VALUES {} EXPIRES NEVER",
                    values.join(", ")
                ),
            )?;
            for uid in chunk {
                w.users.insert(
                    vec![Cell::Int(*uid), Cell::Text(format!("user-{uid}"))],
                    u64::MAX,
                );
            }
        }
        // One session per statement, as logins arrive.
        for i in 0..sizes.sessions {
            let sid = w.next_sid;
            w.next_sid += 1;
            let uid = w.rng.irange(0, sizes.users as i64);
            let ttl = 1 + (i as u64 * sizes.ttl_session) / sizes.sessions as u64;
            sql(
                &mut db,
                &format!("INSERT INTO sessions VALUES ({sid}, {uid}) EXPIRES IN {ttl} TICKS"),
            )?;
            w.sessions.insert(crate::oracle::ints(&[sid, uid]), ttl);
        }
        // Clicks grouped by expiration: one statement per distinct TTL.
        let per = (sizes.clicks as u64).div_ceil(sizes.ttl_click) as usize;
        let mut left = sizes.clicks;
        for ttl in 1..=sizes.ttl_click {
            let n = per.min(left);
            if n == 0 {
                break;
            }
            left -= n;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                let row = w.click_row();
                values.push(int_tuple(&row));
                w.clicks.insert(row, ttl);
            }
            sql(
                &mut db,
                &format!(
                    "INSERT INTO clicks VALUES {} EXPIRES IN {ttl} TICKS",
                    values.join(", ")
                ),
            )?;
        }
        w.db = db;
        let mut warmup = Recorder::default();
        for _ in 0..sizes.warmup_rounds {
            w.rounds(&TAIL_ROUND, &mut warmup, None);
        }
        if let Some(e) = warmup.unexpected.first() {
            return Err(format!("set-up: {e}"));
        }
        Ok(w)
    }

    /// A session id among the recently issued ones; about half are live.
    fn recent_sid(&mut self) -> i64 {
        let window = (2 * self.sizes.sessions) as i64;
        self.rng
            .irange((self.next_sid - window).max(0), self.next_sid)
    }

    fn click_row(&mut self) -> Row {
        let sid = self.recent_sid();
        let url = self.rng.irange(0, 1_000);
        let seq = self.next_click;
        self.next_click += 1;
        crate::oracle::ints(&[sid, url, seq])
    }

    fn step(&mut self, step: Step, rec: &mut Recorder, mut tr: Option<&mut Traced>) {
        let now = self.now;
        match step {
            Tick => {
                probe::tick(&mut self.db, rec, tr);
                self.now += 1;
                if crate::texp_u64(self.db.now()) != self.now {
                    rec.wrong(format!(
                        "clock reads {} after tick to {}",
                        self.db.now(),
                        self.now
                    ));
                }
                if self.now.is_multiple_of(64) {
                    self.sessions.expire(self.now);
                    self.clicks.expire(self.now);
                }
            }
            Login => {
                let sid = self.next_sid;
                self.next_sid += 1;
                let uid = self.rng.irange(0, self.sizes.users as i64);
                let sql = format!("INSERT INTO sessions VALUES ({sid}, {uid})");
                rec.user_bytes += 16;
                let res = probe::execute(&mut self.db, &sql, Op::Write, rec, tr);
                self.expect_affected(res, 1, &sql, rec);
                self.sessions.insert(
                    crate::oracle::ints(&[sid, uid]),
                    now + self.sizes.ttl_session,
                );
            }
            Click => {
                let row = self.click_row();
                let sql = format!("INSERT INTO clicks VALUES {}", int_tuple(&row));
                rec.user_bytes += 24;
                let res = probe::execute(&mut self.db, &sql, Op::Write, rec, tr);
                self.expect_affected(res, 1, &sql, rec);
                self.clicks.insert(row, now + self.sizes.ttl_click);
            }
            Lookup => {
                let sid = self.recent_sid();
                let sql = format!("SELECT uid FROM sessions WHERE sid = {sid}");
                if let Some(t) = tr.as_deref_mut() {
                    t.counts.sliding_reads += 1;
                }
                let res = probe::execute(&mut self.db, &sql, Op::Read, rec, tr);
                let key = Cell::Int(sid);
                let matched: Vec<(Row, u64)> = self
                    .sessions
                    .live_with_key(&key, now)
                    .map(|(r, e)| (r.clone(), e))
                    .collect();
                let mut expected: Vec<(Row, u64)> = matched
                    .iter()
                    .map(|(r, e)| (vec![r[1].clone()], *e))
                    .collect();
                expected.sort();
                self.expect_rows(res, &expected, &sql, rec);
                // The sliding rule, on the rows the read matched only.
                for (row, texp) in matched {
                    self.sessions
                        .set(row, texp.max(now + self.sizes.ttl_session));
                }
            }
            Profile => {
                let uid = self.rng.irange(0, self.sizes.users as i64);
                let sql = format!("SELECT name FROM users WHERE uid = {uid}");
                let res = probe::execute(&mut self.db, &sql, Op::Read, rec, tr);
                let mut expected: Vec<(Row, u64)> = self
                    .users
                    .live_with_key(&Cell::Int(uid), now)
                    .map(|(r, e)| (vec![r[1].clone()], e))
                    .collect();
                expected.sort();
                self.expect_rows(res, &expected, &sql, rec);
            }
            Logout => {
                let sid = self.recent_sid();
                let sql = format!("DELETE FROM sessions WHERE sid = {sid}");
                rec.user_bytes += 8;
                let res = probe::execute(&mut self.db, &sql, Op::Write, rec, tr);
                let victims: Vec<Row> = self
                    .sessions
                    .live_with_key(&Cell::Int(sid), now)
                    .map(|(r, _)| r.clone())
                    .collect();
                self.expect_affected(res, victims.len(), &sql, rec);
                for v in &victims {
                    self.sessions.remove(v);
                }
            }
        }
    }

    fn expect_affected(&self, res: Option<ExecResult>, n: usize, sql: &str, rec: &mut Recorder) {
        match res {
            Some(ExecResult::Affected(got)) if got == n => {}
            Some(other) => rec.wrong(format!(
                "`{sql}` at {}: expected {n} row(s) affected, got {other:?}",
                self.now
            )),
            None => {}
        }
    }

    fn expect_rows(
        &self,
        res: Option<ExecResult>,
        expected: &[(Row, u64)],
        sql: &str,
        rec: &mut Recorder,
    ) {
        match res {
            Some(ExecResult::Rows(rel)) => {
                let got = rel_rows(&rel);
                if got != expected {
                    rec.wrong(format!(
                        "`{sql}` at {}: engine returned {got:?}, oracle expects {expected:?}",
                        self.now
                    ));
                }
            }
            Some(other) => rec.wrong(format!("`{sql}`: expected rows, got {other:?}")),
            None => {}
        }
    }

    fn rounds(&mut self, round: &[Step], rec: &mut Recorder, mut tr: Option<&mut Traced>) {
        for &s in round {
            self.step(s, rec, tr.as_deref_mut());
        }
    }
}

/// `(a, b, …)` for a row of integers.
fn int_tuple(row: &Row) -> String {
    let cells: Vec<String> = row
        .iter()
        .map(|c| c.int().unwrap_or(0).to_string())
        .collect();
    format!("({})", cells.join(", "))
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

    fn round(&mut self, rec: &mut Recorder, tr: Option<&mut Traced>) {
        self.rounds(&ROUND, rec, tr);
    }

    fn tail(&mut self, checks: &mut Recorder) {
        for _ in 0..self.sizes.tail_rounds {
            self.rounds(&TAIL_ROUND, checks, None);
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
        check_table(db, "users", &self.users, self.now, checks, ctx);
        check_table(db, "sessions", &self.sessions, self.now, checks, ctx);
        check_table(db, "clicks", &self.clicks, self.now, checks, ctx);
    }
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
