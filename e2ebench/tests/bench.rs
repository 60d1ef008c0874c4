//! The benchmark's own tests: small runs of every workload, the oracle
//! against the paper's Fig. 2, and the oracle catching a wrong answer.

use exptime_e2ebench::oracle::{figure2, ints, Rel};
use exptime_e2ebench::{check_table, run, Recorder, RunConfig, WORKLOADS};

fn small(trace: bool) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds: 0.3,
        trace,
        scale: 0.05,
        reps: 1,
        recoveries: 1,
    }
}

#[test]
fn every_workload_runs_small_with_only_the_named_failures() {
    for trace in [false, true] {
        for w in WORKLOADS {
            let r = run(w, &small(trace)).unwrap_or_else(|e| panic!("{w}: {e}"));
            assert!(r.correct, "{w} (trace {trace}): {:?}", r.problems);
            assert!(r.attempted > 0, "{w}");
            if w == "sensor_dashboard" {
                // One failed read of the SUM view per tick, in whole rounds.
                assert!(r.failed > 0, "{w}: the named failure did not show");
            } else {
                assert_eq!(r.failed, 0, "{w}: {:?}", r.problems);
            }
            let expected = if trace { 28 } else { 9 };
            assert_eq!(r.metrics.len(), expected, "{w}");
        }
    }
}

#[test]
fn end_to_end_metrics_are_positive() {
    for w in WORKLOADS {
        let r = run(w, &small(false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        for (name, value, _) in &r.metrics {
            assert!(*value > 0.0, "{w}: {name} = {value}");
        }
    }
}

#[test]
fn failed_share_is_the_same_whatever_the_seed() {
    let share = |seed| {
        let cfg = RunConfig {
            seed,
            ..small(false)
        };
        let r = run("sensor_dashboard", &cfg).expect("runs");
        (r.failed * 1_000_000) / r.attempted
    };
    assert_eq!(share(1), share(2));
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(run("nope", &small(false)).is_err());
}

/// Fig. 2 of the paper, recomputed by the oracle alone: `πexp_2(Pol)`
/// and `Pol ⋈exp_{1=3} El` at times 0, 3, 5 and 10.
#[test]
fn oracle_reproduces_figure_2() {
    let proj = |rows: &[(i64, u64)]| Rel::from_rows(rows.iter().map(|&(d, e)| (ints(&[d]), e)));
    let join = |rows: &[([i64; 4], u64)]| Rel::from_rows(rows.iter().map(|(r, e)| (ints(r), *e)));
    let at = |now| {
        let (p, j) = figure2(now);
        (p.at(now), j.at(now))
    };
    assert_eq!(
        at(0),
        (
            proj(&[(25, 15), (35, 10)]),
            join(&[([1, 25, 1, 75], 5), ([2, 25, 2, 85], 3)])
        )
    );
    assert_eq!(
        at(3),
        (proj(&[(25, 15), (35, 10)]), join(&[([1, 25, 1, 75], 5)]))
    );
    assert_eq!(at(5), (proj(&[(25, 15), (35, 10)]), join(&[])));
    assert_eq!(at(10), (proj(&[(25, 15)]), join(&[])));
}

/// The same table checked against a faithful oracle passes; against an
/// oracle with one `texp` or one value changed, it fails.
#[test]
fn a_perturbed_answer_is_caught() {
    use exptime_engine::{Database, DbConfig};
    let mut db = Database::new(DbConfig::default());
    db.execute("CREATE TABLE t (k INT, v INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 10), (2, 20) EXPIRES IN 5 TICKS")
        .unwrap();
    db.execute("INSERT INTO t VALUES (3, 30) EXPIRES NEVER")
        .unwrap();
    db.tick(1);
    let faithful = Rel::from_rows([
        (ints(&[1, 10]), 5),
        (ints(&[2, 20]), 5),
        (ints(&[3, 30]), u64::MAX),
    ]);
    let mut checks = Recorder::default();
    check_table(&db, "t", &faithful, 1, &mut checks, "faithful");
    assert!(checks.correct(), "{:?}", checks.unexpected);

    let mut texp = faithful.clone();
    texp.set(ints(&[2, 20]), 6);
    let mut value = faithful.clone();
    value.remove(&ints(&[3, 30]));
    value.insert(ints(&[3, 31]), u64::MAX);
    for (name, perturbed) in [("texp", texp), ("value", value)] {
        let mut checks = Recorder::default();
        check_table(&db, "t", &perturbed, 1, &mut checks, name);
        assert!(!checks.correct(), "a changed {name} went unnoticed");
    }

    // A row the engine still holds past its texp is caught too.
    let mut checks = Recorder::default();
    check_table(&db, "t", &faithful.at(5), 5, &mut checks, "expired");
    assert!(!checks.correct(), "rows with texp <= clock went unnoticed");
}
