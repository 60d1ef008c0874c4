//! What a run records and how it is summarised.

use std::time::Duration;

/// The kind of one timed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A `SELECT`: point lookup or view read.
    Read,
    /// `INSERT`, `DELETE` or `UPDATE`.
    Write,
    /// A clock advance.
    Tick,
}

/// Latencies, counts and the verdict of one timed phase.
#[derive(Debug, Default)]
pub struct Recorder {
    reads: Vec<f64>,
    writes: Vec<f64>,
    ticks: Vec<f64>,
    /// Every latency.
    all: Vec<f64>,
    /// Wall seconds of the timed phase, from its start until every
    /// client finished its last round.
    wall_s: f64,
    /// Operations attempted, failed ones included.
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Failures that are not the one named fault the benchmark keeps in
    /// its mix, with the first few messages.
    pub unexpected: Vec<String>,
    unexpected_count: u64,
    /// Bytes of user payload written by statements.
    pub user_bytes: u64,
}

impl Recorder {
    /// Records one completed operation and its latency.
    pub fn op(&mut self, kind: Op, took: Duration) {
        let us = took.as_secs_f64() * 1e6;
        self.attempted += 1;
        self.all.push(us);
        match kind {
            Op::Read => self.reads.push(us),
            Op::Write => self.writes.push(us),
            Op::Tick => self.ticks.push(us),
        }
    }

    /// Notes the wall time of the whole timed phase.
    pub fn set_wall(&mut self, took: Duration) {
        self.wall_s = took.as_secs_f64();
    }

    /// Operations of the timed phase (statements and ticks, of every
    /// client) over its wall time.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall_s.max(1e-9)
    }

    /// Counts the last recorded operation as failed by the named fault.
    pub fn named_failure(&mut self) {
        self.failed += 1;
    }

    /// Counts the last recorded operation as failed, unexpectedly: the
    /// run's answer is then not correct.
    pub fn unexpected_failure(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        self.wrong(msg);
    }

    /// Notes a wrong answer or a broken check outside the timed
    /// operations (end-of-run and recovery checks).
    pub fn wrong(&mut self, msg: impl Into<String>) {
        self.unexpected_count += 1;
        if self.unexpected.len() < 8 {
            self.unexpected.push(msg.into());
        }
    }

    /// Whether every check passed, apart from the named fault.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.unexpected_count == 0
    }

    /// Timed operations recorded so far.
    #[must_use]
    pub fn ops(&self) -> usize {
        self.reads.len() + self.writes.len() + self.ticks.len()
    }

    /// Median read, write and tick latency, and the 99th percentile of
    /// all operations of the phase, in µs.
    #[must_use]
    pub fn latencies(&self) -> (f64, f64, f64, f64) {
        (
            median(&self.reads),
            median(&self.writes),
            median(&self.ticks),
            quantile(&mut self.all.clone(), 0.99),
        )
    }

    /// Folds another recorder's counts and latencies into this one. Wall
    /// times add up: a client's recorder carries none (the phase's is set
    /// apart), and the slices of one phase run one after another.
    pub fn absorb(&mut self, other: Recorder) {
        self.wall_s += other.wall_s;
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.ticks.extend(other.ticks);
        self.all.extend(other.all);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.user_bytes += other.user_bytes;
        self.unexpected_count += other.unexpected_count;
        for m in other.unexpected {
            if self.unexpected.len() < 8 {
                self.unexpected.push(m);
            }
        }
    }
}

/// The `q` quantile by linear interpolation between closest ranks
/// (`q` in `0..=1`); 0 for no samples. Sorts `xs`.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64)
}

/// The median of `xs` (0 for none).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(&mut xs.to_vec(), 0.5)
}

/// What one invocation prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    /// Messages of unexpected failures (printed to standard error).
    pub problems: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    #[must_use]
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut xs = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut xs, 0.5), 2.5);
        assert_eq!(quantile(&mut xs, 0.0), 1.0);
        assert_eq!(quantile(&mut xs, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn json_is_one_object() {
        let r = Report {
            correct: true,
            attempted: 3,
            failed: 1,
            metrics: vec![("setup_s".into(), 0.25, "s".into())],
            problems: vec![],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
