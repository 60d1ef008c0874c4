//! The independent oracle: the harness's own record of every row and its
//! expiration time, and a naive evaluator over it.
//!
//! Nothing here calls the engine. Visibility at τ is `texp > τ` (the
//! paper's Sec. 2.2); `u64::MAX` stands for ∞. Relations are sets: a row
//! inserted twice keeps the larger `texp`.

use std::collections::BTreeMap;

/// One attribute value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    Int(i64),
    Text(String),
}

impl Cell {
    /// The integer inside, if any.
    #[must_use]
    pub fn int(&self) -> Option<i64> {
        match self {
            Cell::Int(i) => Some(*i),
            Cell::Text(_) => None,
        }
    }
}

/// A tuple.
pub type Row = Vec<Cell>;

/// Builds a row of integers.
#[must_use]
pub fn ints(xs: &[i64]) -> Row {
    xs.iter().map(|&x| Cell::Int(x)).collect()
}

/// A relation with expiration times: row → `texp`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rel {
    rows: BTreeMap<Row, u64>,
}

impl Rel {
    #[must_use]
    pub fn new() -> Self {
        Rel::default()
    }

    /// Builds a relation from `(row, texp)` pairs (set semantics).
    pub fn from_rows(rows: impl IntoIterator<Item = (Row, u64)>) -> Self {
        let mut r = Rel::new();
        for (row, texp) in rows {
            r.insert(row, texp);
        }
        r
    }

    /// Inserts, keeping the larger `texp` for a row already present.
    pub fn insert(&mut self, row: Row, texp: u64) {
        let e = self.rows.entry(row).or_insert(texp);
        *e = (*e).max(texp);
    }

    /// Sets a row's `texp` outright.
    pub fn set(&mut self, row: Row, texp: u64) {
        self.rows.insert(row, texp);
    }

    /// Removes a row, returning its `texp`.
    pub fn remove(&mut self, row: &Row) -> Option<u64> {
        self.rows.remove(row)
    }

    /// The row's `texp`, if it is recorded (live or not).
    #[must_use]
    pub fn texp(&self, row: &Row) -> Option<u64> {
        self.rows.get(row).copied()
    }

    /// Rows visible at `now`.
    pub fn live(&self, now: u64) -> impl Iterator<Item = (&Row, u64)> + '_ {
        self.rows
            .iter()
            .filter(move |(_, &e)| e > now)
            .map(|(r, &e)| (r, e))
    }

    /// Visible rows whose first attribute is `key`.
    pub fn live_with_key<'a>(
        &'a self,
        key: &'a Cell,
        now: u64,
    ) -> impl Iterator<Item = (&'a Row, u64)> + 'a {
        let lo = vec![key.clone()];
        self.rows
            .range(lo..)
            .take_while(move |(r, _)| r.first() == Some(key))
            .filter(move |(_, &e)| e > now)
            .map(|(r, &e)| (r, e))
    }

    /// Drops rows that are no longer visible at `now` (eager removal).
    pub fn expire(&mut self, now: u64) {
        self.rows.retain(|_, e| *e > now);
    }

    /// The visible part at `now`, as a relation.
    #[must_use]
    pub fn at(&self, now: u64) -> Rel {
        Rel::from_rows(self.live(now).map(|(r, e)| (r.clone(), e)))
    }
}

/// σ: visible rows satisfying `pred`, each keeping its `texp`.
pub fn select(r: &Rel, now: u64, pred: impl Fn(&Row) -> bool) -> Rel {
    Rel::from_rows(
        r.live(now)
            .filter(|(row, _)| pred(row))
            .map(|(row, e)| (row.clone(), e)),
    )
}

/// π: the projection keeps the largest `texp` among the rows that
/// project to the same tuple.
#[must_use]
pub fn project(r: &Rel, now: u64, positions: &[usize]) -> Rel {
    Rel::from_rows(
        r.live(now)
            .map(|(row, e)| (positions.iter().map(|&i| row[i].clone()).collect(), e)),
    )
}

/// ⋈ on `left[l] = right[r]`: a joined tuple lives as long as both parts.
#[must_use]
pub fn join(left: &Rel, right: &Rel, now: u64, l: usize, r: usize) -> Rel {
    let mut out = Rel::new();
    for (a, ea) in left.live(now) {
        for (b, eb) in right.live(now) {
            if a[l] == b[r] {
                let mut row = a.clone();
                row.extend(b.iter().cloned());
                out.insert(row, ea.min(eb));
            }
        }
    }
    out
}

/// Visible tuples of `left` not visible in `right`, as a set.
#[must_use]
pub fn difference(left: &Rel, right: &Rel, now: u64) -> Vec<Row> {
    let right: std::collections::BTreeSet<&Row> = right.live(now).map(|(r, _)| r).collect();
    left.live(now)
        .filter(|(r, _)| !right.contains(r))
        .map(|(r, _)| r.clone())
        .collect()
}

/// `COUNT(*)` per value of attribute `key`, over visible rows.
#[must_use]
pub fn count_by(r: &Rel, now: u64, key: usize) -> BTreeMap<Cell, i64> {
    let mut out = BTreeMap::new();
    for (row, _) in r.live(now) {
        *out.entry(row[key].clone()).or_insert(0) += 1;
    }
    out
}

/// Exact `SUM` of integer attribute `val` per value of `key`, in `i128`.
#[must_use]
pub fn sum_by(r: &Rel, now: u64, key: usize, val: usize) -> BTreeMap<Cell, i128> {
    let mut out = BTreeMap::new();
    for (row, _) in r.live(now) {
        let v = i128::from(row[val].int().unwrap_or(0));
        *out.entry(row[key].clone()).or_insert(0) += v;
    }
    out
}

/// The paper's Fig. 1 relations: Pol(UID, Deg) and El(UID, Deg) at time 0.
#[must_use]
pub fn figure1() -> (Rel, Rel) {
    let pol = Rel::from_rows([
        (ints(&[1, 25]), 10),
        (ints(&[2, 25]), 15),
        (ints(&[3, 35]), 10),
    ]);
    let el = Rel::from_rows([
        (ints(&[1, 75]), 5),
        (ints(&[2, 85]), 3),
        (ints(&[4, 90]), 2),
    ]);
    (pol, el)
}

/// The paper's Fig. 2 expressions at `now`: `πexp_2(Pol)` and
/// `Pol ⋈exp_{1=3} El`.
#[must_use]
pub fn figure2(now: u64) -> (Rel, Rel) {
    let (pol, el) = figure1();
    (project(&pol, now, &[1]), join(&pol, &el, now, 0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_the_larger_texp() {
        let mut r = Rel::new();
        r.insert(ints(&[1]), 5);
        r.insert(ints(&[1]), 3);
        assert_eq!(r.texp(&ints(&[1])), Some(5));
        assert_eq!(r.live(5).count(), 0);
        assert_eq!(r.live(4).count(), 1);
    }

    #[test]
    fn key_lookup_stays_in_its_key() {
        let r = Rel::from_rows([
            (ints(&[1, 9]), 10),
            (ints(&[2, 1]), 10),
            (ints(&[2, 2]), 3),
            (ints(&[3, 0]), 10),
        ]);
        let rows: Vec<_> = r.live_with_key(&Cell::Int(2), 5).collect();
        assert_eq!(rows, vec![(&ints(&[2, 1]), 10)]);
    }

    #[test]
    fn sums_are_exact_above_two_to_the_53() {
        let big = (1i64 << 53) + 1;
        let r = Rel::from_rows([(ints(&[0, big]), u64::MAX), (ints(&[0, 2]), 9)]);
        assert_eq!(sum_by(&r, 0, 0, 1)[&Cell::Int(0)], i128::from(big) + 2);
        assert_eq!(sum_by(&r, 9, 0, 1)[&Cell::Int(0)], i128::from(big));
    }
}
