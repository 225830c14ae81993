//! The answer oracle: every answer the engine gives is recomputed from the
//! same bytes by the paper's Awk model (`nodb::baselines::ScriptEngine`),
//! outside the timed region, and compared.
//!
//! Integers and strings must match exactly. Floats must agree to a
//! relative [`FLOAT_REL_TOL`]: a float sum folded in a different order may
//! differ in its last bits, and the benchmark keeps float columns in its
//! data so that such differences stay visible in [`Tally::inexact`].

use std::path::Path;

use nodb::baselines::ScriptEngine;
use nodb::rawcsv::CsvOptions;
use nodb::types::Conjunction;
use nodb::{DataType, Field, Result, Schema, Value, WorkCounters};

/// Relative tolerance for float answers.
pub const FLOAT_REL_TOL: f64 = 1e-9;

/// A schema `a1, a2, ...` with the given column types: what the engine
/// infers for a headerless file, built here independently of it.
pub fn schema(types: &[DataType]) -> Result<Schema> {
    Schema::new(
        types
            .iter()
            .enumerate()
            .map(|(i, &t)| Field::new(format!("a{}", i + 1), t))
            .collect(),
    )
}

/// Stream every row of `path` through the Awk model with dialect `csv`,
/// parsing the `needed` columns (others stay NULL).
pub fn awk_rows(
    path: &Path,
    csv: &CsvOptions,
    schema: &Schema,
    needed: &[usize],
    visit: impl FnMut(&[Value]) -> Result<()>,
) -> Result<()> {
    let awk = ScriptEngine {
        csv: csv.clone(),
        ..ScriptEngine::awk()
    };
    let counters = WorkCounters::new();
    awk.for_each_row(
        path,
        schema,
        &Conjunction::new(Vec::new()),
        needed,
        &counters,
        visit,
    )
}

/// Outcome of comparing one value, ordered from best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Match {
    /// Identical.
    Exact,
    /// Floats within tolerance but not bit-identical.
    Close,
    /// Different.
    Wrong,
}

/// Compare an engine value with the oracle's.
pub fn compare(got: &Value, want: &Value) -> Match {
    match (got, want) {
        (Value::Float(g), Value::Float(w)) => {
            if g.to_bits() == w.to_bits() {
                Match::Exact
            } else if (g - w).abs() <= FLOAT_REL_TOL * g.abs().max(w.abs()).max(1.0) {
                Match::Close
            } else {
                Match::Wrong
            }
        }
        _ if got == want => Match::Exact,
        _ => Match::Wrong,
    }
}

/// Compare two rows of values.
pub fn compare_rows(got: &[Value], want: &[Value]) -> Match {
    if got.len() != want.len() {
        return Match::Wrong;
    }
    got.iter()
        .zip(want)
        .map(|(g, w)| compare(g, w))
        .max()
        .unwrap_or(Match::Exact)
}

/// One recorded single-row answer: the query's index and its first row,
/// or the error it returned.
pub type RowAnswer = (usize, std::result::Result<Vec<Value>, String>);

/// Counts of checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error.
    pub errors: u64,
    /// Operations refused with BUSY.
    pub busy: u64,
    /// Answers that differ from the oracle's.
    pub wrong: u64,
    /// Answers with a float within tolerance but not bit-identical.
    pub inexact: u64,
}

impl Tally {
    /// Record one comparison.
    pub fn check(&mut self, m: Match) {
        match m {
            Match::Exact => {}
            Match::Close => self.inexact += 1,
            Match::Wrong => self.wrong += 1,
        }
    }

    /// Check single-row answers against the expected row of their query.
    pub fn check_rows(&mut self, answers: &[RowAnswer], want: &[Vec<Value>]) {
        for (i, got) in answers {
            self.attempted += 1;
            match got {
                Ok(row) => self.check(compare_rows(row, &want[*i])),
                Err(_) => self.errors += 1,
            }
        }
    }

    /// Operations that failed in any way.
    pub fn failed(&self) -> u64 {
        self.errors + self.busy + self.wrong
    }
}

/// Deliberately spoil an expected answer, so that a self-test can show
/// the oracle catching a wrong answer.
pub fn corrupt(v: &mut Value) {
    *v = match v {
        Value::Int(i) => Value::Int(*i + 1),
        Value::Float(f) => Value::Float(*f + 1.0),
        Value::Str(s) => Value::Str(format!("{s}!")),
        Value::Null => Value::Int(0),
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ints_exact_floats_within_tolerance() {
        assert_eq!(compare(&Value::Int(3), &Value::Int(3)), Match::Exact);
        assert_eq!(compare(&Value::Int(3), &Value::Int(4)), Match::Wrong);
        assert_eq!(compare(&Value::Int(3), &Value::Float(3.0)), Match::Wrong);
        let a = 126148.9;
        let b = 126148.899_999_999_9;
        assert_eq!(
            compare(&Value::Float(a), &Value::Float(b)),
            Match::Close,
            "a thread-count float-sum difference is close, not exact"
        );
        assert_eq!(
            compare(&Value::Float(a), &Value::Float(a + 1e-3)),
            Match::Wrong
        );
        assert_eq!(compare(&Value::Null, &Value::Null), Match::Exact);
    }

    #[test]
    fn corrupt_always_changes_the_answer() {
        for v in [
            Value::Int(1),
            Value::Float(2.5),
            Value::Str("x".into()),
            Value::Null,
        ] {
            let mut c = v.clone();
            corrupt(&mut c);
            assert_eq!(compare(&v, &c), Match::Wrong);
        }
    }
}
