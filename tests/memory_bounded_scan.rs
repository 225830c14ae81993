//! Raw-file scans hold a bounded, charged amount of the file: each worker
//! reads one morsel's byte range (or one phase-1 block) at a time into a
//! buffer whose growth past a small unmetered floor is charged to the
//! query's memory guard. A table larger than the query's budget (or the
//! engine's pool) therefore still loads, and a budget smaller than one
//! morsel is refused with a typed error instead of being ignored.

mod common;

use common::{test_dir, write_int_table};
use nodb::core::{Engine, EngineConfig, LoadingStrategy};
use nodb::types::DEFAULT_MORSEL_ROWS;
use nodb::Error;

const ROWS: usize = 200_000;
const SQL: &str = "select sum(a1), max(a3), count(*) from t";

fn engine(path: &std::path::Path, budget: impl FnOnce(&mut EngineConfig)) -> Engine {
    let mut cfg = EngineConfig::with_strategy(LoadingStrategy::ColumnLoads);
    cfg.threads = 2;
    budget(&mut cfg);
    let e = Engine::new(cfg);
    e.register_table("t", path).unwrap();
    e
}

#[test]
fn column_loads_answer_under_a_query_budget_below_the_file_size() {
    let dir = test_dir("memory_bounded_scan");
    let path = dir.join("t.csv");
    write_int_table(&path, ROWS, 4);
    let bytes = std::fs::read(&path).unwrap();
    let file_len = bytes.len();
    let want = engine(&path, |_| {}).sql(SQL).unwrap().rows;

    // An engine-wide pool of half the file answers too.
    let pooled = engine(&path, |c| c.engine_mem_bytes = Some(file_len / 2));
    assert_eq!(pooled.sql(SQL).unwrap().rows, want);

    // A query budget of half the file answers exactly what no budget does.
    let e = engine(&path, |c| c.query_mem_bytes = Some(file_len / 2));
    assert_eq!(e.sql(SQL).unwrap().rows, want);

    // The reservation peak is real and smaller than the file.
    let peak = e.counters().snapshot().mem_reserved_peak;
    assert!(
        peak > 0 && peak < file_len as u64,
        "peak {peak} of a {file_len}-byte file"
    );

    // A budget below one morsel's byte span cannot hold the scan's read
    // buffers.
    let morsel_span = bytes
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b == b'\n')
        .nth(DEFAULT_MORSEL_ROWS - 1)
        .map(|(i, _)| i + 1)
        .unwrap();
    let err = engine(&path, |c| c.query_mem_bytes = Some(morsel_span / 2))
        .sql(SQL)
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted(_)), "got {err:?}");
}
