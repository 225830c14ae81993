//! `join-append`: the paper's §2.2 join while data keeps arriving.
//!
//! Each round starts a fresh engine over two never-touched 1:1 tables `r`
//! and `s` and asks `count/sum` join queries with a varying payload
//! filter. Every few queries a batch of rows whose keys exist in `r` is
//! appended to `s`, so the answer changes and the next query must see the
//! new bytes: fingerprint invalidation, then a reload.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nodb::baselines::ScriptEngine;
use nodb::exec::{AggFunc, AggSpec};
use nodb::rawcsv::tokenizer::find_row_starts;
use nodb::rawcsv::{scan_file, CsvOptions, ScanSpec};
use nodb::{DataType, Engine, EngineConfig, Error, Result, Value, WorkCounters};

use crate::data::{self, Rng, JOIN_PAYLOADS};
use crate::layers::{self, timed_sql, LayerTrace};
use crate::oracle::{self, RowAnswer, Tally};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::{peak_rss_mb, Ctx};

const QUERIES_PER_APPEND: usize = 3;
const APPENDS_PER_ROUND: usize = 2;
const QUERIES_PER_ROUND: usize = QUERIES_PER_APPEND * (APPENDS_PER_ROUND + 1);
/// Set-ups timed before each round for `setup_s`. Spreading them over the
/// run keeps a sub-microsecond figure from following one moment's
/// machine state.
const SETUPS_PER_ROUND: usize = 20;

/// `count(*), sum(s.a3)` over `r ⋈ s` where `v1 < r.a2 < v2`.
struct Query {
    v1: i64,
    v2: i64,
    sql: String,
}

fn queries(seed: u64, rows: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0x10);
    (0..QUERIES_PER_ROUND)
        .map(|_| {
            let width = rows as i64 / 2;
            let v1 = rng.below((rows as i64 - width + 1) as u64) as i64 - 1;
            let v2 = v1 + width + 1;
            let sql = format!(
                "select count(*), sum(s.a3) from r join s on r.a1 = s.a1 where r.a2 > {v1} and r.a2 < {v2}"
            );
            Query { v1, v2, sql }
        })
        .collect()
}

/// Files of one seed.
struct Files {
    r: PathBuf,
    s: PathBuf,
    batches: Vec<PathBuf>,
    /// The `s` the engine reads: a copy of `s`, cut back to `s`'s length
    /// at the start of every round.
    work: PathBuf,
    cfg: EngineConfig,
}

/// A fresh engine with both tables registered: the workload's set-up.
fn open(cfg: &EngineConfig, r: &Path, s: &Path) -> Result<Engine> {
    let engine = Engine::new(cfg.clone());
    engine.register_table("r", r)?;
    engine.register_table("s", s)?;
    Ok(engine)
}

/// The cached inputs of this seed, generated when absent.
fn inputs(ctx: &Ctx) -> Result<PathBuf> {
    let rows = ctx.scale.join_rows();
    data::cached("join-append", ctx.scale, ctx.seed, |dir| {
        data::write_join_table(&dir.join("r.csv"), rows, ctx.seed)?;
        data::write_join_table(&dir.join("s.csv"), rows, ctx.seed ^ 0x5EED)?;
        for b in 1..=APPENDS_PER_ROUND {
            let seed = ctx.seed.wrapping_add(b as u64);
            let path = dir.join(format!("batch{b}.csv"));
            data::write_append_batch(&path, batch_rows(rows), rows, seed)?;
        }
        Ok(())
    })
}

/// Rows in each appended batch: 1% of `s`.
fn batch_rows(rows: usize) -> usize {
    (rows / 100).max(1)
}

fn config() -> EngineConfig {
    EngineConfig::default().with_threads(2)
}

/// Time [`SETUPS_PER_ROUND`] calls of [`open`] into `secs`. The config
/// is built beforehand: `EngineConfig::default()` asks the OS for the
/// CPU count, which costs far more than the engine itself.
fn time_setups(f: &Files, secs: &mut Vec<f64>) -> Result<()> {
    for _ in 0..SETUPS_PER_ROUND {
        let t = Instant::now();
        let engine = open(&f.cfg, &f.r, &f.work)?;
        secs.push(t.elapsed().as_secs_f64());
        drop(engine);
    }
    Ok(())
}

fn schema() -> Result<nodb::Schema> {
    oracle::schema(&[DataType::Int64; JOIN_PAYLOADS + 1])
}

#[derive(Default)]
struct Rounds {
    setup_s: Vec<f64>,
    first_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    /// Latencies of the queries after each round's first answer.
    later_ms: Vec<f64>,
    /// Queries per second of each round, appends excluded.
    round_qps: Vec<f64>,
    /// Query `k` of a round sees `k / QUERIES_PER_APPEND` appends.
    answers: Vec<RowAnswer>,
    mem_peak: u64,
    /// Peak RSS once the first untraced pass has finished, in MB.
    first_pass_rss_mb: Option<f64>,
}

impl Rounds {
    /// Median throughput of the rounds: a burst of load from outside
    /// the benchmark moves it less than a total over the run would.
    fn qps(&self) -> f64 {
        median(&self.round_qps).unwrap_or(0.0)
    }
}

/// One round on a fresh engine, with `s` back at its base content,
/// appended to `out`. Appends happen between queries and are not timed.
fn round(
    f: &Files,
    qs: &[Query],
    mut trace: Option<&mut LayerTrace>,
    out: &mut Rounds,
) -> Result<()> {
    // Truncating drops the previous round's appends without rewriting
    // the base bytes, which stay in the page cache.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&f.work)?
        .set_len(std::fs::metadata(&f.s)?.len())?;
    time_setups(f, &mut out.setup_s)?;
    let engine = open(&f.cfg, &f.r, &f.work)?;
    let mut busy_s = 0.0;
    for (k, q) in qs.iter().enumerate() {
        if k > 0 && k % QUERIES_PER_APPEND == 0 {
            data::append(&f.work, &f.batches[k / QUERIES_PER_APPEND - 1])?;
        }
        let (res, ms) = match trace.as_deref_mut() {
            Some(tr) => {
                let r = tr.sql(&engine, &q.sql);
                tr.sample_store(&engine, &["r", "s"]);
                r
            }
            None => timed_sql(&engine, &q.sql),
        };
        busy_s += ms / 1e3;
        if k == 0 {
            out.first_ms.push(ms);
        } else {
            out.later_ms.push(ms);
        }
        if k > 0 && k % QUERIES_PER_APPEND == 0 {
            out.refresh_ms.push(ms);
        }
        let row = res
            .map(|o| o.rows.into_iter().next().unwrap_or_default())
            .map_err(|e| e.to_string());
        out.answers.push((k, row));
    }
    out.round_qps.push(qs.len() as f64 / busy_s);
    out.mem_peak = out
        .mem_peak
        .max(engine.counters().snapshot().mem_reserved_peak);
    Ok(())
}

/// Whole rounds until `measure` has passed. When tracing, untraced and
/// traced rounds alternate for twice as long.
fn rounds(
    f: &Files,
    qs: &[Query],
    measure: Duration,
    mut trace: Option<&mut LayerTrace>,
) -> Result<(Rounds, Rounds)> {
    let (mut plain, mut traced) = (Rounds::default(), Rounds::default());
    let budget = if trace.is_some() {
        2 * measure
    } else {
        measure
    };
    let start = Instant::now();
    for i in 0.. {
        let done = !plain.answers.is_empty() && (trace.is_none() || !traced.answers.is_empty());
        if done && start.elapsed() >= budget {
            break;
        }
        match trace.as_deref_mut() {
            Some(tr) if i % 2 == 1 => round(f, qs, Some(tr), &mut traced)?,
            _ => {
                round(f, qs, None, &mut plain)?;
                plain.first_pass_rss_mb.get_or_insert_with(peak_rss_mb);
            }
        }
    }
    Ok((plain, traced))
}

/// Expected answers: `r`'s filter column by key, then every `s` part
/// (the base file and each batch) joined against it by the Awk model.
fn expected(f: &Files, qs: &[Query]) -> Result<Vec<Vec<Value>>> {
    let schema = schema()?;
    let csv = CsvOptions::default();
    let mut r_a2: HashMap<i64, i64> = HashMap::new();
    oracle::awk_rows(&f.r, &csv, &schema, &[0, 1], |row| {
        match (&row[0], &row[1]) {
            (Value::Int(k), Value::Int(v)) => {
                r_a2.insert(*k, *v);
                Ok(())
            }
            _ => Err(Error::parse("join oracle: non-integer cell in r")),
        }
    })?;
    let mut parts: Vec<Vec<(i64, i64)>> = Vec::new();
    for path in std::iter::once(&f.s).chain(&f.batches) {
        let mut part = Vec::new();
        oracle::awk_rows(path, &csv, &schema, &[0, 2], |row| {
            match (&row[0], &row[2]) {
                (Value::Int(k), Value::Int(v)) => {
                    part.push((*k, *v));
                    Ok(())
                }
                _ => Err(Error::parse("join oracle: non-integer cell in s")),
            }
        })?;
        parts.push(part);
    }
    Ok(qs
        .iter()
        .enumerate()
        .map(|(k, q)| {
            let (mut n, mut sum) = (0i64, 0i64);
            for part in &parts[..=k / QUERIES_PER_APPEND] {
                for (key, a3) in part {
                    if r_a2.get(key).is_some_and(|&a2| a2 > q.v1 && a2 < q.v2) {
                        n += 1;
                        sum += a3;
                    }
                }
            }
            let sum = if n == 0 { Value::Null } else { Value::Int(sum) };
            vec![Value::Int(n), sum]
        })
        .collect())
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let rows = ctx.scale.join_rows();
    let dir = inputs(ctx)?;
    let work_dir = Path::new(data::DATA_ROOT).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work_dir)?;
    let files = Files {
        r: dir.join("r.csv"),
        s: dir.join("s.csv"),
        batches: (1..=APPENDS_PER_ROUND)
            .map(|b| dir.join(format!("batch{b}.csv")))
            .collect(),
        work: work_dir.join("s.csv"),
        cfg: config(),
    };
    std::fs::copy(&files.s, &files.work)?;
    let result = measure(ctx, &files, rows);
    std::fs::remove_dir_all(&work_dir)?;
    result
}

fn measure(ctx: &Ctx, f: &Files, rows: usize) -> Result<Outcome> {
    let mut all_files = vec![f.r.clone(), f.s.clone(), f.work.clone()];
    all_files.extend(f.batches.iter().cloned());
    data::warm(&all_files)?;
    let file_bytes = std::fs::metadata(&f.r)?.len() + std::fs::metadata(&f.s)?.len();
    let qs = queries(ctx.seed, rows);

    let mut out = Outcome::default();
    let mut tr = ctx.trace.then(|| LayerTrace::new(Instant::now()));
    let (plain, traced) = rounds(f, &qs, ctx.measure, tr.as_mut())?;
    let plain_qps = plain.qps();
    let mut answers = plain.answers.clone();
    answers.extend(traced.answers.iter().cloned());
    if let Some(mut tr) = tr {
        out.set(
            "trace.overhead_frac",
            layers::overhead_frac(plain_qps, traced.qps()),
        );
        layer_calls(&mut tr, &mut out, f)?;
        tr.fill(&mut out, file_bytes);
        layers::set_mem_peak(&mut out, traced.mem_peak);
        let texts: Vec<String> = qs.iter().map(|q| q.sql.clone()).collect();
        out.set("sql.parse_us", layers::parse_us(&mut tr, &texts)?);
        std::fs::create_dir_all(crate::OUT_DIR)?;
        tr.tracer.write_jsonl(
            &Path::new(crate::OUT_DIR).join(format!("join-append-s{}.jsonl", ctx.seed)),
        )?;
    }

    let mut want = expected(f, &qs)?;
    if ctx.corrupt_oracle {
        oracle::corrupt(&mut want[0][0]);
    }
    let mut tally = Tally::default();
    tally.check_rows(&answers, &want);

    out.set("setup_s", median(&plain.setup_s).unwrap_or(0.0));
    out.set_with(
        "first_answer_ms",
        median(&plain.first_ms).unwrap_or(0.0),
        format!(
            "cold join, median of {} fresh engines",
            plain.first_ms.len()
        ),
    );
    out.set("queries_per_s", plain_qps);
    if let Some(lat) = Summary::of(&plain.later_ms) {
        out.set("query_p50_ms", lat.median);
        out.set_with("query_tail_ms", lat.tail_value(), lat.describe());
    }
    out.set_with(
        "peak_rss_mb",
        plain.first_pass_rss_mb.unwrap_or(0.0),
        "process peak after the first round".to_owned(),
    );
    if let Some(r) = Summary::of(&plain.refresh_ms) {
        out.lines.push(format!(
            "  {:<36} {:>14.4} ms        {}",
            "refresh_ms",
            r.median,
            r.describe()
        ));
    }
    out.lines.insert(
        0,
        format!(
            "join-append: r and s of {rows} rows each (1:1 on a1), {:.1} MB; {APPENDS_PER_ROUND} appends of {} rows per round of {QUERIES_PER_ROUND} queries; no store budget, threads 2, result cache off",
            file_bytes as f64 / 1e6,
            batch_rows(rows)
        ),
    );
    out.lines.insert(
        1,
        format!(
            "join-append: {} rounds; oracle checked {} answers",
            plain.first_ms.len(),
            tally.attempted
        ),
    );
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    out.correct = tally.failed() == 0;
    Ok(out)
}

/// Direct timed calls into `rawcsv` on `s`, and the Awk hash join.
fn layer_calls(tr: &mut LayerTrace, out: &mut Outcome, f: &Files) -> Result<()> {
    let schema = schema()?;
    let opts = CsvOptions {
        threads: 2,
        ..CsvOptions::default()
    };
    let counters = WorkCounters::new();
    let bytes = std::fs::read(&f.s)?;
    let mb = bytes.len() as f64 / 1e6;
    let s = tr.timed_reps("rawcsv.find_row_starts", 3, || {
        find_row_starts(&bytes, &opts, &counters)
    })?;
    drop(bytes);
    out.set("rawcsv.phase1_mb_s", mb / s);
    let spec = ScanSpec {
        schema: &schema,
        needed: vec![0, 2],
        pushdown: None,
    };
    let s = tr.timed_reps("rawcsv.scan_file", 3, || {
        scan_file(&f.s, &opts, &spec, None, &counters)
    })?;
    out.set("rawcsv.scan_mb_s", mb / s);
    let width = JOIN_PAYLOADS + 1;
    let aggs = [
        AggSpec::count_star(),
        AggSpec::on_col(AggFunc::Sum, width + 2),
    ];
    let s = tr.timed_reps("baselines.awk_query", 1, || {
        ScriptEngine::awk()
            .hash_join_aggregate(&f.r, &schema, 0, &f.s, &schema, 0, &aggs, &counters)
    })?;
    out.set("baselines.awk_query_ms", s * 1e3);
    Ok(())
}
