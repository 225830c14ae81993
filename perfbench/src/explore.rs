//! `explore`: the paper's §4 data exploration (Figures 3–4), in process,
//! one user in a closed loop.
//!
//! Each sweep starts a fresh engine over the never-touched raw file and
//! asks Q2-style 10%-selective `sum/avg` range queries over attribute
//! pairs, moving from the last pair to the first and back, several
//! queries per pair. The twelve integer columns need about 96 MB but the
//! store gets 32 MiB, so moving between pairs evicts and reloads columns.
//! The first column is RFC-4180-quoted text with embedded commas, so
//! every row goes through quote-aware tokenizing.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nodb::baselines::ScriptEngine;
use nodb::exec::{AggFunc, AggSpec};
use nodb::rawcsv::tokenizer::find_row_starts;
use nodb::rawcsv::{scan_file, CsvOptions, ScanSpec};
use nodb::types::{CmpOp, ColPred, Conjunction};
use nodb::{DataType, Engine, EngineConfig, Error, Result, Value, WorkCounters};

use crate::data::{self, Rng};
use crate::layers::{self, timed_sql, LayerTrace};
use crate::oracle::{self, RowAnswer, Tally};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::{peak_rss_mb, Ctx};

const INT_COLS: usize = 12;
const QUERIES_PER_PAIR: usize = 3;
/// Pair visits of one sweep: last pair to first, then back.
const PAIR_ORDER: [usize; 11] = [5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5];
/// Store budget at full scale (1M rows); scaled with the row count.
const FULL_BUDGET: usize = 32 << 20;
/// Set-ups timed before each sweep for `setup_s`. Spreading them over the
/// run keeps a sub-microsecond figure from following one moment's
/// machine state.
const SETUPS_PER_SWEEP: usize = 20;

/// One exploration query: `sum(x), avg(y)` where `v1 < x < v2`.
struct Query {
    x: usize,
    y: usize,
    v1: i64,
    v2: i64,
    sql: String,
}

fn queries(seed: u64, rows: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed ^ 0xE0);
    let width = rows / 10;
    let mut out = Vec::new();
    for &p in &PAIR_ORDER {
        let (x, y) = (1 + 2 * p, 2 + 2 * p);
        for _ in 0..QUERIES_PER_PAIR {
            let v1 = rng.below((rows - width + 1) as u64) as i64 - 1;
            let v2 = v1 + width as i64 + 1;
            let sql = format!(
                "select sum(a{}), avg(a{}) from t where a{} > {v1} and a{} < {v2}",
                x + 1,
                y + 1,
                x + 1,
                x + 1
            );
            out.push(Query { x, y, v1, v2, sql });
        }
    }
    out
}

fn csv() -> CsvOptions {
    CsvOptions {
        quote: Some(b'"'),
        ..CsvOptions::default()
    }
}

/// The file's columns: quoted text, then the integers.
fn schema() -> Result<nodb::Schema> {
    let mut types = vec![DataType::Str];
    types.extend([DataType::Int64; INT_COLS]);
    oracle::schema(&types)
}

fn config(rows: usize) -> EngineConfig {
    let mut cfg = EngineConfig::default().with_threads(2);
    cfg.memory_budget = Some(FULL_BUDGET / 1_000_000 * rows);
    cfg.csv.quote = Some(b'"');
    cfg
}

/// What the measured loop saw.
#[derive(Default)]
struct Sweeps {
    setup_s: Vec<f64>,
    first_ms: Vec<f64>,
    /// Latencies of the queries after each sweep's first answer.
    later_ms: Vec<f64>,
    /// Queries per second of each sweep.
    sweep_qps: Vec<f64>,
    answers: Vec<RowAnswer>,
    mem_peak: u64,
    /// Peak RSS once the first untraced pass has finished, in MB.
    first_pass_rss_mb: Option<f64>,
}

impl Sweeps {
    /// Median throughput of the sweeps: a burst of load from outside
    /// the benchmark moves it less than a total over the run would.
    fn qps(&self) -> f64 {
        median(&self.sweep_qps).unwrap_or(0.0)
    }
}

/// A fresh engine with the table registered: the workload's set-up.
fn open(cfg: &EngineConfig, path: &Path) -> Result<Engine> {
    let engine = Engine::new(cfg.clone());
    engine.register_table("t", path)?;
    Ok(engine)
}

/// The cached input file of this seed, generated when absent.
fn input(ctx: &Ctx) -> Result<PathBuf> {
    let rows = ctx.scale.table_rows();
    let dir = data::cached("explore", ctx.scale, ctx.seed, |dir| {
        data::write_explore_table(&dir.join("t.csv"), rows, INT_COLS, ctx.seed)
    })?;
    Ok(dir.join("t.csv"))
}

/// Time [`SETUPS_PER_SWEEP`] calls of [`open`] into `secs`. The config
/// is built beforehand: `EngineConfig::default()` asks the OS for the CPU
/// count, which costs far more than the engine itself.
fn time_setups(cfg: &EngineConfig, path: &Path, secs: &mut Vec<f64>) -> Result<()> {
    for _ in 0..SETUPS_PER_SWEEP {
        let t = Instant::now();
        let engine = open(cfg, path)?;
        secs.push(t.elapsed().as_secs_f64());
        drop(engine);
    }
    Ok(())
}

/// One sweep on a fresh engine, appended to `s`.
fn sweep(
    cfg: &EngineConfig,
    path: &Path,
    qs: &[Query],
    mut trace: Option<&mut LayerTrace>,
    s: &mut Sweeps,
) -> Result<()> {
    time_setups(cfg, path, &mut s.setup_s)?;
    let engine = open(cfg, path)?;
    let sweep = Instant::now();
    for (i, q) in qs.iter().enumerate() {
        let (out, ms) = match trace.as_deref_mut() {
            Some(tr) => {
                let r = tr.sql(&engine, &q.sql);
                tr.sample_store(&engine, &["t"]);
                r
            }
            None => timed_sql(&engine, &q.sql),
        };
        if i == 0 {
            s.first_ms.push(ms);
        } else {
            s.later_ms.push(ms);
        }
        let row = out
            .map(|o| o.rows.into_iter().next().unwrap_or_default())
            .map_err(|e| e.to_string());
        s.answers.push((i, row));
    }
    s.sweep_qps
        .push(qs.len() as f64 / sweep.elapsed().as_secs_f64());
    s.mem_peak = s
        .mem_peak
        .max(engine.counters().snapshot().mem_reserved_peak);
    Ok(())
}

/// Whole sweeps until `ctx.measure` has passed. When tracing, untraced
/// and traced sweeps alternate for twice as long, so that neither side
/// gains from running later in the process.
fn sweeps(
    ctx: &Ctx,
    cfg: &EngineConfig,
    path: &Path,
    qs: &[Query],
    mut trace: Option<&mut LayerTrace>,
) -> Result<(Sweeps, Sweeps)> {
    let (mut plain, mut traced) = (Sweeps::default(), Sweeps::default());
    let budget = if trace.is_some() {
        2 * ctx.measure
    } else {
        ctx.measure
    };
    let start = Instant::now();
    for i in 0.. {
        let done = !plain.answers.is_empty() && (trace.is_none() || !traced.answers.is_empty());
        if done && start.elapsed() >= budget {
            break;
        }
        match trace.as_deref_mut() {
            Some(tr) if i % 2 == 1 => sweep(cfg, path, qs, Some(tr), &mut traced)?,
            _ => {
                sweep(cfg, path, qs, None, &mut plain)?;
                plain.first_pass_rss_mb.get_or_insert_with(peak_rss_mb);
            }
        }
    }
    Ok((plain, traced))
}

/// Expected answers, from one Awk pass over the file.
fn expected(path: &Path, qs: &[Query]) -> Result<Vec<Vec<Value>>> {
    let schema = schema()?;
    let needed: Vec<usize> = (1..=INT_COLS).collect();
    let mut acc = vec![(0i64, 0i64, 0i64); qs.len()];
    oracle::awk_rows(path, &csv(), &schema, &needed, |row| {
        for (q, a) in qs.iter().zip(acc.iter_mut()) {
            let (Value::Int(x), Value::Int(y)) = (&row[q.x], &row[q.y]) else {
                return Err(Error::parse("explore oracle: non-integer cell"));
            };
            if *x > q.v1 && *x < q.v2 {
                a.0 += 1;
                a.1 += x;
                a.2 += y;
            }
        }
        Ok(())
    })?;
    Ok(acc
        .into_iter()
        .map(|(n, sx, sy)| match n {
            0 => vec![Value::Null, Value::Null],
            _ => vec![Value::Int(sx), Value::Float(sy as f64 / n as f64)],
        })
        .collect())
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let rows = ctx.scale.table_rows();
    let path = input(ctx)?;
    let file_bytes = std::fs::metadata(&path)?.len();
    data::warm(std::slice::from_ref(&path))?;
    let qs = queries(ctx.seed, rows);

    let cfg = config(rows);

    let mut out = Outcome::default();
    let mut tr = ctx.trace.then(|| LayerTrace::new(Instant::now()));
    let (plain, traced) = sweeps(ctx, &cfg, &path, &qs, tr.as_mut())?;
    let mut answers = plain.answers.clone();
    answers.extend(traced.answers.iter().cloned());

    let mut want = expected(&path, &qs)?;
    if ctx.corrupt_oracle {
        oracle::corrupt(&mut want[0][0]);
    }
    let mut tally = Tally::default();
    tally.check_rows(&answers, &want);

    out.set("setup_s", median(&plain.setup_s).unwrap_or(0.0));
    out.set_with(
        "first_answer_ms",
        median(&plain.first_ms).unwrap_or(0.0),
        format!("median of {} fresh engines", plain.first_ms.len()),
    );
    out.set("queries_per_s", plain.qps());
    if let Some(lat) = Summary::of(&plain.later_ms) {
        out.set("query_p50_ms", lat.median);
        out.set_with("query_tail_ms", lat.tail_value(), lat.describe());
    }
    out.set_with(
        "peak_rss_mb",
        plain.first_pass_rss_mb.unwrap_or(0.0),
        "process peak after the first sweep".to_owned(),
    );

    if let Some(mut tr) = tr {
        out.set(
            "trace.overhead_frac",
            layers::overhead_frac(plain.qps(), traced.qps()),
        );
        layer_calls(&mut tr, &mut out, &path, &qs[0])?;
        tr.fill(&mut out, file_bytes);
        layers::set_mem_peak(&mut out, traced.mem_peak);
        let texts: Vec<String> = qs.iter().map(|q| q.sql.clone()).collect();
        out.set("sql.parse_us", layers::parse_us(&mut tr, &texts)?);
        std::fs::create_dir_all(crate::OUT_DIR)?;
        tr.tracer
            .write_jsonl(&Path::new(crate::OUT_DIR).join(format!("explore-s{}.jsonl", ctx.seed)))?;
        out.lines.push(format!(
            "explore traced: {} queries, {} sweeps",
            traced.answers.len(),
            traced.first_ms.len()
        ));
    }
    out.lines.push(format!(
        "explore: {} rows x {} int cols + 1 quoted text col, {:.1} MB file, store budget {:.1} MiB, threads 2, result cache off",
        rows,
        INT_COLS,
        file_bytes as f64 / 1e6,
        (FULL_BUDGET / 1_000_000 * rows) as f64 / (1 << 20) as f64
    ));
    out.lines.push(format!(
        "explore: {} sweeps of {} queries; oracle checked {} answers ({} float answers within {:e} but not bit-identical)",
        plain.first_ms.len(),
        qs.len(),
        tally.attempted,
        tally.inexact,
        oracle::FLOAT_REL_TOL
    ));
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    out.correct = tally.failed() == 0;
    Ok(out)
}

/// Direct timed calls into `rawcsv` and the Awk baseline on the
/// workload's file and first query.
fn layer_calls(tr: &mut LayerTrace, out: &mut Outcome, path: &Path, q: &Query) -> Result<()> {
    let schema = schema()?;
    let opts = CsvOptions {
        threads: 2,
        ..csv()
    };
    let counters = WorkCounters::new();
    let bytes = std::fs::read(path)?;
    let mb = bytes.len() as f64 / 1e6;
    let s = tr.timed_reps("rawcsv.find_row_starts", 3, || {
        find_row_starts(&bytes, &opts, &counters)
    })?;
    drop(bytes);
    out.set("rawcsv.phase1_mb_s", mb / s);
    let spec = ScanSpec {
        schema: &schema,
        needed: vec![q.x, q.y],
        pushdown: None,
    };
    let s = tr.timed_reps("rawcsv.scan_file", 3, || {
        scan_file(path, &opts, &spec, None, &counters)
    })?;
    out.set("rawcsv.scan_mb_s", mb / s);
    let awk = ScriptEngine {
        csv: csv(),
        ..ScriptEngine::awk()
    };
    let filter = Conjunction::new(vec![
        ColPred::new(q.x, CmpOp::Gt, q.v1),
        ColPred::new(q.x, CmpOp::Lt, q.v2),
    ]);
    let aggs = [
        AggSpec::on_col(AggFunc::Sum, q.x),
        AggSpec::on_col(AggFunc::Avg, q.y),
    ];
    let s = tr.timed_reps("baselines.awk_query", 1, || {
        awk.aggregate_query(path, &schema, &aggs, &filter, &counters)
    })?;
    out.set("baselines.awk_query_ms", s * 1e3);
    Ok(())
}
