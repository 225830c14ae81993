//! `serve`: two analysts on the wire server over resident data.
//!
//! An in-process `NodbServer` with two workers fronts one table that is
//! loaded during set-up and fits the store. Two `Client` connections run
//! a closed loop, each waiting for its reply before sending again, over
//! three operations:
//!
//! * `agg` — a filtered `count/sum/min/max/avg` with fresh literals, so
//!   the plan cache misses;
//! * `group` — `GROUP BY label` with a float `sum/avg`;
//! * `rows` — a prepared `EXECUTE` with `?` bounds returning about 4k
//!   rows over several `FETCH` pages.
//!
//! Raw-file tokenizing is bypassed after set-up; planning, warm kernels,
//! group merge and wire framing carry the time.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb::baselines::ScriptEngine;
use nodb::exec::{AggFunc, AggSpec};
use nodb::rawcsv::CsvOptions;
use nodb::types::profile::percentile_from_buckets;
use nodb::types::{CmpOp, ColPred, Conjunction};
use nodb::{
    latency_from_extras, Client, DataType, Engine, EngineConfig, Error, NodbServer,
    RemoteStatement, Result, ServerConfig, Value, WorkCounters,
};

use crate::data::{self, Rng};
use crate::layers::{self, LayerTrace};
use crate::oracle::{self, Match, Tally};
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Ctx};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Set-ups per run; the last one serves the loop.
const SETUP_REPS: usize = 5;
/// Traced wire operations replayed in process for the per-layer split.
const REPLAY_OPS: usize = 400;
/// Width of a `rows` id range.
const ROWS_WIDTH: i64 = 4000;
/// Operation order of a client; client `c` starts at position `c`. Half
/// the operations are `agg`, so the median falls inside one operation's
/// latencies rather than on the edge between two.
const PATTERN: [Op; 4] = [Op::Agg, Op::Rows, Op::Agg, Op::Group];

/// Loads every column: the first query on the never-touched file.
const WARM_SQL: &str = "select count(*), sum(a1), sum(a2), count(a3), count(a4) from t";
const GROUP_SQL: &str = "select a3, sum(a2), avg(a2), count(*) from t group by a3";
const ROWS_SQL: &str = "select a1, a2, a3, a4 from t where a1 >= ? and a1 < ?";

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Agg,
    Group,
    Rows,
}

impl Op {
    fn label(self) -> &'static str {
        match self {
            Op::Agg => "agg",
            Op::Group => "group",
            Op::Rows => "rows",
        }
    }
}

/// One completed operation.
struct Record {
    op: Op,
    /// Id range of `agg` and `rows`.
    lo: i64,
    hi: i64,
    ms: f64,
    /// Completion time, in seconds since its loop started.
    done_s: f64,
    answer: Result<Answer>,
}

/// A checked result: full rows, or for `rows` a count and an
/// order-independent digest (results of thousands of rows are not kept).
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Rows(Vec<Vec<Value>>),
    Digest(u64, u64),
}

impl Record {
    fn sql(&self) -> String {
        match self.op {
            Op::Agg => agg_sql(self.lo, self.hi),
            Op::Group => GROUP_SQL.to_owned(),
            Op::Rows => ROWS_SQL.replacen('?', &self.lo.to_string(), 1).replacen(
                '?',
                &self.hi.to_string(),
                1,
            ),
        }
    }
}

fn agg_sql(lo: i64, hi: i64) -> String {
    format!(
        "select count(*), sum(a2), min(a2), max(a2), avg(a2) from t where a1 >= {lo} and a1 < {hi}"
    )
}

/// FNV-1a over a canonical rendering of a row; floats are rounded to the
/// file's three decimals.
fn row_hash(row: &[Value]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for v in row {
        match v {
            Value::Null => eat(b"n|"),
            Value::Int(i) => eat(format!("i{i}|").as_bytes()),
            Value::Float(f) => eat(format!("f{}|", (f * 1000.0).round() as i64).as_bytes()),
            Value::Str(s) => eat(format!("s{s}|").as_bytes()),
        }
    }
    h
}

fn digest<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Answer {
    let (mut n, mut sum) = (0u64, 0u64);
    for r in rows {
        n += 1;
        sum = sum.wrapping_add(row_hash(r));
    }
    Answer::Digest(n, sum)
}

/// A running server with its connected clients.
struct Served {
    server: NodbServer,
    clients: Vec<(Client, RemoteStatement)>,
}

/// Engine, server, connections and the warm-up load; returns the set-up
/// seconds and the warm-up query's milliseconds and answer.
fn setup(path: &Path) -> Result<(Served, f64, f64, Vec<Vec<Value>>)> {
    let t = Instant::now();
    let engine = Arc::new(Engine::new(EngineConfig::default().with_threads(2)));
    engine.register_table("t", path)?;
    let server = NodbServer::bind(
        engine,
        "127.0.0.1:0",
        ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        },
    )?;
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        clients.push(Client::connect(server.local_addr())?);
    }
    let w = Instant::now();
    let (_, warm) = clients[0].query_all(WARM_SQL)?;
    let warm_ms = w.elapsed().as_secs_f64() * 1e3;
    let mut prepared = Vec::with_capacity(CLIENTS);
    for mut c in clients {
        let stmt = c.prepare(ROWS_SQL)?;
        prepared.push((c, stmt));
    }
    let served = Served {
        server,
        clients: prepared,
    };
    Ok((served, t.elapsed().as_secs_f64(), warm_ms, warm))
}

impl Served {
    fn shutdown(self) -> Result<()> {
        for (c, _) in self.clients {
            c.quit()?;
        }
        self.server.shutdown();
        Ok(())
    }
}

/// Where a traced operation records its client calls.
type OpSpan<'a> = Option<(&'a mut Tracer, usize, u64)>;

/// Run `f` as one client call, in a span under the operation when traced.
fn call<T>(span: &mut OpSpan<'_>, name: &str, f: impl FnOnce() -> Result<T>) -> Result<T> {
    match span {
        Some((t, parent, request)) => t.time(name, Some(*parent), *request, f).0,
        None => f(),
    }
}

/// Run one operation: open a cursor, then fetch every page.
fn one_op(
    client: &mut Client,
    stmt: RemoteStatement,
    op: Op,
    lo: i64,
    hi: i64,
    mut span: OpSpan<'_>,
) -> Result<Answer> {
    let mut cursor = match op {
        Op::Agg => call(&mut span, "server.query", || client.query(&agg_sql(lo, hi)))?,
        Op::Group => call(&mut span, "server.query", || client.query(GROUP_SQL))?,
        Op::Rows => call(&mut span, "server.execute", || {
            client.execute(stmt, &[Value::Int(lo), Value::Int(hi)])
        })?,
    };
    let mut rows = Vec::new();
    while let Some(page) = call(&mut span, "server.fetch", || client.fetch(&mut cursor))? {
        rows.extend(page.rows);
    }
    Ok(match op {
        Op::Rows => digest(&rows),
        _ => Answer::Rows(sorted(rows)),
    })
}

/// Rows in a canonical order (group output order is unspecified).
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by_key(|r| format!("{:?}", r.first()));
    rows
}

/// What one closed loop saw.
#[derive(Default)]
struct Loop {
    records: Vec<Record>,
    wall_s: f64,
    tracer: Option<Tracer>,
}

impl Loop {
    fn merge(&mut self, other: Loop) {
        self.records.extend(other.records);
        self.wall_s += other.wall_s;
        match (self.tracer.as_mut(), other.tracer) {
            (Some(mine), Some(t)) => mine.absorb(t),
            (None, t) => self.tracer = t,
            (Some(_), None) => {}
        }
    }
}

/// The id range of an `agg` or `rows` operation.
fn range(op: Op, rows: usize, rng: &mut Rng) -> (i64, i64) {
    let width = match op {
        Op::Agg => rows as i64 / 5,
        Op::Rows => ROWS_WIDTH.min(rows as i64),
        Op::Group => return (0, 0),
    };
    let lo = rng.below((rows as i64 - width + 1) as u64) as i64;
    (lo, lo + width)
}

/// Both clients in a closed loop until `measure` has passed.
fn closed_loop(
    served: &mut Served,
    seed: u64,
    rows: usize,
    measure: Duration,
    traced: bool,
) -> Loop {
    let origin = Instant::now();
    let deadline = origin + measure;
    let results: Vec<(Vec<Record>, Option<Tracer>)> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, (client, stmt))| {
                let stmt = *stmt;
                s.spawn(move || {
                    let mut rng = Rng::new(seed ^ (0x5E7 + c as u64));
                    let mut tracer = traced.then(|| Tracer::new(origin));
                    let mut records = Vec::new();
                    let mut i = c;
                    while Instant::now() < deadline {
                        let op = PATTERN[i % PATTERN.len()];
                        i += 1;
                        let (lo, hi) = range(op, rows, &mut rng);
                        let t = Instant::now();
                        let answer = match tracer.as_mut() {
                            Some(tr) => {
                                let request = ((c as u64) << 32) | i as u64;
                                let id = tr.open(&format!("bench.{}", op.label()), None, request);
                                let a =
                                    one_op(client, stmt, op, lo, hi, Some((&mut *tr, id, request)));
                                tr.close(id);
                                a
                            }
                            None => one_op(client, stmt, op, lo, hi, None),
                        };
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        records.push(Record {
                            op,
                            lo,
                            hi,
                            ms,
                            done_s: origin.elapsed().as_secs_f64(),
                            answer,
                        });
                    }
                    (records, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Loop {
        wall_s: origin.elapsed().as_secs_f64(),
        ..Loop::default()
    };
    for (records, tracer) in results {
        all.merge(Loop {
            records,
            wall_s: 0.0,
            tracer,
        });
    }
    all
}

/// The table as the Awk model parses it; strings are dictionary-coded
/// to keep a million rows small, NULL as `u32::MAX`.
struct Table {
    /// Row numbers in `id` order, for range lookups.
    by_id: Vec<usize>,
    id: Vec<i64>,
    score: Vec<f64>,
    label: Vec<u32>,
    note: Vec<u32>,
    dict: Vec<String>,
    /// The `group` answer, which does not depend on the operation.
    group: Answer,
}

const NULL_CODE: u32 = u32::MAX;

fn schema() -> Result<nodb::Schema> {
    oracle::schema(&[
        DataType::Int64,
        DataType::Float64,
        DataType::Str,
        DataType::Str,
    ])
}

impl Table {
    fn load(path: &Path) -> Result<Table> {
        let mut t = Table {
            by_id: Vec::new(),
            id: Vec::new(),
            score: Vec::new(),
            label: Vec::new(),
            note: Vec::new(),
            dict: Vec::new(),
            group: Answer::Rows(Vec::new()),
        };
        let mut codes: BTreeMap<String, u32> = BTreeMap::new();
        let mut code = |v: &Value, dict: &mut Vec<String>| match v {
            Value::Str(s) => *codes.entry(s.clone()).or_insert_with(|| {
                dict.push(s.clone());
                dict.len() as u32 - 1
            }),
            _ => NULL_CODE,
        };
        oracle::awk_rows(
            path,
            &CsvOptions::default(),
            &schema()?,
            &[0, 1, 2, 3],
            |row| {
                let (Value::Int(id), Value::Float(score)) = (&row[0], &row[1]) else {
                    return Err(Error::parse("serve oracle: bad id or score cell"));
                };
                t.id.push(*id);
                t.score.push(*score);
                t.label.push(code(&row[2], &mut t.dict));
                t.note.push(code(&row[3], &mut t.dict));
                Ok(())
            },
        )?;
        t.by_id = (0..t.id.len()).collect();
        t.by_id.sort_by_key(|&i| t.id[i]);
        t.group = t.group();
        Ok(t)
    }

    fn text(&self, c: u32) -> Value {
        match c {
            NULL_CODE => Value::Null,
            c => Value::Str(self.dict[c as usize].clone()),
        }
    }

    fn warm(&self) -> Answer {
        let n = self.id.len() as i64;
        let nonnull = |v: &[u32]| v.iter().filter(|&&c| c != NULL_CODE).count() as i64;
        Answer::Rows(vec![vec![
            Value::Int(n),
            Value::Int(self.id.iter().sum()),
            Value::Float(self.score.iter().sum()),
            Value::Int(nonnull(&self.label)),
            Value::Int(nonnull(&self.note)),
        ]])
    }

    fn in_range(&self, lo: i64, hi: i64) -> impl Iterator<Item = usize> + '_ {
        let from = self.by_id.partition_point(|&i| self.id[i] < lo);
        let to = self.by_id.partition_point(|&i| self.id[i] < hi);
        self.by_id[from..to.max(from)].iter().copied()
    }

    fn agg(&self, lo: i64, hi: i64) -> Answer {
        let (mut n, mut sum, mut min, mut max) = (0i64, 0.0, f64::INFINITY, f64::NEG_INFINITY);
        for i in self.in_range(lo, hi) {
            let s = self.score[i];
            n += 1;
            sum += s;
            min = min.min(s);
            max = max.max(s);
        }
        Answer::Rows(vec![match n {
            0 => vec![
                Value::Int(0),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ],
            _ => vec![
                Value::Int(n),
                Value::Float(sum),
                Value::Float(min),
                Value::Float(max),
                Value::Float(sum / n as f64),
            ],
        }])
    }

    fn group(&self) -> Answer {
        let mut acc: BTreeMap<u32, (f64, i64)> = BTreeMap::new();
        for (&l, &s) in self.label.iter().zip(&self.score) {
            let e = acc.entry(l).or_insert((0.0, 0));
            e.0 += s;
            e.1 += 1;
        }
        Answer::Rows(sorted(
            acc.into_iter()
                .map(|(l, (sum, n))| {
                    vec![
                        self.text(l),
                        Value::Float(sum),
                        Value::Float(sum / n as f64),
                        Value::Int(n),
                    ]
                })
                .collect(),
        ))
    }

    fn rows(&self, lo: i64, hi: i64) -> Answer {
        let rows: Vec<Vec<Value>> = self
            .in_range(lo, hi)
            .map(|i| {
                vec![
                    Value::Int(self.id[i]),
                    Value::Float(self.score[i]),
                    self.text(self.label[i]),
                    self.text(self.note[i]),
                ]
            })
            .collect();
        digest(&rows)
    }

    fn expected(&self, r: &Record) -> Answer {
        match r.op {
            Op::Agg => self.agg(r.lo, r.hi),
            Op::Group => self.group.clone(),
            Op::Rows => self.rows(r.lo, r.hi),
        }
    }
}

fn compare(got: &Answer, want: &Answer) -> Match {
    match (got, want) {
        (Answer::Rows(g), Answer::Rows(w)) if g.len() == w.len() => g
            .iter()
            .zip(w)
            .map(|(a, b)| oracle::compare_rows(a, b))
            .max()
            .unwrap_or(Match::Exact),
        (Answer::Digest(..), Answer::Digest(..)) if got == want => Match::Exact,
        _ => Match::Wrong,
    }
}

fn tally_one(tally: &mut Tally, got: &Result<Answer>, want: &Answer) {
    tally.attempted += 1;
    match got {
        Ok(a) => tally.check(compare(a, want)),
        Err(Error::Busy(_)) => tally.busy += 1,
        Err(_) => tally.errors += 1,
    }
}

/// Per-series histogram buckets gained between two STATS snapshots.
fn hist_delta(before: &[(String, u64)], after: &[(String, u64)]) -> BTreeMap<String, Vec<u64>> {
    let old: BTreeMap<String, Vec<u64>> = latency_from_extras(before)
        .into_iter()
        .map(|(s, b)| (s, b.to_vec()))
        .collect();
    latency_from_extras(after)
        .into_iter()
        .map(|(s, b)| {
            let prev = old.get(&s);
            let d = b
                .iter()
                .enumerate()
                .map(|(i, &v)| v.saturating_sub(prev.map_or(0, |p| p[i])))
                .collect();
            (s, d)
        })
        .collect()
}

/// Width of the windows `queries_per_s` takes its median over.
const QPS_WINDOW_S: f64 = 2.0;

/// Median throughput over whole [`QPS_WINDOW_S`] windows of one loop: a
/// burst of load from outside the benchmark moves it less than a total
/// over the run would.
fn window_qps(records: &[Record], wall_s: f64) -> f64 {
    let windows = (wall_s / QPS_WINDOW_S) as usize;
    if windows == 0 {
        return records.len() as f64 / wall_s;
    }
    let mut counts = vec![0usize; windows];
    for r in records {
        if let Some(c) = counts.get_mut((r.done_s / QPS_WINDOW_S) as usize) {
            *c += 1;
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / QPS_WINDOW_S).collect();
    median(&rates).unwrap_or(0.0)
}

fn op_p50(records: &[Record], op: Op) -> Option<Summary> {
    let ms: Vec<f64> = records
        .iter()
        .filter(|r| r.op == op)
        .map(|r| r.ms)
        .collect();
    Summary::of(&ms)
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let rows = ctx.scale.table_rows();
    let dir = data::cached("serve", ctx.scale, ctx.seed, |dir| {
        data::write_serve_table(&dir.join("t.csv"), rows, ctx.seed)
    })?;
    let path = dir.join("t.csv");
    let file_bytes = std::fs::metadata(&path)?.len();
    data::warm(std::slice::from_ref(&path))?;

    // The first set-up serves the loop; the others run after the peak
    // RSS reading, only to time set-up again.
    let (mut served, secs, ms, answer) = setup(&path)?;
    let (mut setup_s, mut first_ms, mut warm_answers) = (vec![secs], vec![ms], vec![answer]);

    let mut out = Outcome::default();
    let (before, extras_before) = served.clients[0].0.stats_full()?;
    let (mut plain, mut traced) = (Loop::default(), Loop::default());
    if ctx.trace {
        // Untraced and traced segments alternate, so that neither side
        // gains from running later in the process.
        for seg in 0..4u64 {
            let l = closed_loop(
                &mut served,
                ctx.seed ^ (seg << 20),
                rows,
                ctx.measure / 2,
                seg % 2 == 1,
            );
            if seg % 2 == 1 {
                traced.merge(l)
            } else {
                plain.merge(l)
            }
        }
    } else {
        plain = closed_loop(&mut served, ctx.seed, rows, ctx.measure, false);
    }
    let (after, extras_after) = served.clients[0].0.stats_full()?;
    let rss = peak_rss_mb();
    // Shut the server down before the slower in-process work below, which
    // would otherwise outlast its idle timeout on these connections.
    let engine = Arc::clone(served.server.engine());
    served.shutdown()?;
    let plain_qps = plain.records.len() as f64 / plain.wall_s;
    let mut replayed = Vec::new();
    let mut traced_records = Vec::new();
    if ctx.trace {
        out.set(
            "trace.overhead_frac",
            layers::overhead_frac(plain_qps, traced.records.len() as f64 / traced.wall_s),
        );
        let sample = &traced.records[..traced.records.len().min(REPLAY_OPS)];
        let mut tr = replay(&engine, sample, &mut replayed);
        tr.sample_store(&engine, &["t"]);
        tr.fill(&mut out, file_bytes);
        let work = after.since(&before);
        let (hits, misses) = (work.plan_cache_hits as f64, work.plan_cache_misses as f64);
        out.set_with(
            "core.plan_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "over the traced wire loop".to_owned(),
        );
        layers::set_mem_peak(&mut out, engine.counters().snapshot().mem_reserved_peak);
        let wire: Vec<f64> = sample.iter().map(|r| r.ms).collect();
        let local: Vec<f64> = replayed.iter().map(|(_, ms, _)| *ms).collect();
        out.set_with(
            "server.overhead_ms",
            median(&wire).unwrap_or(0.0) - median(&local).unwrap_or(0.0),
            format!(
                "wire median over {} ops minus in-process median",
                wire.len()
            ),
        );
        let hist = hist_delta(&extras_before, &extras_after);
        let p50 = |s: &str| {
            hist.get(s)
                .and_then(|b| percentile_from_buckets(b, 50.0))
                .unwrap_or(0) as f64
        };
        let count = |s: &str| hist.get(s).map_or(0, |b| b.iter().sum::<u64>()) as f64;
        out.set("server.query_p50_us", p50("query"));
        out.set("server.fetch_p50_us", p50("fetch"));
        out.set("server.queue_wait_p50_us", p50("queue_wait"));
        out.set(
            "server.fetches_per_query",
            count("fetch") / (count("query") + count("execute")).max(1.0),
        );
        out.set(
            "server.reactor_wakeups_per_request",
            work.reactor_wakeups as f64 / work.requests_served.max(1) as f64,
        );
        out.set("server.busy_rejections", work.busy_rejections as f64);
        let texts: Vec<String> = traced.records.iter().take(30).map(Record::sql).collect();
        out.set("sql.parse_us", layers::parse_us(&mut tr, &texts)?);
        if let Some(agg) = traced.records.iter().find(|r| r.op == Op::Agg) {
            out.set("baselines.awk_query_ms", awk_agg_ms(&mut tr, &path, agg)?);
        }
        if let Some(wire_spans) = traced.tracer {
            tr.tracer.absorb(wire_spans);
        }
        std::fs::create_dir_all(crate::OUT_DIR)?;
        tr.tracer
            .write_jsonl(&Path::new(crate::OUT_DIR).join(format!("serve-s{}.jsonl", ctx.seed)))?;
        traced_records = traced.records;
    }
    drop(engine);
    for _ in 1..SETUP_REPS {
        let (extra, secs, ms, answer) = setup(&path)?;
        extra.shutdown()?;
        setup_s.push(secs);
        first_ms.push(ms);
        warm_answers.push(answer);
    }

    let table = Table::load(&path)?;
    let mut tally = Tally::default();
    let mut warm_want = table.warm();
    if ctx.corrupt_oracle {
        if let Answer::Rows(r) = &mut warm_want {
            oracle::corrupt(&mut r[0][0]);
        }
    }
    for a in &warm_answers {
        tally_one(&mut tally, &Ok(Answer::Rows(a.clone())), &warm_want);
    }
    for r in plain.records.iter().chain(&traced_records) {
        tally_one(&mut tally, &r.answer, &table.expected(r));
    }
    for (i, _, got) in &replayed {
        tally_one(&mut tally, got, &table.expected(&traced_records[*i]));
    }

    out.set("setup_s", median(&setup_s).unwrap_or(0.0));
    out.set_with(
        "first_answer_ms",
        median(&first_ms).unwrap_or(0.0),
        format!("warm-up load over the wire, median of {SETUP_REPS} set-ups"),
    );
    out.set_with(
        "queries_per_s",
        window_qps(&plain.records, plain.wall_s),
        format!("median over {QPS_WINDOW_S} s windows"),
    );
    let all: Vec<f64> = plain.records.iter().map(|r| r.ms).collect();
    if let Some(lat) = Summary::of(&all) {
        out.set("query_p50_ms", lat.median);
        out.set_with("query_tail_ms", lat.tail_value(), lat.describe());
    }
    out.set("peak_rss_mb", rss);
    for op in [Op::Agg, Op::Group, Op::Rows] {
        if let Some(s) = op_p50(&plain.records, op) {
            out.lines.push(format!(
                "  {:<36} {:>14.4} ms        {}",
                format!("{}_p50_ms", op.label()),
                s.median,
                s.describe()
            ));
        }
    }
    out.lines.insert(
        0,
        format!(
            "serve: {rows} rows (id, float score, label, nullable note), {:.1} MB, resident, no store budget; \
             {CLIENTS} clients in a closed loop, {WORKERS} server workers, threads 2, result cache off",
            file_bytes as f64 / 1e6
        ),
    );
    out.lines.insert(
        1,
        format!(
            "serve: oracle checked {} operations ({} float answers within {:e} but not bit-identical)",
            tally.attempted,
            tally.inexact,
            oracle::FLOAT_REL_TOL
        ),
    );
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    out.correct = tally.failed() == 0;
    Ok(out)
}

/// An in-process replay of one wire operation: its index among the
/// traced records, milliseconds and answer.
type Replayed = (usize, f64, Result<Answer>);

/// Run the traced loop's operations again in process, through
/// `Engine::sql` on the same engine, with the same two-way concurrency.
fn replay(engine: &Engine, records: &[Record], out: &mut Vec<Replayed>) -> LayerTrace {
    let origin = Instant::now();
    let parts: Vec<(LayerTrace, Vec<Replayed>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut tr = LayerTrace::with_request_base(origin, (c as u64) << 40);
                    let mut got = Vec::new();
                    for (i, r) in records.iter().enumerate().skip(c).step_by(CLIENTS) {
                        let (res, ms) = tr.sql(engine, &r.sql());
                        let answer = res.map(|o| match r.op {
                            Op::Rows => digest(&o.rows),
                            _ => Answer::Rows(sorted(o.rows)),
                        });
                        got.push((i, ms, answer));
                    }
                    (tr, got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut all = LayerTrace::new(origin);
    for (tr, got) in parts {
        all.absorb(tr);
        out.extend(got);
    }
    all
}

/// Milliseconds of the Awk model answering one `agg` operation.
fn awk_agg_ms(tr: &mut LayerTrace, path: &Path, r: &Record) -> Result<f64> {
    let schema = schema()?;
    let filter = Conjunction::new(vec![
        ColPred::new(0, CmpOp::Ge, r.lo),
        ColPred::new(0, CmpOp::Lt, r.hi),
    ]);
    let aggs = [
        AggSpec::count_star(),
        AggSpec::on_col(AggFunc::Sum, 1),
        AggSpec::on_col(AggFunc::Min, 1),
        AggSpec::on_col(AggFunc::Max, 1),
        AggSpec::on_col(AggFunc::Avg, 1),
    ];
    let counters = WorkCounters::new();
    let s = tr.timed_reps("baselines.awk_query", 1, || {
        ScriptEngine::awk().aggregate_query(path, &schema, &aggs, &filter, &counters)
    })?;
    Ok(s * 1e3)
}
