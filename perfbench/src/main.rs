//! The nodb benchmark: three seeded workloads from the paper, run against
//! the public `nodb` API, every answer checked against the Awk model.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `explore` — §4 exploration over a never-touched quoted CSV larger
//!   than the store budget (Figures 3–4): tokenizer and cold pipeline.
//! * `serve` — two analysts on the wire server over resident data: plan,
//!   warm kernels, group merge, framing.
//! * `join-append` — the §2.2 join while rows keep arriving in `s`: join
//!   build/probe, invalidation and reload.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` alternates
//! untraced and traced passes for twice as long, and prints the
//! per-layer metrics and the tracing overhead. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Spans of
//! a traced run are written to `.bench_out/`. `--scale smoke` shrinks
//! every input for the self-test; `--corrupt-oracle` spoils one expected
//! answer to show that the check can fail.

mod data;
mod explore;
mod join_append;
mod layers;
mod oracle;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use data::Scale;

/// Directory for span dumps, relative to the working directory.
pub const OUT_DIR: &str = ".bench_out";

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured loop.
    pub measure: Duration,
    pub trace: bool,
    pub scale: Scale,
    pub corrupt_oracle: bool,
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut corrupt_oracle = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale takes full or smoke, not {other}")),
                }
            }
            "--corrupt-oracle" => corrupt_oracle = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            measure: Duration::from_secs_f64(seconds),
            trace,
            scale,
            corrupt_oracle,
        },
    })
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    // `long`s of which `ru_maxrss` (kilobytes) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library expects on this platform; RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload explore|serve|join-append --seed N --seconds S \
                 --trace 0|1 [--scale full|smoke] [--corrupt-oracle]"
            );
            return ExitCode::from(2);
        }
    };
    let ctx = &args.ctx;
    let result = match args.workload.as_str() {
        "explore" => explore::run(ctx),
        "serve" => serve::run(ctx),
        "join-append" => join_append::run(ctx),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(out) => {
            report::print(&args.workload, ctx.trace, &out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
