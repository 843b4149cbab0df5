//! `perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1
//!               --data DIR [--csqd PATH] [--set key=value]...
//! perfbench prepare --workload W --data DIR [--set key=value]...
//! perfbench counters --seed N [--set key=value]...
//! perfbench setup --workload W [--set key=value]...
//! ```
//!
//! `run` prints a human-readable report and, as its last line, one JSON
//! object with every metric the run measured. `perfbench/run.py` builds
//! this program, passes the workload's parameters from
//! `perfbench/workloads.json`, and turns that line into the benchmark's
//! result. `prepare` writes the workload's snapshot, if it has one, in a
//! process of its own, so that generating it never shows in a run's
//! peak memory. `counters` prints the exact `cs_core` counter totals of the
//! `ctp_seq` probe pass; a traced `ctp_seq` run calls it in a second
//! process to prove the counters repeat. `setup` times the `ctp_*`
//! set-up in a fresh process, for the run's `setup_s`.

mod alloc;
mod check;
mod graphs;
mod inproc;
mod layers;
mod params;
mod queries;
mod serve;
mod trace;
mod util;

use params::Params;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{json_num, json_str, Report};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Everything a run is given.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub data: PathBuf,
    pub csqd: Option<PathBuf>,
    pub params: Params,
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let mode = args
        .first()
        .cloned()
        .ok_or("missing mode (prepare | run | counters | setup)")?;
    let mut ctx = Ctx {
        workload: "ctp_seq".to_string(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        data: PathBuf::from("."),
        csqd: None,
        params: Params::default(),
    };
    let mut i = 1;
    while i < args.len() {
        let value = args
            .get(i + 1)
            .ok_or(format!("{} expects a value", args[i]))?;
        let bad = |what: &str| format!("{} expects {what}, got {value:?}", args[i]);
        match args[i].as_str() {
            "--workload" => ctx.workload = value.clone(),
            "--seed" => ctx.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|_| bad("a number"))?,
            "--trace" => {
                ctx.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--data" => ctx.data = PathBuf::from(value),
            "--csqd" => ctx.csqd = Some(PathBuf::from(value)),
            "--set" => {
                let (k, v) = value.split_once('=').ok_or_else(|| bad("key=value"))?;
                ctx.params.0.insert(k.to_string(), v.to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Ok((mode, ctx))
}

fn print_result(ctx: &Ctx, rep: &Report, attempted: u64, failed: u64) {
    println!(
        "== {} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for m in &rep.metrics {
        println!("{:<34} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    for n in &rep.notes {
        println!("note: {n}");
    }
    for why in &rep.invalid {
        println!("INVALID: {why}");
    }
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rep.invalid.is_empty() && failed == 0,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, ctx) = match parse_args(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match mode.as_str() {
        "counters" | "setup" => {
            let line = if mode == "counters" {
                inproc::counters(&ctx)
            } else {
                inproc::setup_times(&ctx)
            };
            match line {
                Ok(line) => {
                    println!("{line}");
                    return ExitCode::SUCCESS;
                }
                Err(e) => Err(e),
            }
        }
        "prepare" | "run" if std::fs::create_dir_all(&ctx.data).is_err() => {
            Err(format!("cannot create {}", ctx.data.display()))
        }
        "prepare" => match ctx.workload.as_str() {
            "eql_yago" | "serve_mixed" => match graphs::yago_snapshot(&ctx.params, &ctx.data) {
                Ok(path) => {
                    println!("{}", path.display());
                    return ExitCode::SUCCESS;
                }
                Err(e) => Err(e.to_string()),
            },
            _ => return ExitCode::SUCCESS,
        },
        "run" => match ctx.workload.as_str() {
            "serve_mixed" => serve::run(&ctx),
            _ => inproc::run(&ctx),
        },
        other => Err(format!(
            "unknown mode {other:?} (prepare | run | counters | setup)"
        )),
    };
    match outcome {
        Ok((rep, attempted, failed)) => {
            print_result(&ctx, &rep, attempted, failed);
            if rep.invalid.is_empty() && failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
