//! Real-stack VIPER-grid benchmark.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload <txn_grid|bulk_groups|forged_flood|txn_grid_sharded> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.py` builds this program and runs it with `--counters stdin`,
//! answering its requests for instruction and cycle counts (see
//! `counters`).
//!
//! Builds a 32×32 grid of token-checking cut-through VIPER routers with
//! one Sirpent host each (see `stack`), drives one workload through the
//! public API only, checks the outputs, and prints as its last line one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones (wall set-up time,
//! instructions of set-up and of the simulate phase and per packet hop,
//! peak RSS, and the simulated completion share, RTT median and tail,
//! and goodput); with `--trace 1`
//! they are the per-layer ledger. The line before it holds the details:
//! seed, every repetition's timings, the outcome digest, spans, and the
//! program's own telemetry scrape. Exits 1 when a check fails.
//!
//! `perfbench/README.md` explains each workload and the layer each
//! metric should move.

#![forbid(unsafe_code)]

mod bench;
mod counters;
mod json;
mod ledger;
mod micro;
mod outcome;
mod stack;
mod stats;
mod workload;

#[cfg(test)]
mod tests;

use std::process::ExitCode;

use bench::Config;
use counters::Parent;
use json::Obj;
use workload::Workload;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <txn_grid|bulk_groups|forged_flood|txn_grid_sharded> \
         --seed <n> --seconds <s> --trace <0|1> --counters stdin"
    );
    eprintln!("(perfbench/run.py supplies --counters stdin and answers it)");
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut counted) = (None, None, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--counters" => {
                if value != "stdin" {
                    return Err(bad());
                }
                counted = true;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !counted {
        return Err("--counters stdin is required".into());
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        side: 32,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    let r = bench::run(cfg, &mut Parent);
    println!("{}", r.detail);
    let mut metrics = Obj::new();
    for (name, value, unit) in &r.metrics {
        let mut m = Obj::new();
        m.num("value", *value);
        m.str("unit", unit);
        metrics.raw(name, &m.finish());
    }
    let mut out = Obj::new();
    out.raw("correct", if r.correct { "true" } else { "false" });
    out.uint("attempted", r.attempted);
    out.uint("failed", r.failed);
    out.raw("metrics", &metrics.finish());
    println!("{}", out.finish());
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
