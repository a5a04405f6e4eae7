//! BENCH-7 — sharded-engine scaling: events/s on a 10 000-node
//! topology, serial vs 8 spatial shards on 1/2/4/8 worker threads.
//!
//! The workload is the RNG-free relay mesh from `sirpent_simtest::topo`
//! (seeded random-regular graph; source-routed frames on hash-walked
//! routes, forwarded by the shared `sirpent_simtest::relay::Relay`
//! through content-hashed delays), so every configuration must also
//! produce a byte-identical run digest — the bench doubles as a
//! correctness gate: a speedup obtained by reordering events would show
//! up as a digest mismatch, not a win.
//!
//! Run: `cargo run --release -p sirpent-bench --bin exp_scale_parallel`.
//! Writes `results/BENCH_7.json` (uploaded as a CI artifact by the
//! parallel-soak job). `--check` fails the process on any digest
//! mismatch, and additionally demands a minimum 8-thread speedup scaled
//! to the cores the host actually has (hardware-parallelism-aware so
//! laptop and CI runs gate meaningfully): >=8 cores → 3.0x, 4–7 → 1.5x,
//! 2–3 → 1.1x, 1 core → digest check only.

use std::time::Instant;

use serde::Serialize;
use sirpent::sim::{ShardedSimulator, SimTime};
use sirpent_bench::{write_json, Table};
use sirpent_simtest::relay::{self, RunDigest};
use sirpent_simtest::topo::{self, TopoShape, TopoSpec};

/// Shard count for every parallel configuration.
const SHARDS: usize = 8;
/// Worker-thread counts swept.
const THREADS: [usize; 4] = [1, 2, 4, 8];
/// Wall-clock runs per configuration; best run reported.
const TIMING_RUNS: usize = 3;

/// The benched topology: 10k nodes, enough traffic that the run is
/// dominated by event dispatch rather than setup.
fn bench_spec() -> TopoSpec {
    let mut spec = TopoSpec {
        seed: 0xB7,
        shape: TopoShape::Random { degree: 4 },
        nodes: 10_000,
        sources: 1_024,
        frames_per_source: 8,
        ttl: 24,
        payload_len: 64,
        prop_ns: 2_000,
        rate_bps: 1_000_000_000,
        horizon_ns: 20_000_000,
    };
    spec.normalize();
    spec
}

/// Required 8-thread speedup given the host's available parallelism.
fn required_speedup(cores: usize) -> Option<f64> {
    match cores {
        0 | 1 => None, // can't demand parallel speedup without cores
        2 | 3 => Some(1.1),
        4..=7 => Some(1.5),
        _ => Some(3.0),
    }
}

#[derive(Serialize)]
struct Config {
    label: String,
    shards: usize,
    threads: usize,
    wall_ns: u64,
    events: u64,
    events_per_sec: f64,
    speedup_vs_serial: f64,
    digest_matches_serial: bool,
}

#[derive(Serialize)]
struct Report {
    experiment: &'static str,
    nodes: usize,
    timing_runs: usize,
    host_cores: usize,
    serial_events_per_sec: f64,
    configs: Vec<Config>,
}

/// Best-of-N serial run; returns (wall_ns, report).
fn run_serial(spec: &TopoSpec) -> (u64, RunDigest) {
    let mut best: Option<(u64, RunDigest)> = None;
    for _ in 0..TIMING_RUNS {
        let mut sim = topo::build(spec);
        let t = Instant::now();
        sim.run_until(SimTime(spec.horizon_ns));
        let wall = t.elapsed().as_nanos() as u64;
        let report = relay::digest(&sim, spec.nodes);
        best = Some(match best {
            Some(b) if b.0 <= wall => b,
            _ => (wall, report),
        });
    }
    best.expect("TIMING_RUNS >= 1")
}

/// Best-of-N sharded run at a thread count; only the parallel phase is
/// timed (split and merge are one-time costs a long simulation
/// amortizes away; they are reported via the digest path regardless).
fn run_sharded(spec: &TopoSpec, threads: usize) -> (u64, RunDigest) {
    let mut best: Option<(u64, RunDigest)> = None;
    for _ in 0..TIMING_RUNS {
        let sim = topo::build(spec);
        let mut sharded = ShardedSimulator::split(sim, SHARDS);
        assert!(sharded.shards() > 1, "bench topology must actually shard");
        let t = Instant::now();
        sharded.run_until(SimTime(spec.horizon_ns), threads);
        let wall = t.elapsed().as_nanos() as u64;
        let report = relay::digest(&sharded.into_serial(), spec.nodes);
        best = Some(match best {
            Some(b) if b.0 <= wall => b,
            _ => (wall, report),
        });
    }
    best.expect("TIMING_RUNS >= 1")
}

fn main() {
    let check = std::env::args().any(|a| a == "--check");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let spec = bench_spec();

    let (serial_wall, serial_report) = run_serial(&spec);
    let serial_rate = serial_report.events as f64 / (serial_wall as f64 / 1e9);

    let mut t = Table::new(
        "BENCH-7: sharded-engine scaling, 10k-node random-regular mesh",
        &[
            "config", "events", "wall ms", "events/s", "speedup", "digest",
        ],
    );
    let fmt_row = |t: &mut Table, label: &str, wall: u64, events: u64, speedup: f64, ok: bool| {
        let wall_ms = format!("{:.2}", wall as f64 / 1e6);
        let rate = format!("{:.0}", events as f64 / (wall as f64 / 1e9));
        let sp = format!("{speedup:.2}x");
        let digest = if ok { "match" } else { "MISMATCH" };
        t.row(&[&label, &events, &wall_ms, &rate, &sp, &digest]);
    };
    fmt_row(
        &mut t,
        "serial",
        serial_wall,
        serial_report.events,
        1.0,
        true,
    );

    let mut configs = Vec::new();
    for &threads in &THREADS {
        let (wall, report) = run_sharded(&spec, threads);
        let rate = report.events as f64 / (wall as f64 / 1e9);
        let speedup = rate / serial_rate;
        let ok = report == serial_report;
        let label = format!("shards={SHARDS} threads={threads}");
        fmt_row(&mut t, &label, wall, report.events, speedup, ok);
        configs.push(Config {
            label,
            shards: SHARDS,
            threads,
            wall_ns: wall,
            events: report.events,
            events_per_sec: rate,
            speedup_vs_serial: speedup,
            digest_matches_serial: ok,
        });
    }
    t.print();
    println!("[host parallelism: {cores} core(s)]");

    let report = Report {
        experiment: "scale_parallel",
        nodes: spec.nodes,
        timing_runs: TIMING_RUNS,
        host_cores: cores,
        serial_events_per_sec: serial_rate,
        configs,
    };
    write_json("BENCH_7", &report);

    if check {
        let mut failed = false;
        for c in &report.configs {
            if !c.digest_matches_serial {
                eprintln!("FAIL: {} digest diverged from the serial run", c.label);
                failed = true;
            }
        }
        if let Some(floor) = required_speedup(cores) {
            let best_at_8 = report
                .configs
                .iter()
                .filter(|c| c.threads == 8)
                .map(|c| c.speedup_vs_serial)
                .fold(0.0f64, f64::max);
            if best_at_8 < floor {
                eprintln!(
                    "FAIL: 8-thread speedup {best_at_8:.2}x below the required \
                     {floor:.1}x (host has {cores} cores)"
                );
                failed = true;
            }
        } else {
            println!("[single-core host: speedup floor waived, digest gate only]");
        }
        if failed {
            std::process::exit(1);
        }
        println!("[scale parallel check passed]");
    }
}
