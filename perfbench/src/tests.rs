//! End-to-end tests of the benchmark's own machinery on tiny grids.

use sirpent::router::viper::ViperRouter;

use crate::bench::{self, Config, Report};
use crate::counters::{parse, Counters, Sample};
use crate::ledger::SpanLog;
use crate::outcome::collect;
use crate::stack::build;
use crate::workload::{Inputs, Workload};

const SIDE: usize = 4;

/// Stand-in counters: every reading adds a fixed amount, so each
/// counted phase reads 1 000 instructions over 2 000 cycles.
struct Ticker(Sample);

impl Counters for Ticker {
    fn read(&mut self) -> Sample {
        self.0.instructions += 1_000;
        self.0.cycles += 2_000;
        self.0
    }
}

fn run(w: Workload, trace: bool) -> Report {
    let cfg = Config {
        workload: w,
        seed: 5,
        seconds: 0.0,
        trace,
        side: SIDE,
    };
    bench::run(cfg, &mut Ticker(Sample::default()))
}

fn metric(r: &Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|(n, ..)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

/// Metric names listed under `section` ("end_to_end" or "per_layer") in
/// the repository's BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let json = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("value") + 1..];
            s[..s.find('"').expect("value ends")].to_string()
        })
        .collect()
}

#[test]
fn timing_wrapper_is_transparent() {
    let inputs = Inputs::generate(Workload::ForgedFlood, SIDE, 9);
    let mut log = SpanLog::new();
    let mut plain = build(&inputs, false, &mut log);
    let mut timed = build(&inputs, true, &mut log);
    let deadline = sirpent::sim::SimTime(inputs.deadline_ns);
    plain.sim.run_until(deadline);
    timed.sim.run_until(deadline);
    // Downcasting through the wrapper still reaches the router.
    let r = timed.sim.node::<ViperRouter>(timed.routers[0]);
    assert!(r.stats.forwarded > 0);
    let a = collect(&plain.sim, &plain, &inputs);
    let b = collect(&timed.sim, &timed, &inputs);
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.counters.events, b.counters.events);
    assert_eq!(a.rtt_ns, b.rtt_ns);
    assert_eq!(a.registry.to_json(), b.registry.to_json());
    assert!(a.violations.is_empty(), "{:?}", a.violations);
}

#[test]
fn ledger_reconciles_with_traced_run() {
    for w in Workload::ALL {
        let r = run(w, true);
        assert!(r.correct, "{w:?}: {}", r.detail);
        let engine = metric(&r, "engine.self_s");
        let router = metric(&r, "router.busy_s");
        let host = metric(&r, "host.busy_s");
        assert!(engine >= 0.0, "{w:?}: engine self time {engine}");
        assert!(router > 0.0 && host > 0.0);
        if w != Workload::TxnGridSharded {
            // Serial: the three layers cover the traced run exactly, up
            // to the few microseconds of the enclosing span's own code.
            let run_s = metric(&r, "trace.run_s");
            let sum = engine + router + host;
            assert!(
                (sum - run_s).abs() < 1e-3,
                "{w:?}: {sum} vs traced run_s {run_s}"
            );
        }
    }
}

#[test]
fn every_workload_runs_clean_and_prints_the_listed_metrics() {
    let e2e = listed("end_to_end");
    let layers = listed("per_layer");
    assert!(e2e.iter().any(|n| n == "setup_s"));
    for w in Workload::ALL {
        let r = run(w, false);
        assert!(r.correct, "{w:?}: {}", r.detail);
        assert_eq!(r.failed, 0, "{w:?}");
        assert!(r.attempted > 0);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, e2e, "{w:?}: end-to-end metrics match BENCHMARK.json");
        for (name, v, _) in &r.metrics {
            assert!(v.is_finite() && *v > 0.0, "{w:?}: {name} = {v}");
        }
        let r = run(w, true);
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        assert_eq!(
            names, layers,
            "{w:?}: per-layer metrics match BENCHMARK.json"
        );
    }
}

#[test]
fn counted_phases_and_readings() {
    let r = run(Workload::TxnGrid, false);
    assert_eq!(metric(&r, "run_ginstr"), 1e-6);
    assert_eq!(metric(&r, "setup_ginstr"), 1e-6);
    let r = run(Workload::TxnGrid, true);
    assert_eq!(metric(&r, "cpu.run_ipc"), 0.5);
    assert_eq!(
        parse("12 34\n"),
        Some(Sample {
            instructions: 12,
            cycles: 34
        })
    );
    assert_eq!(parse("12\n"), None);
    assert_eq!(parse("12 34 56\n"), None);
    assert_eq!(parse("-1 2\n"), None);
}

#[test]
fn forged_flood_counts_forged_hops_and_keeps_inboxes_clean() {
    let r = run(Workload::ForgedFlood, true);
    assert!(r.correct, "{}", r.detail);
    assert!(
        metric(&r, "router.drops.TokenRejected") > 0.0,
        "escalation blocks forgeries"
    );
    assert!(
        metric(&r, "forged_hops") > 0.0,
        "the optimistic allowance lets some through"
    );
    assert!(metric(&r, "token.blocked") > 0.0);
}

#[test]
fn sharded_matches_itself_across_thread_counts() {
    // `run` fails the tier-2 check (1 thread vs 2) as a violation.
    let r = run(Workload::TxnGridSharded, false);
    assert!(r.correct, "{}", r.detail);
}

#[test]
fn sliced_simulation_matches_one_call() {
    use sirpent::sim::{ShardedSimulator, SimTime, Simulator};
    for w in [Workload::TxnGrid, Workload::TxnGridSharded] {
        let inputs = Inputs::generate(w, SIDE, 3);
        let mut log = SpanLog::new();
        let mut sliced = build(&inputs, false, &mut log);
        bench::simulate(&mut sliced, &inputs, 2, &mut log);
        let mut whole = build(&inputs, false, &mut log);
        let deadline = SimTime(inputs.deadline_ns);
        if inputs.params.shards > 1 {
            let sim = std::mem::replace(&mut whole.sim, Simulator::new(0));
            let mut sharded = ShardedSimulator::split(sim, inputs.params.shards);
            sharded.run_until(deadline, 2);
            whole.sim = sharded.into_serial();
        } else {
            whole.sim.run_until(deadline);
        }
        let a = collect(&sliced.sim, &sliced, &inputs);
        let b = collect(&whole.sim, &whole, &inputs);
        assert_eq!(a.digest, b.digest, "{w:?}");
        assert_eq!(a.registry.to_json(), b.registry.to_json(), "{w:?}");
    }
}
