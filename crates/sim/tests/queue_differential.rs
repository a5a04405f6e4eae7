//! Heap-vs-calendar differential property suite (queue level) and the
//! sequence-allocation regression tests.
//!
//! The calendar queue replaces the reference `BinaryHeap` on the
//! engine's hot path; the only acceptable difference is speed. These
//! tests drive both implementations through adversarial random
//! schedules — same-tick bursts, far-future timers beyond the wheel
//! horizon, pushes landing at the instant just popped (how chaos
//! injects work) — and demand identical pop sequences. A second group
//! locks the `Scheduled` seq contract: the u64 sequence is allocated
//! strictly monotonically for the whole run, never rewound by chaos
//! purges or restarts, so same-instant tie-breaks stay deterministic.

use std::any::Any;

use sirpent_sim::queue::{CalendarQueue, EventQueue, HeapQueue, Keyed, SLOTS, SLOT_SHIFT};
use sirpent_sim::{
    ChaosAction, ChaosEvent, Context, Event, FaultSchedule, Node, QueueKind, SimTime, Simulator,
};

/// A queue item carrying its own key — what `Scheduled` looks like to
/// the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Item {
    time: u64,
    seq: u64,
}

impl Keyed for Item {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// Small deterministic xorshift64* generator — no external RNG in the
/// differential driver, so a failing seed is trivially replayable.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Where `differential_run` aims its pushes beyond the base mix.
#[derive(Clone, Copy)]
struct Shape {
    /// Items pushed into one bucket before the first op, so the first
    /// bucket the drain loads is this deep.
    prefill: u64,
    /// Percent of push clusters landing within one bucket width of the
    /// floor — the drain bucket, as the engine's decision timers and
    /// `TxDone`s do.
    near: u64,
    /// Percent of push clusters landing between the floor and the
    /// queued minimum: below the bucket `min_key` just loaded whenever
    /// that bucket lies ahead of the floor's.
    below_min: u64,
}

/// The base mix alone: in-window pushes spread over half the horizon.
const SPREAD: Shape = Shape {
    prefill: 0,
    near: 0,
    below_min: 0,
};

/// Drive both queues through an identical schedule derived from `seed`
/// and assert every pop matches. The schedule respects the engine's
/// caller contract (pushed keys are >= the last popped key) while
/// hitting the adversarial shapes:
///
/// * bursts of same-instant pushes (tie-break purely by seq),
/// * far-future times beyond the wheel horizon (overflow level),
/// * pushes at exactly the just-popped instant (chaos-style injection),
/// * drain-to-empty followed by re-push (wheel window jumps),
/// * with a non-[`SPREAD`] `shape`: a deep first bucket, pushes into the
///   bucket being drained, and pushes below the bucket `min_key` loaded.
fn differential_run(seed: u64, ops: usize, shape: Shape) {
    let mut rng = Rng(seed | 1);
    let mut heap: HeapQueue<Item> = HeapQueue::new();
    let mut wheel: CalendarQueue<Item> = CalendarQueue::new();
    let mut seq = 0u64;
    let mut floor = 0u64; // last popped time: pushes must not precede it
    let horizon = (SLOTS as u64) << SLOT_SHIFT;
    let width = 1u64 << SLOT_SHIFT;

    for _ in 0..shape.prefill {
        let item = Item {
            time: width + rng.below(width),
            seq,
        };
        seq += 1;
        heap.push(item.clone());
        wheel.push(item);
    }
    for _ in 0..ops {
        match rng.below(100) {
            // 55%: push a small cluster.
            0..=54 => {
                // Drawn only for a shaped run, so `SPREAD` keeps the
                // base mix's random stream.
                let aim = if shape.near + shape.below_min > 0 {
                    rng.below(100)
                } else {
                    100
                };
                let base = if aim < shape.near {
                    // the drain bucket's width
                    floor + rng.below(width)
                } else if aim < shape.near + shape.below_min {
                    // under the queued minimum
                    let min = heap.min_key().map_or(floor, |k| k.0);
                    floor + rng.below(min - floor + 1)
                } else {
                    match rng.below(10) {
                        // same instant as the floor (chaos-style)
                        0..=2 => floor,
                        // inside the wheel window
                        3..=7 => floor + rng.below(horizon / 2),
                        // far future: overflow level, sometimes several
                        // horizons out
                        _ => floor + horizon + rng.below(horizon * 3),
                    }
                };
                let burst = 1 + rng.below(4);
                for _ in 0..burst {
                    let item = Item { time: base, seq };
                    seq += 1;
                    heap.push(item.clone());
                    wheel.push(item);
                }
            }
            // 35%: pop once from both, compare.
            55..=89 => {
                let a = heap.pop();
                let b = wheel.pop();
                assert_eq!(a, b, "seed {seed}: pop diverged");
                if let Some(it) = a {
                    assert!(it.time >= floor, "seed {seed}: time went backwards");
                    floor = it.time;
                }
            }
            // 10%: drain a run (forces wheel window advances/jumps).
            _ => {
                let n = rng.below(16);
                for _ in 0..n {
                    let a = heap.pop();
                    let b = wheel.pop();
                    assert_eq!(a, b, "seed {seed}: drain diverged");
                    if let Some(it) = a {
                        floor = it.time;
                    }
                }
            }
        }
        assert_eq!(heap.len(), wheel.len(), "seed {seed}: length diverged");
        assert_eq!(heap.min_key(), wheel.min_key(), "seed {seed}: min diverged");
    }
    // Final full drain must agree to the last item.
    loop {
        let a = heap.pop();
        let b = wheel.pop();
        assert_eq!(a, b, "seed {seed}: final drain diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn random_schedules_identical_pop_order_32_seeds() {
    for seed in 0..32u64 {
        differential_run(seed, 4_000, SPREAD);
    }
}

/// The engine's push shape: a drain bucket of 600 items, then pops
/// alternating with pushes into the bucket being drained, so the
/// sorted drain bucket and the late pushes interleave.
#[test]
fn deep_drain_bucket_with_near_pushes_32_seeds() {
    let shape = Shape {
        prefill: 600,
        near: 80,
        below_min: 0,
    };
    for seed in 0..32u64 {
        differential_run(seed, 4_000, shape);
    }
}

/// Pushes between the floor and the minimum `min_key` just reported:
/// when the next occupied bucket lies ahead of the floor's, they land
/// in buckets earlier than the one the peek loaded.
#[test]
fn pushes_below_the_loaded_bucket_32_seeds() {
    let shape = Shape {
        prefill: 0,
        near: 20,
        below_min: 30,
    };
    for seed in 0..32u64 {
        differential_run(seed, 4_000, shape);
    }
}

// ---------------------------------------------------------------------
// Satellite: seq allocation across chaos purges/restarts.
// ---------------------------------------------------------------------

/// Records every timer it sees; key 99 fans out three more timers at
/// the probe instant — allocating fresh seqs *mid-run*, after chaos has
/// crashed and restarted another node.
#[derive(Default)]
struct TimerLog {
    seen: Vec<(SimTime, u64)>,
    fan_out_at: Option<SimTime>,
}

impl Node for TimerLog {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        if let Event::Timer { key } = ev {
            self.seen.push((ctx.now(), key));
            if key == 99 {
                if let Some(at) = self.fan_out_at {
                    for k in 10..13u64 {
                        ctx.schedule_at(at, k);
                    }
                }
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const PROBE: SimTime = SimTime(5_000_000);

/// One node's observed `(fire_time, timer_key)` log.
type TimerTrace = Vec<(SimTime, u64)>;

/// One run: node X holds three pre-scheduled timers at the probe
/// instant plus three scheduled mid-run (after a crash/restart cycle on
/// node Y); node Y holds timers scheduled before its crash.
fn chaos_restart_run(kind: QueueKind) -> (TimerTrace, TimerTrace) {
    let mut sim = Simulator::with_queue(7, kind);
    let x = sim.add_node(Box::<TimerLog>::default());
    let y = sim.add_node(Box::<TimerLog>::default());
    sim.node_mut::<TimerLog>(x).fan_out_at = Some(PROBE);

    // Scheduled in this order at build time: seqs are consecutive.
    sim.kick(PROBE, x, 1);
    sim.kick(PROBE, x, 2);
    sim.kick(PROBE, x, 3);
    // Y's timers are scheduled before its crash — the crash must lose
    // them (epoch filter), and must NOT disturb X's allocation.
    sim.kick(SimTime(1_500_000), y, 201);
    sim.kick(PROBE, y, 202);
    // X's fan-out trigger fires between Y's crash and restart.
    sim.kick(SimTime(2_500_000), x, 99);

    sim.install_schedule(
        FaultSchedule::new(vec![
            ChaosEvent {
                at: SimTime(2_000_000),
                action: ChaosAction::RouterCrash { node: y },
            },
            ChaosEvent {
                at: SimTime(3_000_000),
                action: ChaosAction::RouterRestart { node: y },
            },
        ])
        .expect("valid schedule"),
    );
    sim.run_until(SimTime(10_000_000));
    (
        sim.node::<TimerLog>(x).seen.clone(),
        sim.node::<TimerLog>(y).seen.clone(),
    )
}

/// Tie-break determinism across a chaos purge: all six of X's timers
/// collide at one instant; three were allocated at build time, three
/// mid-run after the crash/restart epoch bumps. If the engine ever
/// rewound or reused seqs after a purge, the mid-run timers could
/// alias build-time seqs and jump ahead of them (or be swallowed by
/// the epoch filter). The order must be exactly allocation order, on
/// both queue implementations, twice.
#[test]
fn seq_allocation_survives_chaos_restart() {
    for kind in [QueueKind::Heap, QueueKind::Calendar] {
        let (x1, y1) = chaos_restart_run(kind);
        let (x2, y2) = chaos_restart_run(kind);
        assert_eq!(x1, x2, "{kind:?}: run-twice divergence");
        assert_eq!(y1, y2, "{kind:?}: run-twice divergence");

        let expect: Vec<(SimTime, u64)> = std::iter::once((SimTime(2_500_000), 99))
            .chain([1, 2, 3, 10, 11, 12].into_iter().map(|k| (PROBE, k)))
            .collect();
        assert_eq!(x1, expect, "{kind:?}: tie-break order drifted");

        // Y saw only the timer that fired before its crash; everything
        // scheduled pre-crash for later instants was purged by the
        // epoch filter — not resurrected, not re-sequenced.
        assert_eq!(
            y1,
            vec![(SimTime(1_500_000), 201)],
            "{kind:?}: purge leaked"
        );
    }
}

/// Same-instant timers spread across the wheel's bucket geometry: keys
/// whose times straddle bucket boundaries at exact multiples of the
/// slot width must still tie-break by seq within a bucket and by time
/// across buckets.
#[test]
fn bucket_boundary_ties_match_heap() {
    let width = 1u64 << SLOT_SHIFT;
    let mut heap: HeapQueue<Item> = HeapQueue::new();
    let mut wheel: CalendarQueue<Item> = CalendarQueue::new();
    let mut seq = 0u64;
    for round in 0..3u64 {
        for t in [0, 1, width - 1, width, width + 1, 7 * width, 7 * width] {
            let item = Item {
                time: t + round, // round shifts keep some exact collisions
                seq,
            };
            seq += 1;
            heap.push(item.clone());
            wheel.push(item);
        }
    }
    while let Some(a) = heap.pop() {
        assert_eq!(Some(a), wheel.pop());
    }
    assert!(wheel.pop().is_none());
}
