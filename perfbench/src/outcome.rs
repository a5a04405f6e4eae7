//! What a run produced: the outcome digest, the simulated end-to-end
//! figures, the layer counters, and the correctness checks.
//!
//! Simulated figures (RTTs, goodput, completions) are a deterministic
//! function of the seed. Wall-clock figures never enter this module.

use sirpent::host::SirpentHost;
use sirpent::router::viper::{DropReason, ViperRouter};
use sirpent::router::ScriptedHost;
use sirpent::sim::Simulator;
use sirpent::telemetry::names;
use sirpent::telemetry::registry::Metric;
use sirpent::telemetry::{Histogram, Registry};
use sirpent::wire::vmtp::Kind as MsgKind;

use crate::stack::Stack;
use crate::stats::ratio;
use crate::workload::{Inputs, FORGED_PAYLOAD_MARK};

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// The program's layer counters after a run.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Events dispatched by the engine.
    pub events: u64,
    /// Σ router `forwarded`.
    pub forwarded: u64,
    /// Σ router drops by reason (dense index order).
    pub drops: [u64; DropReason::COUNT],
    /// Largest output-queue depth any router saw.
    pub queue_peak: u64,
    /// Σ backpressure messages sent.
    pub backpressure_sent: u64,
    /// Σ rate limits installed (per-router gauge at last change).
    pub limits_installed: u64,
    /// Σ token cache hits.
    pub token_hits: u64,
    /// Σ full decrypts (every cache miss decrypts).
    pub token_misses: u64,
    /// Σ packets held for blocking verification.
    pub token_blocked: u64,
    /// Σ token cache entries at the deadline.
    pub token_entries: u64,
    /// Σ transport messages delivered.
    pub delivered: u64,
    /// Σ selective retransmissions.
    pub retransmissions: u64,
    /// Σ acks sent.
    pub acks_sent: u64,
    /// Σ duplicates discarded.
    pub duplicates: u64,
}

/// Everything a run is judged by.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Digest over per-host completions and RTT samples, per-router
    /// forwarded and drop counters, and the event count.
    pub digest: u64,
    /// Legitimate transactions attempted.
    pub attempted: u64,
    /// … of which completed (response received) by the deadline.
    pub completed: u64,
    /// Every RTT sample, ns, ascending.
    pub rtt_ns: Vec<u64>,
    /// Simulated goodput, Mb/s: the sum over clients of each client's
    /// completed payload bits (request + response) over its own span
    /// from first send to last completion. Summing per-client rates
    /// keeps the figure from hinging on the single latest completion.
    pub goodput_mbps: f64,
    /// Layer counters.
    pub counters: Counters,
    /// The fleet-wide telemetry scrape, plus the directory's counters.
    pub registry: Registry,
    /// Correctness violations found (empty when correct).
    pub violations: Vec<String>,
}

/// The histogram published as `name` in a scrape, if any.
pub fn histogram<'a>(reg: &'a Registry, name: &str) -> Option<&'a Histogram> {
    match reg.get(name) {
        Some(Metric::Histogram(h)) => Some(h),
        _ => None,
    }
}

fn gauge(reg: &Registry, name: &str) -> i64 {
    match reg.get(name) {
        Some(Metric::Gauge(v)) => *v,
        _ => 0,
    }
}

/// Collect the outcome of `sim` (serial, or merged back from shards),
/// built as `stack` from `inputs`, and run the checks that need only
/// this one run.
pub fn collect(sim: &Simulator, stack: &Stack, inputs: &Inputs) -> Outcome {
    let mut d = Digest::default();
    let mut c = Counters {
        events: sim.events_dispatched(),
        ..Counters::default()
    };
    let mut violations = Vec::new();
    d.add(c.events);

    let (mut rtt_ns, mut completed, mut goodput_mbps) = (Vec::new(), 0u64, 0.0);
    let mut done_txns = Vec::new();
    let mut forged_in_inbox = 0u64;
    let mut backpressure_at_hosts = 0u64;
    for (i, &id) in stack.hosts.iter().enumerate() {
        let h = sim.node::<SirpentHost>(id);
        d.add(h.inbox.len() as u64);
        done_txns.clear();
        for m in &h.inbox {
            if m.kind == MsgKind::Response {
                done_txns.push((m.transaction, m.message.len()));
            }
            d.add(m.at.as_nanos());
            d.add(m.peer.0);
            d.add(m.transaction as u64);
            d.add(match m.kind {
                MsgKind::Request => 1,
                MsgKind::Response => 2,
                MsgKind::Ack => 3,
            });
            d.add(m.message.len() as u64);
            if m.message
                .windows(FORGED_PAYLOAD_MARK.len())
                .any(|w| w == FORGED_PAYLOAD_MARK)
            {
                forged_in_inbox += 1;
            }
        }
        d.add(h.rtt_samples.len() as u64);
        for (t, rtt) in &h.rtt_samples {
            d.add(t.as_nanos());
            d.add(rtt.as_nanos());
            rtt_ns.push(rtt.as_nanos());
        }
        // Transaction ids count up from 1 in send order.
        done_txns.sort_unstable();
        done_txns.dedup_by_key(|(t, _)| *t);
        let sends = &inputs.sends[i];
        let bits: usize = done_txns
            .iter()
            .filter_map(|&(t, resp)| {
                Some((sends.get((t as usize).checked_sub(1)?)?.bytes + resp) * 8)
            })
            .sum();
        let first_send = sends.first().map(|s| s.at_ns);
        let last_done = h.rtt_samples.iter().map(|(t, _)| t.as_nanos()).max();
        if let (Some(s), Some(e)) = (first_send, last_done) {
            goodput_mbps += ratio(bits as f64, (e - s) as f64) * 1e3;
        }
        completed += h.rtt_samples.len() as u64;
        backpressure_at_hosts += h.stats.backpressure_received;
        let t = &h.endpoint().stats;
        c.delivered += t.delivered;
        c.retransmissions += t.retransmissions;
        c.acks_sent += t.acks_sent;
        c.duplicates += t.duplicates;
    }
    for &id in &stack.routers {
        let r = sim.node::<ViperRouter>(id);
        let s = &r.stats;
        c.forwarded += s.forwarded;
        d.add(s.forwarded);
        d.add(s.local);
        for (why, n) in s.drops.iter() {
            c.drops[why.index()] += n;
            d.add(n);
        }
        c.queue_peak = c.queue_peak.max(s.max_queue as u64);
        c.backpressure_sent += s.backpressure_sent;
        c.limits_installed += s.limits_installed;
        c.token_hits += s.token_cache_hits;
        c.token_misses += s.token_decrypts;
        c.token_blocked += s.token_blocked;
        c.token_entries += r.token_cache().map_or(0, |tc| tc.len() as u64);
    }
    for &id in &stack.attackers {
        let a = sim.node::<ScriptedHost>(id);
        d.add(a.stats.forwarded);
        d.add(a.received.len() as u64);
    }
    rtt_ns.sort_unstable();

    let mut registry = sim
        .scrape_telemetry()
        .expect("node scrapes use distinct names");
    let mut dir = Registry::new();
    stack
        .directory
        .publish_telemetry(&mut dir)
        .expect("directory names are distinct");
    registry
        .absorb(dir)
        .expect("directory names do not clash with node names");

    // Conservation: every frame a host or attacker injected was, at the
    // deadline, delivered to a host or attacker, delivered locally at a
    // router, dropped by a router, or still in flight (queued).
    let frames = |chs: &[sirpent::sim::ChannelId]| -> u64 {
        chs.iter().map(|&ch| sim.channel_stats(ch).frames).sum()
    };
    let attacker_up: u64 = stack.uplinks[stack.hosts.len()..]
        .iter()
        .map(|&ch| sim.channel_stats(ch).frames)
        .sum();
    if registry.counter(names::HOST_INJECTED_TOTAL) != attacker_up {
        violations.push(format!(
            "registry host_injected_total {} != attacker uplink frames {attacker_up}",
            registry.counter(names::HOST_INJECTED_TOTAL)
        ));
    }
    let injected = frames(&stack.uplinks);
    let delivered = frames(&stack.downlinks) - backpressure_at_hosts;
    let local = registry.counter(names::ROUTER_LOCAL_DELIVERED_TOTAL);
    let dropped = registry.counter(names::ROUTER_DROPS_TOTAL);
    let in_flight = gauge(&registry, names::ROUTER_QUEUE_DEPTH).max(0) as u64;
    if injected != delivered + local + dropped + in_flight {
        violations.push(format!(
            "conservation: injected {injected} != delivered {delivered} + local {local} \
             + dropped {dropped} + in flight {in_flight}"
        ));
    }
    if forged_in_inbox > 0 {
        violations.push(format!(
            "{forged_in_inbox} forged payloads reached a host inbox"
        ));
    }

    Outcome {
        digest: d.value(),
        attempted: inputs.attempted(),
        completed,
        rtt_ns,
        goodput_mbps,
        counters: c,
        registry,
        violations,
    }
}
