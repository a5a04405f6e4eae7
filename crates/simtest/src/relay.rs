//! The one relay behind the scale meshes ([`topo`](crate::topo) and
//! [`te`](crate::te)): a source-routing node, the mesh wiring, the run
//! step and the canonical digest.
//!
//! A frame carries its whole route, as a Sirpent header does (PAPER §1):
//! `[pos | len | port₀ … port_{len−1} | marker (8 bytes LE) | pad]`. The
//! source sends on `port₀`; each transit node forwards on `ports[pos]`
//! and bumps `pos`; the node that receives a frame with `pos ≥ len` is
//! its destination. The pad is a deterministic function of the marker,
//! so corruption anywhere would show in the digest.
//!
//! Two devices keep a run's digest independent of shard and thread
//! count (DESIGN.md §11.6):
//! * every forward is re-scheduled through a content-hashed timer delay,
//!   so two frames virtually never transit the same node at the same
//!   nanosecond (the only place engine tie-break order could leak);
//! * per-node accumulators fold arrival records commutatively, so the
//!   residual tie order — if one ever occurs — still cannot show.

use std::any::Any;
use std::collections::BTreeMap;

use sirpent_sim::{
    ChannelId, Context, Event, Node, NodeId, ShardedSimulator, SimDuration, SimTime, Simulator,
};

use crate::scenario::fnv64;

/// Timer keys at or above this value address pending forwards; keys
/// below it index a source's planned packet shots.
const PENDING_BASE: u64 = 1 << 32;

/// SplitMix64 finalizer — seed-derived structure only, never run-time
/// randomness.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A source-routing relay: planned timer keys inject packets whose
/// header carries the full out-port list; transit nodes forward along
/// it after a content-hashed delay; the final node records delivery.
#[derive(Default)]
pub struct Relay {
    /// Frame payload length this node emits.
    payload_len: usize,
    /// Flows originating here: `(out-ports, marker)`.
    flows: Vec<(Vec<u8>, u64)>,
    /// Packet shots, indexed by kick key: local flow index.
    shots: Vec<u32>,
    /// Forwards awaiting their hashed delay: `(timer key, port, bytes)`.
    pending: Vec<(u64, u8, Vec<u8>)>,
    /// Next pending timer key (offset under [`PENDING_BASE`]).
    next_pending: u64,
    /// Frames transmitted (fresh + forwarded).
    pub tx: u64,
    /// Transmissions the engine refused (stays zero here).
    pub tx_fail: u64,
    /// Frames received (transit + final).
    pub rx: u64,
    /// Frames delivered here (route exhausted).
    pub delivered: u64,
    /// Commutative fold of per-arrival record hashes.
    pub acc: u64,
    /// Per-flow delivery: marker → (packets, last arrival ns).
    pub done: BTreeMap<u64, (u32, u64)>,
}

impl Relay {
    fn frame_bytes(&self, ports: &[u8], marker: u64) -> Vec<u8> {
        let len = ports.len().min(255);
        let mut v = Vec::with_capacity(self.payload_len);
        v.push(1); // pos: next port index after the source's own send
        v.push(len as u8);
        v.extend_from_slice(ports.get(..len).unwrap_or(ports));
        v.extend_from_slice(&marker.to_le_bytes());
        // Deterministic pad so corruption anywhere would show in `acc`.
        while v.len() < self.payload_len {
            let i = v.len();
            v.push((marker >> (8 * (i % 8))) as u8 ^ i as u8);
        }
        v
    }

    fn transmit(&mut self, ctx: &mut Context<'_>, port: u8, bytes: Vec<u8>) {
        match ctx.transmit(port, bytes) {
            Ok(_) => self.tx += 1,
            Err(_) => self.tx_fail += 1,
        }
    }
}

impl Node for Relay {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        match ev {
            Event::Timer { key } if key >= PENDING_BASE => {
                let Some(i) = self.pending.iter().position(|&(k, _, _)| k == key) else {
                    return;
                };
                let (_, port, bytes) = self.pending.remove(i);
                self.transmit(ctx, port, bytes);
            }
            Event::Timer { key } => {
                let Some(&flow) = self.shots.get(key as usize) else {
                    return;
                };
                let Some((ports, marker)) = self.flows.get(flow as usize).cloned() else {
                    return;
                };
                let Some(first) = ports.first().copied() else {
                    return;
                };
                let bytes = self.frame_bytes(&ports, marker);
                self.transmit(ctx, first, bytes);
            }
            Event::Frame(fe) => {
                let bytes = fe.frame.payload.to_vec();
                self.rx += 1;
                // Order-insensitive record fold: (arrival, port, bytes).
                let mut rec = Vec::with_capacity(bytes.len() + 9);
                rec.extend_from_slice(&ctx.now().as_nanos().to_le_bytes());
                rec.push(fe.port);
                rec.extend_from_slice(&bytes);
                self.acc = self.acc.wrapping_add(fnv64(&rec));

                let pos = bytes.first().copied().unwrap_or(0);
                let len = bytes.get(1).copied().unwrap_or(0);
                let marker_off = 2 + len as usize;
                let marker = bytes
                    .get(marker_off..marker_off + 8)
                    .and_then(|m| <[u8; 8]>::try_from(m).ok())
                    .map(u64::from_le_bytes);
                let Some(marker) = marker else {
                    return;
                };
                if pos >= len {
                    // Route exhausted: this is the destination.
                    self.delivered += 1;
                    let now = ctx.now().as_nanos();
                    self.done
                        .entry(marker)
                        .and_modify(|e| {
                            e.0 += 1;
                            e.1 = e.1.max(now);
                        })
                        .or_insert((1, now));
                    return;
                }
                let Some(port) = bytes.get(2 + pos as usize).copied() else {
                    return;
                };
                let mut fwd = bytes;
                if let Some(b) = fwd.get_mut(0) {
                    *b = pos + 1;
                }
                // Content-hashed sub-propagation delay: decorrelates
                // same-instant transits so engine tie-break order can
                // never surface in the digest (DESIGN.md §11).
                let me = ctx.me().0 as u64;
                let h = splitmix64(fnv64(&fwd) ^ me ^ ctx.now().as_nanos());
                let delay = 1 + h % 4_093;
                let key = PENDING_BASE + self.next_pending;
                self.next_pending += 1;
                self.pending.push((key, port, fwd));
                ctx.schedule_in(SimDuration(delay), key);
            }
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A relay mesh: one [`Relay`] per adjacency entry (node `i` is
/// `NodeId(i)`) and one full-duplex link per undirected edge, where a
/// node's port for a link is the link's index in its adjacency list.
/// Returns the simulator and every directed channel, for utilization
/// accounting.
pub fn mesh(
    adj: &[Vec<usize>],
    seed: u64,
    payload_len: usize,
    rate_bps: u64,
    prop_ns: u64,
) -> (Simulator, Vec<ChannelId>) {
    let mut sim = Simulator::new(seed);
    let ids: Vec<NodeId> = adj
        .iter()
        .map(|_| {
            sim.add_node(Box::new(Relay {
                payload_len,
                ..Relay::default()
            }))
        })
        .collect();
    let mut channels: Vec<ChannelId> = Vec::new();
    for (a, nbrs) in adj.iter().enumerate() {
        for (pa, &b) in nbrs.iter().enumerate() {
            if b < a {
                continue; // one p2p per undirected edge
            }
            let Some(pb) = adj.get(b).and_then(|l| l.iter().position(|&x| x == a)) else {
                continue;
            };
            let (Some(&na), Some(&nb)) = (ids.get(a), ids.get(b)) else {
                continue;
            };
            let (ab, ba) = sim.p2p(na, pa as u8, nb, pb as u8, rate_bps, SimDuration(prop_ns));
            channels.push(ab);
            channels.push(ba);
        }
    }
    (sim, channels)
}

/// Plan a flow on the relay at `node`: one packet carrying `ports` and
/// `marker` at each instant of `times`.
pub fn inject(
    sim: &mut Simulator,
    node: NodeId,
    ports: Vec<u8>,
    marker: u64,
    times: impl IntoIterator<Item = SimTime>,
) {
    let local = {
        let relay: &mut Relay = sim.node_mut(node);
        relay.flows.push((ports, marker));
        (relay.flows.len() - 1) as u32
    };
    for at in times {
        let key = {
            let relay: &mut Relay = sim.node_mut(node);
            relay.shots.push(local);
            (relay.shots.len() - 1) as u64
        };
        sim.kick(at, node, key);
    }
}

/// Run a mesh to `horizon`. `split = None` runs the serial engine;
/// `Some((shards, threads))` always goes through
/// [`ShardedSimulator::split`] — even at one shard — and merges back to
/// serial before returning.
pub fn run(sim: Simulator, horizon: SimTime, split: Option<(usize, usize)>) -> Simulator {
    match split {
        None => {
            let mut sim = sim;
            sim.run_until(horizon);
            sim
        }
        Some((shards, threads)) => {
            let mut sharded = ShardedSimulator::split(sim, shards);
            sharded.run_until(horizon, threads);
            sharded.into_serial()
        }
    }
}

/// What one mesh run produced: enough to compare runs for byte
/// equality and to rate engine throughput.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    /// Canonical per-node digest of the run (see [`digest`]).
    pub digest: String,
    /// Total events the engine dispatched.
    pub events: u64,
}

/// Canonical digest of a finished mesh run: engine event count plus
/// every node's counters, record fold, and per-flow delivery fold, one
/// line per node.
pub fn digest(sim: &Simulator, nodes: usize) -> RunDigest {
    let mut out = String::with_capacity(nodes * 56 + 32);
    out.push_str("relay-digest v1\n");
    out.push_str(&format!("events={}\n", sim.events_dispatched()));
    for i in 0..nodes {
        let n: &Relay = sim.node(NodeId(i));
        // BTreeMap iteration order is deterministic, so a sequential
        // fold of the delivery map is stable across shard counts.
        let mut dacc = 0xcbf2_9ce4_8422_2325u64;
        for (&marker, &(count, last)) in &n.done {
            let mut rec = Vec::with_capacity(20);
            rec.extend_from_slice(&marker.to_le_bytes());
            rec.extend_from_slice(&count.to_le_bytes());
            rec.extend_from_slice(&last.to_le_bytes());
            dacc = dacc.wrapping_mul(0x1_0000_01b3) ^ fnv64(&rec);
        }
        out.push_str(&format!(
            "n{} tx={} txf={} rx={} del={} acc={:016x} dacc={:016x}\n",
            i, n.tx, n.tx_fail, n.rx, n.delivered, n.acc, dacc
        ));
    }
    RunDigest {
        digest: out,
        events: sim.events_dispatched(),
    }
}
