//! Traffic-engineered heavy-traffic workload over a [`topo`](crate::topo)
//! mesh: the directory's weighted TE topology plans k constrained routes
//! per flow, clients pick among them weighted by advertised residual
//! capacity, and a source-routed flow simulation measures what actually
//! happened on the wires.
//!
//! The workload models a **flash crowd**: thousands of flows with
//! heavy-tailed sizes, all starting inside one short arrival window,
//! most aimed at a handful of hotspot destinations. Two configurations
//! of the same spec make the experiment:
//!
//! * **shortest-path-only** (`k = 1`, no spreading, no congestion
//!   avoidance) — every flow takes the one shortest route, so shortest
//!   path trees concentrate the crowd onto a few trunks;
//! * **TE** (`k > 1`, residual-weighted per-flow selection, detours
//!   around congested trunks) — the same offered load spreads across
//!   the alternates the constrained search returns.
//!
//! Planning is a pure function of `(spec, seed)`: flows are placed one
//! by one, and each placement feeds its offered load back into the
//! directory's TE topology (`add_load_milli` per hop), so later queries
//! see earlier placements — residual weights shrink and, past the
//! congestion threshold, detour insertion kicks in. The simulation then
//! executes the planned source routes on the real engine; per-channel
//! busy time gives ground-truth trunk utilization.
//!
//! The flows run on the shared source-routing [`Relay`], whose digests
//! are shard-invariant by content-hashed forward delays and commutative
//! per-node record folds. Packets of one flow are byte-identical, so
//! even a residual same-instant tie between them cannot surface.

use sirpent_directory::te::{LinkMetrics, TeQuery};
use sirpent_directory::{Directory, Peer, TeTopology};
use sirpent_sim::{ChannelId, NodeId, SimDuration, SimTime, Simulator};
use sirpent_transport::weighted_pick;

use crate::relay::{self, splitmix64, Relay, RunDigest};
use crate::scenario::fnv64;
use crate::topo::TopoShape;

/// One TE workload: a mesh, a flash crowd, and a routing policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TeWorkload {
    /// Master seed for topology, flow placement and timing.
    pub seed: u64,
    /// Mesh family (ring / grid / seeded random-regular).
    pub shape: TopoShape,
    /// Router count (every node is a router; flows terminate on them).
    pub nodes: usize,
    /// Concurrent flows launched inside the arrival window.
    pub flows: usize,
    /// Hotspot destination count; three of four flows aim at one.
    pub hotspots: usize,
    /// Routes requested per flow (`k = 1` ⇒ shortest-path-only).
    pub k: usize,
    /// Weighted per-flow selection among the k routes.
    pub spread: bool,
    /// Ask the directory for detours around congested trunks.
    pub avoid_congested: bool,
    /// Stretch bound passed to the constrained search (milli; 1500 =
    /// alternates may be at most 1.5× the shortest route's weight).
    pub max_stretch_milli: u32,
    /// Load (milli) above which a trunk counts as congested.
    pub congestion_threshold_milli: u32,
    /// Heavy-tail cap: a flow carries up to `2^(level+1) - 1` packets.
    pub max_pkt_level: u32,
    /// Bytes per packet (all frames equal-sized).
    pub payload_len: usize,
    /// Per-link propagation delay, nanoseconds.
    pub prop_ns: u64,
    /// Per-link rate, bits/second.
    pub rate_bps: u64,
    /// Flash-crowd arrival window, nanoseconds.
    pub window_ns: u64,
    /// Simulation horizon, nanoseconds.
    pub horizon_ns: u64,
}

impl TeWorkload {
    /// The heavy-traffic experiment configuration: a 10 000-node
    /// random-regular mesh, thousands of heavy-tailed flows flash-
    /// crowding six hotspots, TE routing on (`k = 3`, spreading,
    /// congestion avoidance).
    pub fn heavy(seed: u64) -> TeWorkload {
        TeWorkload {
            seed,
            shape: TopoShape::Random { degree: 4 },
            nodes: 10_000,
            flows: 2_048,
            hotspots: 6,
            k: 3,
            spread: true,
            avoid_congested: true,
            max_stretch_milli: 1_500,
            congestion_threshold_milli: 600,
            max_pkt_level: 6,
            payload_len: 64,
            prop_ns: 10_000,
            rate_bps: 10_000_000,
            window_ns: 50_000_000,
            horizon_ns: 250_000_000,
        }
    }

    /// A small configuration for tests and the determinism suite:
    /// same machinery, hundreds of nodes, sub-second runtime, dense
    /// enough that the crowd actually concentrates.
    pub fn small(seed: u64) -> TeWorkload {
        TeWorkload {
            nodes: 256,
            flows: 384,
            hotspots: 2,
            window_ns: 20_000_000,
            ..TeWorkload::heavy(seed)
        }
    }

    /// The shortest-path-only control: identical mesh and crowd, but
    /// `k = 1`, no spreading, no congestion avoidance.
    pub fn shortest_path_only(&self) -> TeWorkload {
        TeWorkload {
            k: 1,
            spread: false,
            avoid_congested: false,
            ..self.clone()
        }
    }

    /// Clamp every field into the supported envelope.
    pub fn normalize(&mut self) {
        self.nodes = self.nodes.clamp(8, 10_000);
        self.shape.normalize(self.nodes);
        self.flows = self.flows.clamp(1, 65_536);
        self.hotspots = self.hotspots.clamp(1, self.nodes / 2);
        self.k = self.k.clamp(1, 8);
        self.max_pkt_level = self.max_pkt_level.min(8);
        // Room for pos + len + 18 route ports + 8 marker bytes.
        self.payload_len = self.payload_len.clamp(40, 1_500);
        self.prop_ns = self.prop_ns.clamp(1, 1_000_000);
        self.rate_bps = self.rate_bps.clamp(1_000, 10_000_000_000);
        self.window_ns = self.window_ns.clamp(1_000_000, 10_000_000_000);
        self.horizon_ns = self.horizon_ns.max(self.window_ns.saturating_mul(2));
    }

    /// The undirected adjacency this workload runs over — the
    /// [`TopoShape::adjacency`] derivation (so a node's port for a link
    /// is the link's index in its list), **augmented with a ring**:
    /// seeded circulant offsets can share a factor with the node count
    /// and split the mesh into components, which end-to-end flows
    /// cannot tolerate. The extra `i — i+1` edges guarantee one
    /// component for every shape and seed; existing edges and ports are
    /// unchanged (ring ports append after the shape's own).
    pub fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = self.shape.adjacency(self.nodes, self.seed);
        let n = adj.len();
        for i in 0..n {
            let j = (i + 1) % n;
            if i == j || adj.get(i).map(|l| l.contains(&j)).unwrap_or(true) {
                continue;
            }
            if let Some(l) = adj.get_mut(i) {
                l.push(j);
            }
            if let Some(l) = adj.get_mut(j) {
                l.push(i);
            }
        }
        adj
    }
}

/// One planned flow: placement, size, timing, and the source route the
/// client selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPlan {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// First-packet send time, nanoseconds.
    pub start_ns: u64,
    /// Packet count (heavy-tailed).
    pub pkts: u32,
    /// Flow marker carried in every packet.
    pub marker: u64,
    /// Out-port at each hop, source to destination.
    pub ports: Vec<u8>,
    /// Hop count of the selected route.
    pub hops: usize,
    /// Hop count of the unconstrained shortest route (stretch base).
    pub sp_hops: usize,
}

/// A planned crowd: every flow's selected route plus the plan-phase
/// directory statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TePlan {
    /// Flows that got a route, in placement order.
    pub flows: Vec<FlowPlan>,
    /// Flows the constrained search found no feasible route for.
    pub unroutable: u64,
    /// Detour routes the directory inserted around congested trunks.
    pub detours: u64,
    /// Directory queries issued during planning.
    pub queries: u64,
    /// Topology epoch after all placements fed their load back.
    pub epoch: u64,
    /// Order-sensitive fold of every k-route set returned during
    /// planning: two runs agree on this iff the route sets were
    /// byte-identical.
    pub routes_digest: u64,
}

/// What one run measured: digest, delivery, utilization, latency.
#[derive(Debug, Clone, PartialEq)]
pub struct TeRunReport {
    /// Canonical run digest (shard-invariant).
    pub digest: String,
    /// Engine events dispatched.
    pub events: u64,
    /// Flows that ran.
    pub flows: usize,
    /// Flows dropped at plan time for want of a feasible route.
    pub unroutable: u64,
    /// Detour routes inserted during planning.
    pub detours: u64,
    /// Packets injected at sources.
    pub injected_pkts: u64,
    /// Packets delivered at their destination.
    pub delivered_pkts: u64,
    /// Flows with zero delivered packets.
    pub starved_flows: u64,
    /// Flows with some but not all packets delivered at the horizon.
    pub incomplete_flows: u64,
    /// Busiest directed link's busy time, milli-fraction of horizon.
    pub peak_util_milli: u64,
    /// Mean directed-link busy time, milli-fraction of horizon.
    pub mean_util_milli: u64,
    /// Median flow completion (last delivery − start), nanoseconds.
    pub p50_completion_ns: u64,
    /// 99th-percentile flow completion, nanoseconds.
    pub p99_completion_ns: u64,
    /// Worst route stretch over flows, milli (1000 = shortest).
    pub max_stretch_milli: u64,
    /// Mean route stretch over flows, milli.
    pub mean_stretch_milli: u64,
    /// Plan routes digest (see [`TePlan::routes_digest`]).
    pub routes_digest: u64,
}

/// Offered load of one flow as a milli-fraction of what a link can
/// carry inside the arrival window.
fn flow_load_milli(spec: &TeWorkload, pkts: u32) -> u32 {
    let bits = pkts as u128 * spec.payload_len as u128 * 8;
    let capacity = spec.rate_bps as u128 * spec.window_ns as u128 / 1_000_000_000;
    let milli = bits * 1_000 / capacity.max(1);
    milli.min(u32::MAX as u128) as u32
}

/// Plan the crowd: build the directory's TE view of the mesh, query k
/// constrained routes per flow, select one weighted by residual
/// capacity, and feed each placement's load back so later queries see
/// it. Pure in `spec` — same spec, same plan, every time.
pub fn plan(spec: &TeWorkload) -> TePlan {
    let mut spec = spec.clone();
    spec.normalize();
    let adj = spec.adjacency();

    let mut te = TeTopology::new();
    te.set_congestion_threshold(spec.congestion_threshold_milli);
    let metrics = LinkMetrics {
        bandwidth_bps: spec.rate_bps,
        prop_delay: SimDuration(spec.prop_ns),
        mtu: spec.payload_len.max(64),
        cost: 1,
        ..LinkMetrics::basic()
    };
    for (a, nbrs) in adj.iter().enumerate() {
        for (p, &b) in nbrs.iter().enumerate() {
            te.add_link(a as u32, p as u8, Peer::Router(b as u32), metrics);
        }
    }
    let mut dir = Directory::new().with_te(te);

    // Hotspot pool: distinct destinations, seed-derived. Each hotspot
    // has a *crowd origin* — the flash crowd's flows start clustered
    // around it, so their shortest paths share a corridor toward the
    // hotspot. That concentration is exactly what shortest-path-only
    // routing cannot escape and what spreading is for.
    let mut hotspots: Vec<(usize, usize)> = Vec::with_capacity(spec.hotspots);
    let mut probe = 0u64;
    while hotspots.len() < spec.hotspots {
        let h = (splitmix64(spec.seed ^ (0x4075_1907 + probe)) % spec.nodes as u64) as usize;
        if !hotspots.iter().any(|&(d, _)| d == h) {
            let origin =
                (splitmix64(spec.seed ^ 0xc10d_0000 ^ h as u64) % spec.nodes as u64) as usize;
            hotspots.push((h, origin));
        }
        probe += 1;
    }
    let cluster = (spec.nodes / 16).max(1) as u64;

    let q = TeQuery {
        k: spec.k,
        min_mtu: spec.payload_len,
        max_stretch_milli: if spec.k > 1 {
            spec.max_stretch_milli
        } else {
            0
        },
        avoid_congested: spec.avoid_congested,
        ..TeQuery::default()
    };
    let mut flows: Vec<FlowPlan> = Vec::with_capacity(spec.flows);
    let mut unroutable = 0u64;
    let mut routes_digest = 0xcbf2_9ce4_8422_2325u64;
    // Route ports must fit the frame header: pos + len + ports + marker.
    let max_route = spec.payload_len.saturating_sub(10).min(255);

    for f in 0..spec.flows as u64 {
        let r = splitmix64(spec.seed ^ 0x51f0_a11c ^ (f << 1));
        let sdraw = splitmix64(spec.seed ^ 0x0bad_5eed ^ (f << 1));
        // Three of four flows join the crowd on a hotspot, starting
        // near its crowd origin; the rest are uniform background.
        let (dst, mut src) = if r.is_multiple_of(4) {
            (
                (splitmix64(r) % spec.nodes as u64) as usize,
                (sdraw % spec.nodes as u64) as usize,
            )
        } else {
            let i = (r / 4 % spec.hotspots as u64) as usize;
            let (d, origin) = hotspots.get(i).copied().unwrap_or((0, 0));
            (d, (origin + (sdraw % cluster) as usize) % spec.nodes)
        };
        if src == dst {
            src = (src + 1) % spec.nodes;
        }
        let start_ns = 1_000 + splitmix64(spec.seed ^ 0x0f1a_5400 ^ f) % spec.window_ns;
        let tail = splitmix64(spec.seed ^ 0x7a11_0000 ^ f);
        let level = tail.trailing_zeros().min(spec.max_pkt_level);
        let span = 1u64 << level;
        let pkts = (span + splitmix64(tail) % span) as u32;
        let marker = splitmix64(spec.seed ^ 0x3a5c_ca3e ^ f);

        let routes = dir.te_query(src as u32, Peer::Router(dst as u32), &q);
        for route in &routes {
            let mut rec: Vec<u8> = Vec::with_capacity(route.hops.len() * 5 + 8);
            rec.extend_from_slice(&f.to_le_bytes());
            for &(router, port) in &route.hops {
                rec.extend_from_slice(&router.to_le_bytes());
                rec.push(port);
            }
            routes_digest = routes_digest.wrapping_mul(0x1_0000_01b3) ^ fnv64(&rec);
        }
        let usable: Vec<&sirpent_directory::te::TeRoute> = routes
            .iter()
            .filter(|r| !r.hops.is_empty() && r.hops.len() <= max_route)
            .collect();
        if usable.is_empty() {
            unroutable += 1;
            continue;
        }
        let choice = if spec.spread && usable.len() > 1 {
            let weights: Vec<u64> = usable.iter().map(|r| r.residual_bps).collect();
            weighted_pick(&weights, marker)
        } else {
            0
        };
        let Some(route) = usable.get(choice).copied() else {
            unroutable += 1;
            continue;
        };

        // Stretch base: the returned set is sorted by weight and the
        // search weight is load-blind (propagation + hop), so the first
        // route is the unconstrained shortest — no extra query needed.
        let sp_hops = routes
            .first()
            .map(|r| r.hops.len())
            .unwrap_or(route.hops.len());

        // Rate-control feedback: this placement's offered load lands on
        // every hop it crosses, so later queries route around it.
        let load = flow_load_milli(&spec, pkts);
        let hops: Vec<(u32, u8)> = route.hops.clone();
        for &(router, port) in &hops {
            dir.te_mut().add_load_milli(router, port, load);
        }

        flows.push(FlowPlan {
            src,
            dst,
            start_ns,
            pkts,
            marker,
            ports: hops.iter().map(|&(_, p)| p).collect(),
            hops: hops.len(),
            sp_hops: sp_hops.max(1),
        });
    }

    TePlan {
        flows,
        unroutable,
        detours: dir.te_detours,
        queries: dir.te_queries,
        epoch: dir.topology_epoch(),
        routes_digest,
    }
}

/// Instantiate a planned crowd: a relay mesh over the adjacency and one
/// kick per packet. Returns the simulator and every directed channel
/// for utilization accounting.
pub fn build(spec: &TeWorkload, plan: &TePlan) -> (Simulator, Vec<ChannelId>) {
    let mut spec = spec.clone();
    spec.normalize();
    let adj = spec.adjacency();
    let (mut sim, channels) = relay::mesh(
        &adj,
        spec.seed,
        spec.payload_len,
        spec.rate_bps,
        spec.prop_ns,
    );

    // Packet pacing: streams at a quarter of line rate, plus a small
    // content-hashed jitter so two flows never beat in lockstep.
    let pkt_ns = spec.payload_len as u64 * 8 * 1_000_000_000 / spec.rate_bps.max(1);
    let spacing = (pkt_ns * 4).max(1);
    for flow in plan.flows.iter().filter(|f| f.src < adj.len()) {
        let times = (0..flow.pkts as u64).map(|j| {
            let jitter = splitmix64(flow.marker ^ j) % (spacing / 2 + 1);
            SimTime(flow.start_ns + j * spacing + jitter)
        });
        relay::inject(
            &mut sim,
            NodeId(flow.src),
            flow.ports.clone(),
            flow.marker,
            times,
        );
    }
    (sim, channels)
}

/// Nearest-rank percentile of a sorted slice.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted.get(rank - 1).copied().unwrap_or(0)
}

/// Assemble the report from a finished simulator.
fn report(
    spec: &TeWorkload,
    plan: &TePlan,
    sim: &Simulator,
    channels: &[ChannelId],
) -> TeRunReport {
    let RunDigest { digest, events } = relay::digest(sim, spec.nodes);

    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut starved = 0u64;
    let mut incomplete = 0u64;
    let mut completions: Vec<u64> = Vec::with_capacity(plan.flows.len());
    let mut stretch_sum = 0u64;
    let mut stretch_max = 0u64;
    for flow in &plan.flows {
        injected += flow.pkts as u64;
        let got = sim
            .node::<Relay>(NodeId(flow.dst))
            .done
            .get(&flow.marker)
            .copied();
        match got {
            None => starved += 1,
            Some((count, last)) => {
                delivered += count as u64;
                if count < flow.pkts {
                    incomplete += 1;
                }
                completions.push(last.saturating_sub(flow.start_ns));
            }
        }
        let s = flow.hops as u64 * 1_000 / flow.sp_hops.max(1) as u64;
        stretch_sum += s;
        stretch_max = stretch_max.max(s);
    }
    completions.sort_unstable();

    let horizon = spec.horizon_ns.max(1);
    let mut peak = 0u64;
    let mut busy_sum = 0u128;
    for &ch in channels {
        let busy = sim.channel_stats(ch).busy.as_nanos();
        peak = peak.max(busy);
        busy_sum += busy as u128;
    }
    let mean_util = if channels.is_empty() {
        0
    } else {
        (busy_sum * 1_000 / horizon as u128 / channels.len() as u128) as u64
    };

    TeRunReport {
        digest,
        events,
        flows: plan.flows.len(),
        unroutable: plan.unroutable,
        detours: plan.detours,
        injected_pkts: injected,
        delivered_pkts: delivered,
        starved_flows: starved,
        incomplete_flows: incomplete,
        peak_util_milli: peak * 1_000 / horizon,
        mean_util_milli: mean_util,
        p50_completion_ns: percentile(&completions, 50),
        p99_completion_ns: percentile(&completions, 99),
        max_stretch_milli: stretch_max,
        mean_stretch_milli: if plan.flows.is_empty() {
            0
        } else {
            stretch_sum / plan.flows.len() as u64
        },
        routes_digest: plan.routes_digest,
    }
}

/// Run an already-planned crowd. `shards = 1` runs the serial engine;
/// more shards run the conservative time-window engine on `threads`
/// workers and merge back before digesting. Either way the digest is
/// identical — that invariance is what the determinism suite checks.
pub fn run(spec: &TeWorkload, plan: &TePlan, shards: usize, threads: usize) -> TeRunReport {
    let mut spec = spec.clone();
    spec.normalize();
    let (sim, channels) = build(&spec, plan);
    let split = (shards > 1).then_some((shards, threads));
    let sim = relay::run(sim, SimTime(spec.horizon_ns), split);
    report(&spec, plan, &sim, &channels)
}

/// Plan and run on the serial engine.
pub fn execute(spec: &TeWorkload) -> TeRunReport {
    let p = plan(spec);
    run(spec, &p, 1, 1)
}

/// Plan and run on the sharded engine.
pub fn execute_sharded(spec: &TeWorkload, shards: usize, threads: usize) -> TeRunReport {
    let p = plan(spec);
    run(spec, &p, shards, threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_and_feeds_load_back() {
        let spec = TeWorkload::small(11);
        let a = plan(&spec);
        let b = plan(&spec);
        assert_eq!(a, b, "planning is a pure function of the spec");
        assert!(!a.flows.is_empty());
        assert!(a.epoch > 0, "placements bumped the topology epoch");
        assert_eq!(a.queries, spec.flows as u64);
    }

    #[test]
    fn planned_routes_fit_frames_and_terminate() {
        let spec = TeWorkload::small(12);
        let p = plan(&spec);
        for f in &p.flows {
            assert!(!f.ports.is_empty());
            assert!(f.ports.len() + 10 <= spec.payload_len);
            assert_eq!(f.hops, f.ports.len());
            assert!(f.sp_hops >= 1);
        }
    }

    #[test]
    fn small_crowd_delivers_every_packet() {
        let spec = TeWorkload::small(13);
        let r = execute(&spec);
        assert_eq!(r.starved_flows, 0, "no starved flows");
        assert_eq!(r.incomplete_flows, 0, "no partial flows");
        assert_eq!(r.injected_pkts, r.delivered_pkts);
        assert!(r.peak_util_milli > 0, "some trunk carried traffic");
        assert!(r.max_stretch_milli >= 1_000);
    }

    #[test]
    fn sharded_digest_matches_serial() {
        let spec = TeWorkload::small(14);
        let p = plan(&spec);
        let serial = run(&spec, &p, 1, 1);
        for shards in [2usize, 4] {
            let sharded = run(&spec, &p, shards, 1);
            assert_eq!(
                serial.digest, sharded.digest,
                "digest differs at {shards} shards"
            );
            assert_eq!(serial.delivered_pkts, sharded.delivered_pkts);
        }
    }

    #[test]
    fn spreading_reduces_peak_trunk_load() {
        let spec = TeWorkload::small(15);
        let te = execute(&spec);
        let sp = execute(&spec.shortest_path_only());
        assert_eq!(te.injected_pkts, sp.injected_pkts, "same offered load");
        assert!(
            te.peak_util_milli < sp.peak_util_milli,
            "TE peak {} must beat shortest-path peak {}",
            te.peak_util_milli,
            sp.peak_util_milli
        );
        assert!(sp.max_stretch_milli == 1_000, "control never stretches");
        assert!(
            te.max_stretch_milli <= spec.max_stretch_milli as u64,
            "stretch bound respected"
        );
    }
}
