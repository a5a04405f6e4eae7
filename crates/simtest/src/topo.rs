//! Parameterized large-topology generators for scale tests (ring, grid,
//! seeded random-regular) up to 10 000 nodes — the workloads behind the
//! sharded-engine digest invariants and BENCH-7.
//!
//! The [`spec`](crate::spec) module's scenario generator deliberately
//! caps rails at 12 nodes so chaos invariants stay tractable; scale
//! runs need orders of magnitude more. A [`TopoSpec`] describes a mesh
//! of source-routing [`Relay`](crate::relay::Relay)s with **zero RNG
//! draws anywhere**, so a run's digest depends only on the topology and
//! workload, not on shard count or thread count: the same spec produces
//! byte-identical digests serial, sharded 2/4/8 ways, on any number of
//! worker threads.
//!
//! Each injection is a frame whose route is fixed at build time by a
//! seed-free walk: from its source, a per-hop hash of `(node, marker,
//! hops left)` picks the next port for `ttl + 1` hops (see `route`).
//! The relay then forwards it along that route like any other source
//! route, and the node the walk ends at counts the delivery.

use sirpent_sim::{NodeId, SimTime, Simulator};

use crate::relay::{self, splitmix64, RunDigest};

/// Topology family of a [`TopoSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopoShape {
    /// A bidirectional cycle: degree 2 everywhere.
    Ring,
    /// A rectangular mesh with the given column count (the last row may
    /// be partial); degree ≤ 4.
    Grid {
        /// Columns per row.
        cols: usize,
    },
    /// Seeded random-regular graph built from `degree/2` distinct
    /// circulant offsets drawn from the spec seed; degree is even.
    Random {
        /// Even target degree (2..=8).
        degree: usize,
    },
}

impl TopoShape {
    /// Clamp the shape's parameter for a mesh of `nodes` (≥ 3) nodes.
    /// Idempotent; [`TopoSpec`] and [`crate::te::TeWorkload`] both
    /// normalize through here.
    pub fn normalize(&mut self, nodes: usize) {
        match self {
            TopoShape::Ring => {}
            TopoShape::Grid { cols } => {
                *cols = (*cols).clamp(2, nodes);
            }
            TopoShape::Random { degree } => {
                // Even, at least 2, and low enough that distinct
                // circulant offsets exist (and ports fit in u8).
                *degree = (*degree & !1).clamp(2, 8.min((nodes - 1) & !1));
            }
        }
    }

    /// Undirected adjacency lists for `nodes` nodes of this shape,
    /// deterministically derived from `seed`; a node's port number for a
    /// link is the link's index in its list (degree stays ≤ 8, so ports
    /// fit comfortably in `u8`).
    pub fn adjacency(self, nodes: usize, seed: u64) -> Vec<Vec<usize>> {
        let n = nodes;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let connect = |adj: &mut Vec<Vec<usize>>, a: usize, b: usize| {
            if a == b || adj[a].contains(&b) {
                return;
            }
            adj[a].push(b);
            adj[b].push(a);
        };
        match self {
            TopoShape::Ring => {
                for i in 0..n {
                    connect(&mut adj, i, (i + 1) % n);
                }
            }
            TopoShape::Grid { cols } => {
                for i in 0..n {
                    if (i + 1) % cols != 0 && i + 1 < n {
                        connect(&mut adj, i, i + 1);
                    }
                    if i + cols < n {
                        connect(&mut adj, i, i + cols);
                    }
                }
            }
            TopoShape::Random { degree } => {
                // `degree/2` distinct circulant offsets from the seed:
                // regular, connected for offset 1-free graphs often
                // enough, and fully reproducible. Collisions probe to
                // the next unused offset.
                let half = n / 2;
                let mut offsets: Vec<u64> = Vec::new();
                let mut j = 0u64;
                while offsets.len() < degree / 2 {
                    let mut off = 1 + splitmix64(seed ^ (0xC1AC ^ j)) % half.max(1) as u64;
                    while offsets.contains(&off) {
                        off = 1 + (off % half.max(1) as u64);
                    }
                    offsets.push(off);
                    j += 1;
                }
                for off in offsets {
                    for i in 0..n {
                        connect(&mut adj, i, (i + off as usize) % n);
                    }
                }
            }
        }
        adj
    }
}

/// A deterministic large-topology workload: shape + node count +
/// sources that each inject `ttl + 1`-hop source-routed frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoSpec {
    /// Master seed: derives offsets, send times, and markers.
    pub seed: u64,
    /// Topology family.
    pub shape: TopoShape,
    /// Node count (3..=10_000 after [`TopoSpec::normalize`]).
    pub nodes: usize,
    /// How many nodes act as frame sources.
    pub sources: usize,
    /// Frames injected per source.
    pub frames_per_source: usize,
    /// Hop budget per frame: its route has `ttl + 1` ports.
    pub ttl: u8,
    /// Frame payload length in bytes (pos + len + `ttl + 1` ports +
    /// 8-byte marker + pad, so at least `ttl + 11`).
    pub payload_len: usize,
    /// Propagation delay of every link, nanoseconds.
    pub prop_ns: u64,
    /// Data rate of every link, bits per second.
    pub rate_bps: u64,
    /// Injection window: all source sends land in `[1us, horizon/2]`,
    /// and runs execute until `horizon_ns`.
    pub horizon_ns: u64,
}

impl TopoSpec {
    /// Derive a modest test-sized spec from a seed (16..=96 nodes, all
    /// three shapes exercised). Larger runs build a spec by hand.
    pub fn from_seed(seed: u64) -> TopoSpec {
        let r = |salt: u64| splitmix64(seed ^ salt);
        let shape = match r(1) % 3 {
            0 => TopoShape::Ring,
            1 => TopoShape::Grid {
                cols: 3 + (r(2) % 6) as usize,
            },
            _ => TopoShape::Random {
                degree: 2 + 2 * (r(3) % 3) as usize,
            },
        };
        let mut spec = TopoSpec {
            seed,
            shape,
            nodes: 16 + (r(4) % 81) as usize,
            sources: 2 + (r(5) % 8) as usize,
            frames_per_source: 1 + (r(6) % 4) as usize,
            ttl: 4 + (r(7) % 13) as u8,
            payload_len: 16 + 8 * (r(8) % 24) as usize,
            prop_ns: 1_000 + 500 * (r(9) % 5),
            rate_bps: 10_000_000,
            horizon_ns: 400_000_000,
        };
        spec.normalize();
        spec
    }

    /// Clamp every field into its runnable range. Idempotent; the seed
    /// generator funnels through here.
    pub fn normalize(&mut self) {
        self.nodes = self.nodes.clamp(3, 10_000);
        self.shape.normalize(self.nodes);
        self.sources = self.sources.clamp(1, self.nodes);
        self.frames_per_source = self.frames_per_source.clamp(1, 64);
        self.ttl = self.ttl.clamp(1, 32);
        self.payload_len = self.payload_len.clamp(self.ttl as usize + 11, 1_500);
        self.prop_ns = self.prop_ns.clamp(500, 1_000_000);
        self.rate_bps = self.rate_bps.clamp(1_000_000, 10_000_000_000);
        self.horizon_ns = self.horizon_ns.clamp(1_000_000, 10_000_000_000);
    }

    /// The planned `(send time, source node, marker)` injections.
    pub fn injections(&self) -> Vec<(SimTime, usize, u64)> {
        let stride = (self.nodes / self.sources).max(1);
        let window = (self.horizon_ns / 2).max(1);
        let mut plan = Vec::with_capacity(self.sources * self.frames_per_source);
        for s in 0..self.sources {
            let node = (s * stride) % self.nodes;
            for f in 0..self.frames_per_source {
                let salt = ((s as u64) << 32) | f as u64;
                let at = 1_000 + splitmix64(self.seed ^ salt) % window;
                let marker = splitmix64(self.seed ^ salt ^ 0x00AD_BEEF);
                plan.push((SimTime(at), node, marker));
            }
        }
        plan
    }
}

/// Source route of one frame injected at `src`: `ttl + 1` out-ports,
/// where the port leaving node `n` with `t` hops left is a hash of
/// `(n, marker, t)` modulo `n`'s degree (every generated node has a
/// link).
fn route(adj: &[Vec<usize>], src: usize, marker: u64, ttl: u8) -> Vec<u8> {
    let mut ports = Vec::with_capacity(ttl as usize + 1);
    let mut node = src;
    for left in (0..=ttl).rev() {
        let nbrs = &adj[node];
        let h = splitmix64(marker ^ (node as u64).rotate_left(17) ^ (left as u64) << 56);
        let port = (h % nbrs.len() as u64) as usize;
        ports.push(port as u8);
        node = nbrs[port];
    }
    ports
}

/// Instantiate a spec: a relay mesh over the adjacency and one kick per
/// planned injection, each carrying its precomputed `route`.
pub fn build(spec: &TopoSpec) -> Simulator {
    let mut spec = spec.clone();
    spec.normalize();
    let adj = spec.shape.adjacency(spec.nodes, spec.seed);
    let (mut sim, _) = relay::mesh(
        &adj,
        spec.seed,
        spec.payload_len,
        spec.rate_bps,
        spec.prop_ns,
    );
    for (at, node, marker) in spec.injections() {
        let ports = route(&adj, node, marker, spec.ttl);
        relay::inject(&mut sim, NodeId(node), ports, marker, [at]);
    }
    sim
}

/// Build and run a spec on the serial engine.
pub fn execute(spec: &TopoSpec) -> RunDigest {
    let mut spec = spec.clone();
    spec.normalize();
    let sim = relay::run(build(&spec), SimTime(spec.horizon_ns), None);
    relay::digest(&sim, spec.nodes)
}

/// Build and run a spec on the sharded engine (`shards` spatial shards,
/// `threads` workers), merging back to serial before digesting.
pub fn execute_sharded(spec: &TopoSpec, shards: usize, threads: usize) -> RunDigest {
    let mut spec = spec.clone();
    spec.normalize();
    let split = Some((shards, threads));
    let sim = relay::run(build(&spec), SimTime(spec.horizon_ns), split);
    relay::digest(&sim, spec.nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relay::Relay;

    #[test]
    fn normalize_is_idempotent_for_64_seeds() {
        for seed in 0..64u64 {
            let spec = TopoSpec::from_seed(seed);
            let mut again = spec.clone();
            again.normalize();
            assert_eq!(spec, again, "normalize not idempotent for seed {seed}");
            assert!(spec.payload_len >= spec.ttl as usize + 11, "seed {seed}");
        }
    }

    #[test]
    fn routes_walk_the_adjacency_to_the_delivering_node_32_seeds() {
        for seed in 0..32u64 {
            let spec = TopoSpec::from_seed(seed);
            let adj = spec.shape.adjacency(spec.nodes, spec.seed);
            let mut want = vec![0u64; spec.nodes];
            for (_, src, marker) in spec.injections() {
                let ports = route(&adj, src, marker, spec.ttl);
                assert_eq!(ports.len(), spec.ttl as usize + 1, "seed {seed}");
                let mut node = src;
                for &p in &ports {
                    assert!((p as usize) < adj[node].len(), "seed {seed}: port");
                    node = adj[node][p as usize];
                }
                want[node] += 1;
            }
            let mut sim = build(&spec);
            sim.run_until(SimTime(spec.horizon_ns));
            let got: Vec<u64> = (0..spec.nodes)
                .map(|i| sim.node::<Relay>(NodeId(i)).delivered)
                .collect();
            assert_eq!(want, got, "seed {seed}: deliveries off the walk");
        }
    }

    #[test]
    fn shapes_build_valid_adjacency() {
        for (shape, n) in [
            (TopoShape::Ring, 10),
            (TopoShape::Grid { cols: 4 }, 11),
            (TopoShape::Random { degree: 4 }, 50),
        ] {
            let spec = TopoSpec {
                seed: 9,
                shape,
                nodes: n,
                sources: 2,
                frames_per_source: 1,
                ttl: 4,
                payload_len: 32,
                prop_ns: 2_000,
                rate_bps: 10_000_000,
                horizon_ns: 10_000_000,
            };
            let adj = spec.shape.adjacency(spec.nodes, spec.seed);
            assert_eq!(adj.len(), n);
            for (a, nbrs) in adj.iter().enumerate() {
                assert!(nbrs.len() <= 8, "degree fits ports");
                for &b in nbrs {
                    assert!(adj[b].contains(&a), "symmetric");
                    assert_ne!(a, b, "no self loops");
                }
            }
        }
    }

    #[test]
    fn grid_cap_at_ten_thousand_nodes_builds() {
        let mut spec = TopoSpec::from_seed(3);
        spec.nodes = 99_999; // clamps to 10_000
        spec.shape = TopoShape::Grid { cols: 100 };
        spec.normalize();
        assert_eq!(spec.nodes, 10_000);
        let adj = spec.shape.adjacency(spec.nodes, spec.seed);
        assert_eq!(adj.len(), 10_000);
    }

    #[test]
    fn run_twice_is_identical() {
        let spec = TopoSpec::from_seed(11);
        assert_eq!(execute(&spec), execute(&spec));
    }

    #[test]
    fn frames_actually_relay() {
        let spec = TopoSpec::from_seed(5);
        let report = execute(&spec);
        let delivered: u64 = report
            .digest
            .split_whitespace()
            .filter_map(|f| f.strip_prefix("del="))
            .map(|v| v.parse::<u64>().expect("del= count"))
            .sum();
        assert_eq!(delivered, (spec.sources * spec.frames_per_source) as u64);
    }
}
