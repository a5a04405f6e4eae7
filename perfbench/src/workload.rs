//! Workload definitions and seeded input generation.
//!
//! Everything the program is given — pair placement, send schedules,
//! message sizes, attacker placement and forged packets — is generated
//! here from the workload seed, before the program is built. The same
//! seed always yields the same inputs.
//!
//! All traffic is open-loop in simulated time: each client sends on its
//! own seeded schedule whatever the replies do.

use sirpent::router::LinkFrame;
use sirpent::wire::buf::PacketBuf;
use sirpent::wire::packet::PacketBuilder;
use sirpent::wire::token::SEALED_LEN;
use sirpent::wire::viper::{SegmentRepr, PORT_LOCAL};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64 B requests / 32 B auto-responses from every host, serial.
    TxnGrid,
    /// 16 KB VMTP groups on congestion-controlled routers, serial.
    BulkGroups,
    /// A lighter `TxnGrid` plus forged-token attackers, serial.
    ForgedFlood,
    /// `TxnGrid`'s exact inputs on a 2-shard simulator.
    TxnGridSharded,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::TxnGrid,
        Workload::BulkGroups,
        Workload::ForgedFlood,
        Workload::TxnGridSharded,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TxnGrid => "txn_grid",
            Workload::BulkGroups => "bulk_groups",
            Workload::ForgedFlood => "forged_flood",
            Workload::TxnGridSharded => "txn_grid_sharded",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Router port toward the grid neighbour above (y − 1).
pub const NORTH: u8 = 1;
/// Router port toward x + 1.
pub const EAST: u8 = 2;
/// Router port toward y + 1.
pub const SOUTH: u8 = 3;
/// Router port toward x − 1.
pub const WEST: u8 = 4;
/// Router port of the attached `SirpentHost`.
pub const HOST_PORT: u8 = 5;
/// Router port of an attacker, where one is attached.
pub const ATTACK_PORT: u8 = 6;

/// Leading bytes of every forged token. Eight bytes, so a sealed
/// (uniformly random) legitimate token matches with probability 2⁻⁶⁴;
/// the timing wrapper uses it to count forged hops from outside.
pub const FORGED_TAG: &[u8; 8] = b"FORGED!!";
/// Marker at the start of every forged payload; no `SirpentHost` inbox
/// may ever contain it.
pub const FORGED_PAYLOAD_MARK: &[u8] = b"FORGED-PAYLOAD";

/// Workload sizing. One value per workload; `side` scales the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Grid side: `side × side` routers, one host each.
    pub side: usize,
    /// Link rate, bits/s (every link).
    pub link_bps: u64,
    /// Link propagation delay, ns (every link).
    pub prop_ns: u64,
    /// Largest client–server Manhattan distance. Routes carry one
    /// 36-byte segment (32-byte token) per router, and a host packet
    /// must fit the 1500-byte VIPER transmission unit, so long routes
    /// are only usable with small messages.
    pub max_dist: usize,
    /// Pairs are drawn within aligned `block × block` tiles (`side`
    /// means anywhere); row-only blocks put bulk flows on shared trunks.
    pub block_w: usize,
    /// Tile height (1 = pairs share a grid row).
    pub block_h: usize,
    /// Requests each client sends.
    pub requests: usize,
    /// Mean gap between a client's sends, ns (uniform on ±50%).
    pub mean_gap_ns: u64,
    /// Mean request payload bytes; each request is drawn uniformly
    /// within ±25% of it.
    pub request_bytes: usize,
    /// Auto-response payload bytes.
    pub response_bytes: usize,
    /// Rate-based congestion control on every router.
    pub congestion: bool,
    /// Number of attackers (distinct routers).
    pub attackers: usize,
    /// Mean gap between one attacker's forged packets, ns.
    pub forged_gap_ns: u64,
    /// Largest attacker-to-target distance.
    pub forged_max_dist: usize,
    /// Shard count (1 = serial engine).
    pub shards: usize,
}

impl Params {
    /// The full-size parameters of `w` on a `side × side` grid.
    pub fn of(w: Workload, side: usize) -> Params {
        let txn = Params {
            side,
            link_bps: 1_000_000_000,
            prop_ns: 10_000,
            max_dist: 25,
            block_w: side,
            block_h: side,
            requests: 8,
            mean_gap_ns: 1_000_000,
            request_bytes: 64,
            response_bytes: 32,
            congestion: false,
            attackers: 0,
            forged_gap_ns: 0,
            forged_max_dist: 0,
            shards: 1,
        };
        match w {
            Workload::TxnGrid => txn,
            Workload::TxnGridSharded => Params { shards: 2, ..txn },
            Workload::BulkGroups => Params {
                max_dist: 8,
                block_w: 8,
                block_h: 1,
                requests: 5,
                mean_gap_ns: 60_000_000,
                request_bytes: 16 * 1024,
                congestion: true,
                ..txn
            },
            Workload::ForgedFlood => Params {
                requests: 8,
                mean_gap_ns: 2_000_000,
                attackers: (side * side / 32).max(1),
                forged_gap_ns: 8_000,
                forged_max_dist: 12,
                ..txn
            },
        }
    }

    /// Number of routers (and of hosts).
    pub fn nodes(&self) -> usize {
        self.side * self.side
    }

    /// Grid position of index `i`.
    pub fn xy(&self, i: usize) -> (usize, usize) {
        (i % self.side, i / self.side)
    }

    /// Manhattan distance between two grid indices.
    pub fn dist(&self, a: usize, b: usize) -> usize {
        let ((ax, ay), (bx, by)) = (self.xy(a), self.xy(b));
        ax.abs_diff(bx) + ay.abs_diff(by)
    }

    /// The neighbour of router `i` through `port`, if the grid has one.
    pub fn neighbour(&self, i: usize, port: u8) -> Option<usize> {
        let (x, y) = self.xy(i);
        let s = self.side;
        match port {
            NORTH if y > 0 => Some(i - s),
            SOUTH if y + 1 < s => Some(i + s),
            WEST if x > 0 => Some(i - 1),
            EAST if x + 1 < s => Some(i + 1),
            _ => None,
        }
    }

    /// Dimension-ordered (X then Y) path from router `a` to the host of
    /// router `b`: `(router index, output port)` per router, ending with
    /// `(b, HOST_PORT)`.
    pub fn xy_path(&self, a: usize, b: usize) -> Vec<(usize, u8)> {
        let (bx, by) = self.xy(b);
        let mut at = a;
        let mut path = Vec::new();
        loop {
            let (x, y) = self.xy(at);
            let port = if x < bx {
                EAST
            } else if x > bx {
                WEST
            } else if y < by {
                SOUTH
            } else if y > by {
                NORTH
            } else {
                path.push((at, HOST_PORT));
                return path;
            };
            path.push((at, port));
            at = self.neighbour(at, port).expect("path stays on the grid");
        }
    }
}

/// SplitMix64: a small, fast, statistically strong generator. The
/// benchmark owns its generator so inputs never depend on a dependency's
/// stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an input `stream` label, so each kind
    /// of input draws from its own sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD134_2543_DE82_EF95));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi]`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Send {
    /// Send time, ns.
    pub at_ns: u64,
    /// Payload bytes.
    pub bytes: usize,
}

/// One attacker: where it sits and the frames it injects.
#[derive(Debug, Clone)]
pub struct Attacker {
    /// Grid index of the router it is attached to (on [`ATTACK_PORT`]).
    pub router: usize,
    /// `(send time ns, point-to-point frame bytes)`, ascending.
    pub frames: Vec<(u64, Vec<u8>)>,
}

/// The generated inputs of one workload run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The seed they were generated from.
    pub seed: u64,
    /// Sizing.
    pub params: Params,
    /// Each host's partner (`None`: left unpaired, sends nothing).
    pub partner: Vec<Option<usize>>,
    /// Each host's requests, ascending in time.
    pub sends: Vec<Vec<Send>>,
    /// Attackers (forged_flood only).
    pub attackers: Vec<Attacker>,
    /// The last scheduled request, ns.
    pub last_send_ns: u64,
    /// Simulated deadline, ns: the last send plus a drain margin long
    /// enough for every transaction and retransmit timer to finish.
    pub deadline_ns: u64,
}

impl Inputs {
    /// Generate the inputs of `w` at grid side `side` from `seed`.
    pub fn generate(w: Workload, side: usize, seed: u64) -> Inputs {
        Inputs::with_params(Params::of(w, side), seed)
    }

    /// Generate inputs for explicit parameters (tests shrink them).
    pub fn with_params(params: Params, seed: u64) -> Inputs {
        // Nothing here depends on the shard count, so the sharded
        // workload runs txn_grid's exact inputs.
        let partner = pairs(&params, &mut Rng::new(seed, 1));
        let mut rng = Rng::new(seed, 2);
        let g = params.mean_gap_ns;
        let b = params.request_bytes as u64;
        let sends: Vec<Vec<Send>> = partner
            .iter()
            .map(|p| {
                if p.is_none() {
                    return Vec::new();
                }
                let mut at_ns = rng.below(g);
                let mut v = Vec::with_capacity(params.requests);
                for _ in 0..params.requests {
                    let bytes = rng.between(b - b / 4, b + b / 4) as usize;
                    v.push(Send { at_ns, bytes });
                    at_ns += rng.between(g / 2, g + g / 2);
                }
                v
            })
            .collect();
        let last_send = sends.iter().flatten().map(|s| s.at_ns).max().unwrap_or(0);
        let attackers = attackers(&params, last_send, &mut Rng::new(seed, 3));
        // Drain: well past any retransmit timeout (2 × RTT plus the
        // pacing time of a whole group) so nothing is in flight at the
        // deadline and the conservation ledger can close exactly.
        let drain = 200_000_000;
        Inputs {
            seed,
            params,
            partner,
            sends,
            attackers,
            last_send_ns: last_send,
            deadline_ns: last_send + drain,
        }
    }

    /// Total requests scheduled.
    pub fn attempted(&self) -> u64 {
        self.sends.iter().map(|s| s.len() as u64).sum()
    }

    /// Total forged frames scheduled.
    pub fn forged(&self) -> u64 {
        self.attackers.iter().map(|a| a.frames.len() as u64).sum()
    }
}

/// A seeded perfect-as-possible matching of hosts within tiles and
/// `max_dist`. Hosts are visited in shuffled order; each pair formed
/// aims at a target distance and takes a random unpaired host at the
/// closest achievable distance. Targets are dealt from shuffled decks of
/// a triangular distribution over `1..=max_dist` (every sum of two
/// uniform draws, once), so every seed gets nearly the same distance mix
/// and the median pair sits mid-distribution: the simulated latency
/// median then moves with the seed's placement and queueing, not by
/// whole hops. A host left with no eligible partner stays unpaired.
fn pairs(p: &Params, rng: &mut Rng) -> Vec<Option<usize>> {
    let n = p.nodes();
    let tile = |i: usize| {
        let (x, y) = p.xy(i);
        (x / p.block_w, y / p.block_h)
    };
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut partner: Vec<Option<usize>> = vec![None; n];
    let half = p.max_dist.div_ceil(2);
    let mut deck: Vec<usize> = (1..=half)
        .flat_map(|a| (0..=p.max_dist - half).map(move |b| a + b))
        .collect();
    let mut dealt = 0;
    let mut candidates = Vec::new();
    for &a in &order {
        if partner[a].is_some() {
            continue;
        }
        if dealt % deck.len() == 0 {
            rng.shuffle(&mut deck);
        }
        let target = deck[dealt % deck.len()];
        dealt += 1;
        let mut best = usize::MAX;
        candidates.clear();
        for &b in &order {
            if b == a || partner[b].is_some() || tile(b) != tile(a) || p.dist(a, b) > p.max_dist {
                continue;
            }
            let miss = p.dist(a, b).abs_diff(target);
            if miss < best {
                best = miss;
                candidates.clear();
            }
            if miss == best {
                candidates.push(b);
            }
        }
        if candidates.is_empty() {
            continue;
        }
        let b = candidates[rng.below(candidates.len() as u64) as usize];
        partner[a] = Some(b);
        partner[b] = Some(a);
    }
    partner
}

/// Attackers at distinct seeded routers, each sending forged packets on
/// its own jittered schedule across the legitimate traffic window to
/// hosts within `forged_max_dist`. Every segment of every packet —
/// the terminating local one included — carries a distinct forged
/// 32-byte token.
fn attackers(p: &Params, last_send: u64, rng: &mut Rng) -> Vec<Attacker> {
    if p.attackers == 0 {
        return Vec::new();
    }
    let mut routers: Vec<usize> = (0..p.nodes()).collect();
    rng.shuffle(&mut routers);
    routers.truncate(p.attackers);
    routers.sort_unstable();
    let mut out = Vec::with_capacity(routers.len());
    for router in routers {
        let targets: Vec<usize> = (0..p.nodes())
            .filter(|&t| t != router && p.dist(router, t) <= p.forged_max_dist)
            .collect();
        let g = p.forged_gap_ns;
        let mut t = rng.below(g);
        let mut frames = Vec::new();
        while t <= last_send {
            let target = targets[rng.below(targets.len() as u64) as usize];
            let mut segs: Vec<SegmentRepr> = Vec::new();
            let hops = p.xy_path(router, target);
            for &(_, port) in &hops {
                segs.push(forged_segment(port, rng));
            }
            segs.push(forged_segment(PORT_LOCAL, rng));
            let mut payload = FORGED_PAYLOAD_MARK.to_vec();
            payload.resize(64, 0xEE);
            let packet = PacketBuilder::new()
                .route(segs)
                .payload(payload)
                .build()
                .expect("forged packet fits the transmission unit");
            let frame = LinkFrame::Sirpent {
                ff_hint: 0,
                packet: PacketBuf::from_vec(packet),
            };
            frames.push((t, frame.to_p2p_bytes()));
            t += rng.between(g / 2, g + g / 2);
        }
        out.push(Attacker { router, frames });
    }
    out
}

fn forged_segment(port: u8, rng: &mut Rng) -> SegmentRepr {
    let mut token = FORGED_TAG.to_vec();
    while token.len() < SEALED_LEN {
        token.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    token.truncate(SEALED_LEN);
    SegmentRepr {
        port,
        port_token: token,
        ..SegmentRepr::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_differs() {
        let p = Params {
            attackers: 2,
            forged_gap_ns: 200_000,
            forged_max_dist: 4,
            requests: 3,
            ..Params::of(Workload::TxnGrid, 6)
        };
        let a = Inputs::with_params(p, 7);
        let b = Inputs::with_params(p, 7);
        let c = Inputs::with_params(p, 8);
        assert_eq!(a.partner, b.partner);
        assert_eq!(a.sends, b.sends);
        assert_eq!(a.attackers[0].frames, b.attackers[0].frames);
        assert_ne!(a.sends, c.sends);
    }

    #[test]
    fn pairs_respect_distance_and_tiles() {
        for w in [Workload::TxnGrid, Workload::BulkGroups] {
            let p = Params::of(w, 32);
            let inp = Inputs::generate(w, 32, 11);
            let mut paired = 0;
            for (a, b) in inp.partner.iter().enumerate() {
                if let Some(b) = *b {
                    paired += 1;
                    assert_eq!(inp.partner[b], Some(a), "symmetric");
                    assert!(p.dist(a, b) <= p.max_dist);
                    assert!(p.dist(a, b) >= 1);
                    if w == Workload::BulkGroups {
                        assert_eq!(p.xy(a).1, p.xy(b).1, "bulk pairs share a row");
                    }
                }
            }
            assert!(paired >= p.nodes() - 2, "{w:?}: {paired} paired");
        }
    }

    #[test]
    fn forged_tokens_are_distinct_and_tagged() {
        let inp = Inputs::generate(Workload::ForgedFlood, 8, 3);
        let mut all: Vec<Vec<u8>> = Vec::new();
        for (_, bytes) in inp.attackers.iter().flat_map(|a| &a.frames) {
            let Ok(LinkFrame::Sirpent { packet, .. }) = LinkFrame::from_p2p_bytes(bytes) else {
                panic!("attackers send Sirpent frames");
            };
            let view = sirpent::wire::packet::PacketView::parse(packet.as_slice()).expect("parses");
            all.extend(view.route.into_iter().map(|s| s.port_token));
        }
        assert!(!all.is_empty());
        assert!(all
            .iter()
            .all(|t| t.len() == SEALED_LEN && t.starts_with(FORGED_TAG)));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "every forged token is distinct");
    }

    #[test]
    fn xy_path_reaches_the_target_host() {
        let p = Params::of(Workload::TxnGrid, 5);
        let path = p.xy_path(0, 24);
        assert_eq!(path.len(), p.dist(0, 24) + 1);
        assert_eq!(path.last(), Some(&(24, HOST_PORT)));
    }
}
