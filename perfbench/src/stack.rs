//! Building the real stack through its public API.
//!
//! A `side × side` grid of cut-through `ViperRouter`s (ports 1–4 to the
//! grid neighbours, port 5 to one `SirpentHost`, port 6 to an attacker
//! where one sits), every link at the workload's rate and propagation
//! delay. Every router requires a token and authorizes optimistically
//! with its key from `TokenMinter::router_key`. Client routes come from
//! the TE directory with minted tokens, are compiled with
//! `CompiledRoute::compile` and installed with `install_routes`.
//!
//! Set-up runs in phases, each timed as a span: topology, TE advisories
//! (which mint the tokens), compile, install, start.

use std::time::Instant;

use sirpent::compile::CompiledRoute;
use sirpent::directory::{
    AccessSpec, Directory, LinkMetrics, Peer, TeQuery, TeTopology, TokenIssue,
};
use sirpent::host::{HostPortKind, SirpentHost};
use sirpent::router::viper::{AuthConfig, CongestionConfig, ViperConfig, ViperRouter};
use sirpent::router::ScriptedHost;
use sirpent::sim::{ChannelId, Node, NodeId, SimDuration, SimTime, Simulator};
use sirpent::token::{AuthPolicy, TokenMinter};
use sirpent::wire::viper::Priority;
use sirpent::wire::vmtp::EntityId;
use sirpent::wire::VIPER_TRANSMISSION_UNIT;
use sirpent::Net;

use crate::ledger::{Kind, SpanLog, Timed};
use crate::workload::{Inputs, Rng, ATTACK_PORT, EAST, HOST_PORT, NORTH, SOUTH, WEST};

/// The token domain's master secret.
pub const MASTER: u64 = 0x5150_2E4E_4554_0001;
/// Modelled full decrypt + verify time (what a blocked packet waits).
const VERIFY_DELAY: SimDuration = SimDuration(50_000);
/// Fill byte of legitimate request payloads.
pub const REQUEST_FILL: u8 = 0x5A;
/// Fill byte of legitimate response payloads.
pub const RESPONSE_FILL: u8 = 0xA5;

/// Router id of grid index `i` (ids start at 1).
pub fn router_id(i: usize) -> u32 {
    i as u32 + 1
}

/// Transport entity id of the host at grid index `i`.
pub fn entity(i: usize) -> u64 {
    i as u64 + 1
}

/// Per-call set-up costs, for the directory and compile layers.
#[derive(Debug, Clone, Default)]
pub struct SetupCalls {
    /// Wall ns of each `te_advisories` call.
    pub te_query_ns: Vec<u64>,
    /// Wall ns of each `CompiledRoute::compile` call.
    pub compile_ns: Vec<u64>,
    /// Tokens minted.
    pub tokens_minted: u64,
}

/// A built, started simulation and the handles the benchmark needs.
pub struct Stack {
    /// The simulator, ready to run.
    pub sim: Simulator,
    /// Router node of each grid index.
    pub routers: Vec<NodeId>,
    /// Host node of each grid index.
    pub hosts: Vec<NodeId>,
    /// Attacker nodes.
    pub attackers: Vec<NodeId>,
    /// Channels into the network from hosts and attackers.
    pub uplinks: Vec<ChannelId>,
    /// Channels out of the network to hosts and attackers.
    pub downlinks: Vec<ChannelId>,
    /// Every point-to-point link as its two node ids.
    pub links: Vec<(usize, usize)>,
    /// The directory (for its telemetry).
    pub directory: Directory,
    /// The route each client installed (by grid index).
    pub routes: Vec<Option<CompiledRoute>>,
    /// Per-call set-up costs.
    pub calls: SetupCalls,
}

/// Add `node`, wrapped in a timing [`Timed`] when tracing.
fn add<N: Node>(
    sim: &mut Simulator,
    count: &mut usize,
    node: N,
    kind: Kind,
    trace: Option<bool>,
) -> NodeId {
    let id = *count;
    *count += 1;
    let got = match trace {
        Some(watch_forged) => sim.add_node(Box::new(Timed::new(node, id, kind, watch_forged))),
        None => sim.add_node(Box::new(node)),
    };
    debug_assert_eq!(got.0, id);
    got
}

/// Build and start the stack for `inputs`. With `traced`, every node is
/// wrapped in a timing [`Timed`]. Phases are recorded in `log`.
pub fn build(inputs: &Inputs, traced: bool, log: &mut SpanLog) -> Stack {
    let p = &inputs.params;
    let n = p.nodes();
    let trace = traced.then_some(!inputs.attackers.is_empty());
    let prop = SimDuration(p.prop_ns);
    let mut attacked = vec![false; n];
    for a in &inputs.attackers {
        attacked[a.router] = true;
    }

    let phase = log.open("setup.topology");
    let mut sim = Simulator::new(Rng::new(inputs.seed, 4).next_u64());
    let mut count = 0;
    let keys = TokenMinter::new(MASTER, 0);
    let mut routers = Vec::with_capacity(n);
    for (i, &attacker) in attacked.iter().enumerate() {
        let mut ports: Vec<u8> = [NORTH, EAST, SOUTH, WEST]
            .into_iter()
            .filter(|&d| p.neighbour(i, d).is_some())
            .collect();
        ports.push(HOST_PORT);
        if attacker {
            ports.push(ATTACK_PORT);
        }
        let mut cfg = ViperConfig::basic(router_id(i), &ports);
        for pc in &mut cfg.ports {
            pc.mtu = VIPER_TRANSMISSION_UNIT + 64;
        }
        cfg.auth = Some(AuthConfig {
            key: keys.router_key(router_id(i)),
            policy: AuthPolicy::Optimistic,
            verify_delay: VERIFY_DELAY,
            require_token: true,
        });
        cfg.congestion = CongestionConfig {
            enabled: p.congestion,
            ..CongestionConfig::default()
        };
        routers.push(add(
            &mut sim,
            &mut count,
            ViperRouter::new(cfg),
            Kind::Router,
            trace,
        ));
    }
    let mut hosts = Vec::with_capacity(n);
    for i in 0..n {
        let mut h = SirpentHost::new(
            Net::default_endpoint(entity(i)),
            vec![(0, HostPortKind::PointToPoint)],
        );
        h.auto_respond = Some(vec![RESPONSE_FILL; p.response_bytes]);
        hosts.push(add(&mut sim, &mut count, h, Kind::Host, trace));
    }
    let mut attackers = Vec::with_capacity(inputs.attackers.len());
    for a in &inputs.attackers {
        let mut s = ScriptedHost::new();
        for (t, bytes) in &a.frames {
            s.plan(SimTime(*t), 0, bytes.clone());
        }
        attackers.push(add(&mut sim, &mut count, s, Kind::Attacker, trace));
    }

    let mut te = TeTopology::new();
    let metrics = LinkMetrics {
        bandwidth_bps: p.link_bps,
        prop_delay: prop,
        mtu: VIPER_TRANSMISSION_UNIT,
        cost: 1,
        ..LinkMetrics::basic()
    };
    let mut links = Vec::new();
    let (mut uplinks, mut downlinks) = (Vec::new(), Vec::new());
    for i in 0..n {
        for (out, back) in [(EAST, WEST), (SOUTH, NORTH)] {
            if let Some(j) = p.neighbour(i, out) {
                sim.p2p(routers[i], out, routers[j], back, p.link_bps, prop);
                links.push((routers[i].0, routers[j].0));
            }
        }
        for d in [NORTH, EAST, SOUTH, WEST] {
            if let Some(j) = p.neighbour(i, d) {
                te.add_link(router_id(i), d, Peer::Router(router_id(j)), metrics);
            }
        }
        te.add_link(
            router_id(i),
            HOST_PORT,
            Peer::Host(entity(i) as u32),
            metrics,
        );
        let (up, down) = sim.p2p(hosts[i], 0, routers[i], HOST_PORT, p.link_bps, prop);
        uplinks.push(up);
        downlinks.push(down);
        links.push((hosts[i].0, routers[i].0));
    }
    for (k, a) in inputs.attackers.iter().enumerate() {
        let (up, down) = sim.p2p(
            attackers[k],
            0,
            routers[a.router],
            ATTACK_PORT,
            p.link_bps,
            prop,
        );
        uplinks.push(up);
        downlinks.push(down);
        links.push((attackers[k].0, routers[a.router].0));
    }
    let mut directory = Directory::new().with_te(te).with_tokens(TokenIssue {
        minter: TokenMinter::new(MASTER, inputs.seed),
        max_priority: Priority::NORMAL,
        reverse_ok: true,
        byte_limit: 0,
        expiry_s: 0,
    });
    log.close(phase);

    let access = AccessSpec {
        host_port: 0,
        ethernet_next: None,
        bandwidth_bps: p.link_bps,
        prop_delay: prop,
        mtu: VIPER_TRANSMISSION_UNIT,
    };
    let mut calls = SetupCalls::default();
    let query = TeQuery::default();
    let phase = log.open("setup.te_advisories");
    let advisories: Vec<_> = inputs
        .partner
        .iter()
        .enumerate()
        .map(|(c, s)| {
            let s = (*s)?;
            let t = Instant::now();
            let mut advs = directory.te_advisories(
                router_id(c),
                Peer::Host(entity(s) as u32),
                &query,
                &access,
                &[],
                c as u32,
            );
            calls.te_query_ns.push(t.elapsed().as_nanos() as u64);
            assert!(!advs.is_empty(), "the grid is connected");
            Some(advs.swap_remove(0))
        })
        .collect();
    log.close(phase);

    let phase = log.open("setup.compile");
    let routes: Vec<Option<CompiledRoute>> = advisories
        .iter()
        .map(|adv| {
            let adv = adv.as_ref()?;
            calls.tokens_minted += adv.tokens.len() as u64;
            let t = Instant::now();
            let r = CompiledRoute::compile(&adv.route, &adv.tokens, Priority::NORMAL);
            calls.compile_ns.push(t.elapsed().as_nanos() as u64);
            Some(r)
        })
        .collect();
    log.close(phase);

    let phase = log.open("setup.install_routes");
    for (c, r) in routes.iter().enumerate() {
        if let (Some(r), Some(s)) = (r, inputs.partner[c]) {
            sim.node_mut::<SirpentHost>(hosts[c])
                .install_routes(EntityId(entity(s)), vec![r.clone()]);
        }
    }
    log.close(phase);

    let phase = log.open("setup.start");
    for (c, sends) in inputs.sends.iter().enumerate() {
        let Some(s) = inputs.partner[c] else { continue };
        let h = sim.node_mut::<SirpentHost>(hosts[c]);
        for r in sends {
            h.queue_request(
                SimTime(r.at_ns),
                EntityId(entity(s)),
                vec![REQUEST_FILL; r.bytes],
            );
        }
        SirpentHost::start(&mut sim, hosts[c]);
    }
    for &a in &attackers {
        ScriptedHost::start(&mut sim, a);
    }
    log.close(phase);

    Stack {
        sim,
        routers,
        hosts,
        attackers,
        uplinks,
        downlinks,
        links,
        directory,
        routes,
        calls,
    }
}
