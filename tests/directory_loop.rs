//! The full §3/§6.3 control loop: query → cache → use → failure report →
//! on-use invalidation → re-query → recovery, with the client cache
//! absorbing repeat lookups.

use sirpent::compile::CompiledRoute;
use sirpent::directory::{
    AccessSpec, Directory, HopSpec, LinkMetrics, Name, Peer, Preference, RouteCache, RouteRecord,
    Security,
};
use sirpent::host::{HostEvent, HostPortKind, SirpentHost};
use sirpent::router::viper::ViperConfig;
use sirpent::sim::{FaultConfig, SimDuration, SimTime};
use sirpent::transport::FailoverPolicy;
use sirpent::wire::viper::Priority;
use sirpent::wire::vmtp::EntityId;
use sirpent::Net;

const RATE: u64 = 10_000_000;
const PROP: SimDuration = SimDuration(5_000);

fn hop(router_id: u32) -> HopSpec {
    HopSpec {
        router_id,
        port: 2,
        ethernet_next: None,
        bandwidth_bps: RATE,
        prop_delay: PROP,
        mtu: 1550,
        cost: 1,
        security: Security::Controlled,
    }
}

fn access(host_port: u8) -> AccessSpec {
    AccessSpec {
        host_port,
        ethernet_next: None,
        bandwidth_bps: RATE,
        prop_delay: PROP,
        mtu: 1550,
    }
}

#[test]
fn requery_after_total_route_failure_recovers_service() {
    // Topology: client has two parallel paths (via R1, via R2). Both die;
    // the client reports NeedsRequery; meanwhile the operator brings up
    // the R2 path again and reports it to the directory; the re-query
    // returns only the revived route and service resumes.
    let mut net = Net::new(33);
    let client = net.host(
        0xC,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let server = net.host(
        0x5,
        vec![
            (0, HostPortKind::PointToPoint),
            (1, HostPortKind::PointToPoint),
        ],
    );
    let r1 = net.viper(ViperConfig::basic(1, &[1, 2]));
    let r2 = net.viper(ViperConfig::basic(2, &[1, 2]));
    net.p2p(client, 0, r1, 1, RATE, PROP);
    net.p2p(client, 1, r2, 1, RATE, PROP);
    let (l1a, l1b) = net.sim.p2p(r1, 2, server, 0, RATE, PROP);
    let (l2a, l2b) = net.sim.p2p(r2, 2, server, 1, RATE, PROP);
    let mut sim = net.into_sim();

    // Directory with both routes and the links they cross; client-side
    // cache.
    let mut dir = Directory::new();
    for router in [1, 2] {
        let metrics = LinkMetrics::basic();
        dir.te_mut().add_link(router, 2, Peer::Host(0x5), metrics);
    }
    let svc = Name::parse("db.hq.example");
    let me = Name::parse("c.branch.example");
    dir.register_route(
        &svc,
        Name::root(),
        RouteRecord {
            access: access(0),
            hops: vec![hop(1)],
            endpoint_selector: vec![],
        },
    );
    dir.register_route(
        &svc,
        Name::root(),
        RouteRecord {
            access: access(1),
            hops: vec![hop(2)],
            endpoint_selector: vec![],
        },
    );
    let mut cache = RouteCache::new(SimDuration::from_secs(60));

    // Initial query (miss → directory), then a cache hit.
    assert!(cache.get(&svc, sim.now(), dir.topology_epoch()).is_none());
    let q = dir.query(&me, &svc, Preference::LowDelay, 4, 1);
    assert_eq!(q.advisories.len(), 2);
    cache.put(
        svc.clone(),
        q.advisories.clone(),
        sim.now(),
        dir.topology_epoch(),
    );
    assert!(cache.get(&svc, sim.now(), dir.topology_epoch()).is_some());
    assert_eq!(cache.hits, 1);

    let compile_all = |advs: &[sirpent::directory::Advisory]| -> Vec<CompiledRoute> {
        advs.iter()
            .map(|a| CompiledRoute::compile(&a.route, &a.tokens, Priority::NORMAL))
            .collect()
    };
    {
        let c = sim.node_mut::<SirpentHost>(client);
        c.set_failover(FailoverPolicy {
            loss_threshold: 1,
            ..Default::default()
        });
        c.install_routes(
            EntityId(0x5),
            compile_all(
                cache
                    .get(&svc, SimTime::ZERO, dir.topology_epoch())
                    .unwrap(),
            ),
        );
        for i in 0..40u64 {
            c.queue_request(SimTime(i * 20_000_000), EntityId(0x5), vec![1; 64]);
        }
    }
    sim.node_mut::<SirpentHost>(server).auto_respond = Some(vec![2; 64]);
    SirpentHost::start(&mut sim, client);

    // Kill BOTH paths at t = 200 ms.
    sim.run_until(SimTime(200_000_000));
    let dead = FaultConfig {
        drop_prob: 1.0,
        corrupt_prob: 0.0,
    };
    for ch in [l1a, l1b, l2a, l2b] {
        sim.set_faults(ch, dead);
    }
    // Operator-side: the directory learns both links are down.
    dir.report_down(1, 2);
    dir.report_down(2, 2);

    // Let the client discover total failure.
    sim.run_until(SimTime(700_000_000));
    let needs_requery_at = {
        let c = sim.node::<SirpentHost>(client);
        c.events.iter().find_map(|e| match e {
            HostEvent::NeedsRequery { at, .. } => Some(*at),
            _ => None,
        })
    };
    let needs_requery_at = needs_requery_at.expect("client must ask for a re-query");

    // On-use invalidation (§3): drop the stale cache entry, then the
    // re-query — the directory still excludes both dead routes.
    cache.invalidate(&svc);
    let q2 = dir.query(&me, &svc, Preference::LowDelay, 4, 1);
    assert!(q2.advisories.is_empty(), "everything known-down");

    // The R2 path is repaired and reported up.
    let clean = FaultConfig::default();
    for ch in [l2a, l2b] {
        sim.set_faults(ch, clean);
    }
    dir.report_up(2, 2);
    let q3 = dir.query(&me, &svc, Preference::LowDelay, 4, 1);
    assert_eq!(q3.advisories.len(), 1, "only the revived route");
    assert_eq!(q3.advisories[0].route.hops[0].router_id, 2);
    cache.put(
        svc.clone(),
        q3.advisories.clone(),
        sim.now(),
        dir.topology_epoch(),
    );

    // Install the fresh route set and finish the workload.
    {
        let t = sim.now();
        let c = sim.node_mut::<SirpentHost>(client);
        c.install_routes(EntityId(0x5), compile_all(&q3.advisories));
        for i in 0..10u64 {
            c.queue_request(
                SimTime(t.as_nanos() + i * 20_000_000),
                EntityId(0x5),
                vec![3; 64],
            );
        }
    }
    SirpentHost::start(&mut sim, client);
    sim.run_until(SimTime(2_000_000_000));

    let c = sim.node::<SirpentHost>(client);
    let after: usize = c
        .rtt_samples
        .iter()
        .filter(|(t, _)| *t > needs_requery_at)
        .count();
    assert!(after >= 10, "post-requery transactions completed ({after})");
    assert_eq!(cache.invalidations, 1);
    assert_eq!(dir.queries, 3);
}
