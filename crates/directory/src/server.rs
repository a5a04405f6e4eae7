//! The internetwork routing directory service.
//!
//! §3: "The global internetwork directory service is extended in Sirpent
//! to provide routes to a host or service, given its character-string
//! name. … the routes to a service can be regarded as just one of many
//! attributes of the service." The directory also issues the authorizing
//! tokens with each route, maintains "reasonably up-to-date load
//! information on links using reports received from network monitoring
//! stations, individual routers and sources experiencing problems", and
//! aggregates the routers' accounting ledgers.
//!
//! The hierarchy of region servers (Singh's scheme) is modelled by the
//! region math in [`crate::name`]: a query's latency grows with the
//! region distance between client and service, and the per-region
//! delegation counters record how many levels were traversed.

use std::collections::HashMap;

use sirpent_sim::SimDuration;
use sirpent_telemetry::names;
use sirpent_telemetry::{Registry, RegistryError};
use sirpent_token::{Accounting, Grant, TokenMinter};
use sirpent_wire::viper::Priority;

use crate::name::Name;
use crate::route::{AccessSpec, Preference, RouteProperties, RouteRecord};
use crate::te::{TeQuery, TeRoute, TeTopology, LOAD_SCALE};

/// A route advisory returned to a client.
#[derive(Debug, Clone)]
pub struct Advisory {
    /// The route itself.
    pub route: RouteRecord,
    /// Its aggregate properties — bandwidth, delay, MTU, cost, security
    /// (§3: the client learns RTT and MTU up front).
    pub props: RouteProperties,
    /// Sealed port tokens, one per hop (empty when the directory has no
    /// minting authority configured).
    pub tokens: Vec<Vec<u8>>,
    /// Current worst-case reported load along the route (1.0 = line
    /// rate), from the directory's link map in milli-unit steps.
    pub reported_load: f64,
    /// Advertised residual capacity of the route's bottleneck link,
    /// bits/sec — what TE clients weight their per-flow route choice
    /// by. Equal to the bottleneck bandwidth when no load is known.
    pub residual_bps: u64,
}

/// Everything known about one named service.
#[derive(Debug, Clone, Default)]
pub struct ServiceRecord {
    /// Non-routing attributes (the directory is a general database, §3).
    pub attributes: HashMap<String, String>,
    /// Registered routes, tagged by the client region they serve.
    pub routes: Vec<(Name, RouteRecord)>,
}

/// Result of a query, including the cost model for obtaining it.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matching advisories, best first under the requested preference.
    pub advisories: Vec<Advisory>,
    /// Region levels traversed to resolve the query (0 = same region —
    /// served by the local region server).
    pub region_levels: usize,
    /// Modeled time to obtain this answer without a cache ("acquiring a
    /// route requires a full round trip to the region server", §3 fn 10).
    pub latency: SimDuration,
}

/// Token-minting configuration for advisories.
pub struct TokenIssue {
    /// The domain minter.
    pub minter: TokenMinter,
    /// Priority ceiling granted on issued tokens.
    pub max_priority: Priority,
    /// Whether return-direction use is granted.
    pub reverse_ok: bool,
    /// Byte budget per token (0 = unlimited).
    pub byte_limit: u32,
    /// Expiry (simulation seconds; 0 = never).
    pub expiry_s: u32,
}

/// The directory service.
pub struct Directory {
    records: HashMap<Name, ServiceRecord>,
    issue: Option<TokenIssue>,
    /// The one link map: topology, static weights, reported load and
    /// up/down state. Every report lands here and every query reads it.
    te: TeTopology,
    /// Aggregated usage collected from router ledgers.
    pub billing: Accounting,
    /// Base RTT to a same-region server.
    pub base_query_rtt: SimDuration,
    /// Additional RTT per region level traversed.
    pub per_level_rtt: SimDuration,
    /// Total queries served.
    pub queries: u64,
    /// Queries that had to climb at least one region level.
    pub delegated_queries: u64,
    /// TE queries served.
    pub te_queries: u64,
    /// Routes returned across all TE queries.
    pub te_routes_returned: u64,
    /// Congestion detours inserted into returned TE route sets.
    pub te_detours: u64,
    /// TE queries with no feasible route under the client's bounds.
    pub te_infeasible: u64,
}

impl Directory {
    /// An empty directory with default latency model (0.5 ms local,
    /// +1 ms per region level).
    pub fn new() -> Directory {
        Directory {
            records: HashMap::new(),
            issue: None,
            te: TeTopology::new(),
            billing: Accounting::new(),
            base_query_rtt: SimDuration::from_micros(500),
            per_level_rtt: SimDuration::from_millis(1),
            queries: 0,
            delegated_queries: 0,
            te_queries: 0,
            te_routes_returned: 0,
            te_detours: 0,
            te_infeasible: 0,
        }
    }

    /// Enable token issuance.
    pub fn with_tokens(mut self, issue: TokenIssue) -> Directory {
        self.issue = Some(issue);
        self
    }

    /// Replace the (initially empty) link map: the directory then
    /// computes constrained k-shortest routes on demand
    /// ([`Directory::te_query`]) as well as serving registered records,
    /// and link reports bump the topology epoch so client caches can
    /// detect staleness.
    pub fn with_te(mut self, te: TeTopology) -> Directory {
        self.te = te;
        self
    }

    /// The directory's link map.
    pub fn te(&self) -> &TeTopology {
        &self.te
    }

    /// Mutable access to the link map (monitoring stations push weight
    /// updates through here; every mutation bumps the epoch).
    pub fn te_mut(&mut self) -> &mut TeTopology {
        &mut self.te
    }

    /// Current topology epoch. Route caches key entries by this value.
    pub fn topology_epoch(&self) -> u64 {
        self.te.epoch()
    }

    /// Register a route to `service` usable by clients within
    /// `client_region`.
    pub fn register_route(&mut self, service: &Name, client_region: Name, route: RouteRecord) {
        self.records
            .entry(service.clone())
            .or_default()
            .routes
            .push((client_region, route));
    }

    /// Set a non-routing attribute.
    pub fn set_attribute(&mut self, service: &Name, key: &str, value: &str) {
        self.records
            .entry(service.clone())
            .or_default()
            .attributes
            .insert(key.to_string(), value.to_string());
    }

    /// Read an attribute.
    pub fn attribute(&self, service: &Name, key: &str) -> Option<&str> {
        self.records
            .get(service)?
            .attributes
            .get(key)
            .map(|s| s.as_str())
    }

    /// A router/monitor load report for one link (0.0–1.0 of line
    /// rate), stored in the link map in [`LOAD_SCALE`] milli-units.
    /// Reports on links the map does not know are ignored; a change
    /// bumps the topology epoch.
    pub fn report_load(&mut self, router_id: u32, port: u8, load: f64) {
        let milli = (load.clamp(0.0, 1.0) * LOAD_SCALE as f64) as u32;
        self.te.set_load_milli(router_id, port, milli);
    }

    /// A link-failure report ("individual routers and sources
    /// experiencing problems with routes they are using", §6.3).
    pub fn report_down(&mut self, router_id: u32, port: u8) {
        self.te.set_down(router_id, port);
    }

    /// A link-recovery report.
    pub fn report_up(&mut self, router_id: u32, port: u8) {
        self.te.set_up(router_id, port);
    }

    /// Fold a router's accounting ledger into the billing aggregate.
    pub fn collect_accounting(&mut self, ledger: &Accounting) {
        self.billing.merge(ledger);
    }

    /// Seal one token per hop of `route`, in hop order (none when
    /// minting is not configured).
    fn mint(&mut self, route: &RouteRecord, account: u32) -> Vec<Vec<u8>> {
        let Some(issue) = self.issue.as_mut() else {
            return Vec::new();
        };
        route
            .hops
            .iter()
            .map(|h| {
                issue
                    .minter
                    .mint(Grant {
                        router_id: h.router_id,
                        port: h.port,
                        max_priority: issue.max_priority,
                        reverse_ok: issue.reverse_ok,
                        account,
                        byte_limit: issue.byte_limit,
                        expiry_s: issue.expiry_s,
                    })
                    .to_vec()
            })
            .collect()
    }

    /// Whether any hop of `route` is down, and its worst hop load in
    /// milli-units.
    fn route_status(&self, route: &RouteRecord) -> (bool, u32) {
        let mut down = false;
        let mut load_milli = 0;
        for h in &route.hops {
            if let Some(l) = self.te.link(h.router_id, h.port) {
                down |= l.down;
                load_milli = load_milli.max(l.load_milli);
            }
        }
        (down, load_milli)
    }

    /// Query routes from `client` to `service` with a preference.
    /// Returns up to `max_routes` advisories, best first; routes through
    /// links reported down are excluded, heavily loaded routes are
    /// deprioritized.
    pub fn query(
        &mut self,
        client: &Name,
        service: &Name,
        pref: Preference,
        max_routes: usize,
        account: u32,
    ) -> QueryResult {
        self.queries += 1;
        let levels = client.region_distance(service);
        if levels > 0 {
            self.delegated_queries += 1;
        }
        let latency = self.base_query_rtt + self.per_level_rtt.times(levels as u64);

        let mut candidates: Vec<(RouteRecord, RouteProperties, u32)> = Vec::new();
        if let Some(rec) = self.records.get(service) {
            for (region, route) in &rec.routes {
                if !client.within(region) {
                    continue;
                }
                let (down, load) = self.route_status(route);
                if down {
                    continue;
                }
                candidates.push((route.clone(), route.properties(), load));
            }
        }
        candidates.sort_by_key(|(_, p, load_milli)| {
            let overloaded = *load_milli > LOAD_SCALE * 9 / 10;
            (overloaded, pref.key(p))
        });
        candidates.truncate(max_routes);

        let advisories = candidates
            .into_iter()
            .map(|(route, props, load_milli)| {
                let tokens = self.mint(&route, account);
                let free = LOAD_SCALE.saturating_sub(load_milli) as u64;
                Advisory {
                    props,
                    reported_load: load_milli as f64 / LOAD_SCALE as f64,
                    residual_bps: props.bandwidth_bps / LOAD_SCALE as u64 * free,
                    tokens,
                    route,
                }
            })
            .collect();

        QueryResult {
            advisories,
            region_levels: levels,
            latency,
        }
    }

    /// Compute constrained k-shortest routes from a client's first
    /// router to `dst` on the link map. Returns raw [`TeRoute`]s, best
    /// first; empty when no feasible route exists.
    pub fn te_query(&mut self, src_router: u32, dst: crate::Peer, q: &TeQuery) -> Vec<TeRoute> {
        self.te_queries += 1;
        let routes = self.te.k_routes(src_router, dst, q);
        self.te_routes_returned += routes.len() as u64;
        self.te_detours += routes.iter().filter(|r| r.detour).count() as u64;
        if routes.is_empty() {
            self.te_infeasible += 1;
        }
        routes
    }

    /// Like [`Directory::te_query`], but materializes full advisories:
    /// route records (with the client's access link), aggregate
    /// properties, per-hop tokens (when minting is configured), and the
    /// advertised residual capacity.
    pub fn te_advisories(
        &mut self,
        src_router: u32,
        dst: crate::Peer,
        q: &TeQuery,
        access: &AccessSpec,
        endpoint_selector: &[u8],
        account: u32,
    ) -> Vec<Advisory> {
        let routes = self.te_query(src_router, dst, q);
        let mut advisories = Vec::with_capacity(routes.len());
        for r in &routes {
            let Some(route) = self
                .te
                .record(r, access.clone(), endpoint_selector.to_vec())
            else {
                continue;
            };
            let tokens = self.mint(&route, account);
            let (_, load_milli) = self.route_status(&route);
            advisories.push(Advisory {
                props: route.properties(),
                reported_load: load_milli as f64 / LOAD_SCALE as f64,
                residual_bps: r.residual_bps,
                tokens,
                route,
            });
        }
        advisories
    }

    /// Publish the directory's TE counters into a telemetry registry.
    pub fn publish_telemetry(&self, reg: &mut Registry) -> Result<(), RegistryError> {
        reg.publish_count(names::TE_QUERIES_TOTAL, self.te_queries)?;
        reg.publish_count(names::TE_ROUTES_RETURNED_TOTAL, self.te_routes_returned)?;
        reg.publish_count(names::TE_DETOURS_TOTAL, self.te_detours)?;
        reg.publish_count(names::TE_INFEASIBLE_TOTAL, self.te_infeasible)?;
        reg.publish_count(names::TE_EPOCH_BUMPS_TOTAL, self.topology_epoch())?;
        Ok(())
    }
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{AccessSpec, HopSpec, Security};
    use sirpent_sim::SimTime;

    fn access() -> AccessSpec {
        AccessSpec {
            host_port: 0,
            ethernet_next: None,
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(5),
            mtu: 1500,
        }
    }

    fn hop(router: u32, port: u8, bw: u64, prop_us: u64, cost: u32) -> HopSpec {
        HopSpec {
            router_id: router,
            port,
            ethernet_next: None,
            bandwidth_bps: bw,
            prop_delay: SimDuration::from_micros(prop_us),
            mtu: 1500,
            cost,
            security: Security::Controlled,
        }
    }

    fn route(hops: Vec<HopSpec>) -> RouteRecord {
        RouteRecord {
            access: access(),
            hops,
            endpoint_selector: vec![],
        }
    }

    fn names() -> (Name, Name) {
        (
            Name::parse("venus.cs.stanford.edu"),
            Name::parse("printsrv.cs.stanford.edu"),
        )
    }

    #[test]
    fn query_returns_multiple_routes_best_first() {
        let (client, service) = names();
        let mut d = Directory::new();
        let near = route(vec![hop(1, 2, 1_000_000, 100, 1)]);
        let far = route(vec![hop(2, 3, 100_000_000, 5000, 9)]);
        d.register_route(&service, Name::parse("stanford.edu"), near.clone());
        d.register_route(&service, Name::parse("stanford.edu"), far.clone());

        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories.len(), 2, "multiple routes (§3)");
        assert_eq!(r.advisories[0].route, near, "low delay first");

        let r = d.query(&client, &service, Preference::HighBandwidth, 4, 1);
        assert_eq!(r.advisories[0].route, far, "bandwidth first");
    }

    #[test]
    fn region_scoping_filters_routes() {
        let (client, service) = names();
        let mut d = Directory::new();
        d.register_route(
            &service,
            Name::parse("mit.edu"),
            route(vec![hop(9, 1, 1, 1, 1)]),
        );
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert!(
            r.advisories.is_empty(),
            "routes registered for another region don't apply"
        );
    }

    #[test]
    fn down_links_excluded_loaded_links_deprioritized() {
        let (client, service) = names();
        let mut d = Directory::new();
        for router in [1, 2] {
            let metrics = crate::te::LinkMetrics::basic();
            d.te_mut()
                .add_link(router, 2, crate::Peer::Host(9), metrics);
        }
        let via1 = route(vec![hop(1, 2, 10_000_000, 100, 1)]);
        let via2 = route(vec![hop(2, 2, 10_000_000, 200, 1)]);
        d.register_route(&service, Name::root(), via1.clone());
        d.register_route(&service, Name::root(), via2.clone());

        // Load on router 1's link pushes via1 behind via2 despite delay.
        d.report_load(1, 2, 0.95);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories[0].route, via2);
        assert!((r.advisories[1].reported_load - 0.95).abs() < 1e-9);

        // Failure removes via1 entirely.
        d.report_down(1, 2);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories.len(), 1);
        assert_eq!(r.advisories[0].route, via2);

        // Recovery restores it.
        d.report_up(1, 2);
        d.report_load(1, 2, 0.0);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories.len(), 2);
        assert_eq!(r.advisories[0].route, via1);
    }

    #[test]
    fn query_latency_grows_with_region_distance() {
        let mut d = Directory::new();
        let local_c = Name::parse("a.cs.stanford.edu");
        let local_s = Name::parse("b.cs.stanford.edu");
        let remote_s = Name::parse("x.lcs.mit.edu");
        d.register_route(&local_s, Name::root(), route(vec![]));
        d.register_route(&remote_s, Name::root(), route(vec![]));

        let near = d.query(&local_c, &local_s, Preference::LowDelay, 1, 1);
        let far = d.query(&local_c, &remote_s, Preference::LowDelay, 1, 1);
        assert_eq!(near.region_levels, 2);
        assert_eq!(far.region_levels, 6);
        assert!(far.latency > near.latency);
        assert_eq!(d.queries, 2);
        assert_eq!(d.delegated_queries, 2);
    }

    #[test]
    fn tokens_minted_per_hop() {
        let (client, service) = names();
        let minter = TokenMinter::new(0xFEED_FACE, 3);
        let key1 = minter.router_key(1);
        let key2 = minter.router_key(2);
        let mut d = Directory::new().with_tokens(TokenIssue {
            minter,
            max_priority: Priority::new(5),
            reverse_ok: true,
            byte_limit: 0,
            expiry_s: 0,
        });
        d.register_route(
            &service,
            Name::root(),
            route(vec![hop(1, 2, 1, 1, 1), hop(2, 4, 1, 1, 1)]),
        );
        let r = d.query(&client, &service, Preference::LowDelay, 1, 42);
        let adv = &r.advisories[0];
        assert_eq!(adv.tokens.len(), 2, "one token per hop (§5)");
        let b1 = key1.unseal(&adv.tokens[0]).unwrap();
        assert_eq!(b1.port, 2);
        assert_eq!(b1.account, 42);
        let b2 = key2.unseal(&adv.tokens[1]).unwrap();
        assert_eq!(b2.port, 4);
        assert!(b2.reverse_ok);
        // Cross-checking fails: hop-1 token does not verify at router 2.
        assert!(key2.unseal(&adv.tokens[0]).is_err());
    }

    fn te_diamond() -> crate::TeTopology {
        use crate::te::LinkMetrics;
        use crate::Peer;
        let mut t = crate::TeTopology::new();
        let fast = LinkMetrics {
            prop_delay: SimDuration::from_micros(10),
            ..LinkMetrics::basic()
        };
        let slow = LinkMetrics {
            prop_delay: SimDuration::from_micros(50),
            ..LinkMetrics::basic()
        };
        t.add_link(0, 0, Peer::Router(1), fast);
        t.add_link(0, 1, Peer::Router(2), slow);
        t.add_link(1, 0, Peer::Router(3), fast);
        t.add_link(2, 0, Peer::Router(3), fast);
        t.add_link(3, 0, Peer::Host(9), fast);
        t
    }

    #[test]
    fn te_query_serves_routes_and_reports_feed_the_topology() {
        let mut d = Directory::new().with_te(te_diamond());
        let q = TeQuery {
            k: 2,
            ..TeQuery::default()
        };
        let routes = d.te_query(0, crate::Peer::Host(9), &q);
        assert_eq!(routes.len(), 2);
        assert_eq!(d.te_queries, 1);
        assert_eq!(d.te_routes_returned, 2);

        // A load report reaches the TE view and bumps the epoch …
        let e = d.topology_epoch();
        d.report_load(1, 0, 0.95);
        assert!(d.topology_epoch() > e, "weight change bumps the epoch");

        // … so an avoid-congested query detours around the hot trunk.
        let q = TeQuery {
            k: 1,
            avoid_congested: true,
            ..TeQuery::default()
        };
        let routes = d.te_query(0, crate::Peer::Host(9), &q);
        assert_eq!(routes.len(), 1);
        assert_eq!(routes[0].congested_hops, 0);
        assert!(d.te_detours >= 1);

        // A down report removes the arm entirely.
        d.report_down(0, 1);
        d.report_down(1, 0);
        let routes = d.te_query(0, crate::Peer::Host(9), &TeQuery::default());
        assert!(routes.is_empty());
        assert_eq!(d.te_infeasible, 1);
    }

    #[test]
    fn te_advisories_mint_tokens_and_carry_residual() {
        let minter = TokenMinter::new(0xFEED_FACE, 3);
        let key = minter.router_key(0);
        let mut d = Directory::new()
            .with_te(te_diamond())
            .with_tokens(TokenIssue {
                minter,
                max_priority: Priority::new(5),
                reverse_ok: true,
                byte_limit: 0,
                expiry_s: 0,
            });
        d.te_mut().set_load_milli(0, 0, 250);
        let q = TeQuery {
            k: 1,
            ..TeQuery::default()
        };
        let advs = d.te_advisories(0, crate::Peer::Host(9), &q, &access(), &[7], 42);
        assert_eq!(advs.len(), 1);
        let adv = &advs[0];
        assert_eq!(adv.route.hops.len(), 3, "one HopSpec per transit hop");
        assert_eq!(adv.tokens.len(), 3, "one token per hop (§5)");
        assert_eq!(adv.residual_bps, 7_500_000, "10 Mb/s × 0.75 bottleneck");
        assert_eq!(adv.route.endpoint_selector, vec![7]);
        let b = key.unseal(&adv.tokens[0]).unwrap();
        assert_eq!(b.account, 42);
        assert_eq!(b.port, adv.route.hops[0].port);
    }

    /// One report on one declared link reaches every consumer of the
    /// link map at once: registered-route queries, TE advisories, and
    /// epoch-keyed client caches.
    #[test]
    fn one_report_is_seen_by_query_te_advisories_and_caches() {
        let (client, service) = names();
        let mut d = Directory::new().with_te(te_diamond());
        let k2 = TeQuery {
            k: 2,
            ..TeQuery::default()
        };
        let advs = d.te_advisories(0, crate::Peer::Host(9), &k2, &access(), &[], 1);
        assert_eq!(advs.len(), 2);
        let (fast, slow) = (advs[0].route.clone(), advs[1].route.clone());
        assert_eq!(fast.hops[1].router_id, 1, "fast arm crosses router 1");
        d.register_route(&service, Name::root(), fast.clone());
        d.register_route(&service, Name::root(), slow.clone());
        let mut cache = crate::RouteCache::new(SimDuration::from_secs(3600));
        cache.put(service.clone(), advs, SimTime::ZERO, d.topology_epoch());

        // Load on the fast arm's trunk: query() deprioritizes it, both
        // paths report the same load, and the cached set goes stale.
        d.report_load(1, 0, 0.95);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories[0].route, slow);
        assert_eq!(r.advisories[1].route, fast);
        let te = d.te_advisories(0, crate::Peer::Host(9), &k2, &access(), &[], 1);
        let te_fast = te.iter().find(|a| a.route == fast).unwrap();
        assert_eq!(te_fast.reported_load, r.advisories[1].reported_load);
        assert!((te_fast.reported_load - 0.95).abs() < 1e-9);
        assert!(cache
            .get(&service, SimTime(1), d.topology_epoch())
            .is_none());
        assert_eq!(cache.epoch_evictions, 1);

        // Failure of the same link: both paths drop the fast arm.
        d.report_down(1, 0);
        let r = d.query(&client, &service, Preference::LowDelay, 4, 1);
        assert_eq!(r.advisories.len(), 1);
        assert_eq!(r.advisories[0].route, slow);
        let te = d.te_advisories(0, crate::Peer::Host(9), &k2, &access(), &[], 1);
        assert_eq!(te.len(), 1);
        assert_eq!(te[0].route, slow);
    }

    #[test]
    fn te_counters_publish_under_registered_names() {
        let mut d = Directory::new().with_te(te_diamond());
        d.te_query(0, crate::Peer::Host(9), &TeQuery::default());
        let mut reg = Registry::new();
        d.publish_telemetry(&mut reg).unwrap();
        assert_eq!(reg.counter("te_queries_total"), 1);
        assert_eq!(reg.counter("te_routes_returned_total"), 1);
    }

    #[test]
    fn attributes_are_stored_alongside_routes() {
        let mut d = Directory::new();
        let s = Name::parse("printsrv.cs.stanford.edu");
        d.set_attribute(&s, "protocol", "vmtp");
        d.set_attribute(&s, "owner", "csd-facilities");
        assert_eq!(d.attribute(&s, "protocol"), Some("vmtp"));
        assert_eq!(d.attribute(&s, "missing"), None);
    }

    #[test]
    fn billing_aggregates_router_ledgers() {
        let mut d = Directory::new();
        let mut l1 = Accounting::new();
        l1.charge(7, 1000);
        let mut l2 = Accounting::new();
        l2.charge(7, 500);
        l2.charge(8, 100);
        d.collect_accounting(&l1);
        d.collect_accounting(&l2);
        assert_eq!(d.billing.usage(7).bytes, 1500);
        assert_eq!(d.billing.usage(8).packets, 1);
    }
}
