//! Alternate-DAG computation at route-grant time (Slick-Packets style).
//!
//! When the directory grants a route it can also *protect* it
//! ([`TeTopology::protect`], on the directory's one link map): for each
//! transit hop it looks for a detour — a spare output port at that hop's
//! router whose link lands back on a later router of the same route (or
//! directly on the destination) — and encodes it as an
//! [`AltBranch`]: the alternate output port plus a splice index into the
//! route's canonical **recovery list**.
//!
//! The recovery list is the primary route's own tail: entry `t` is the
//! segment the route would execute at its `t+2`-nd router, and the final
//! entry is the local terminator. Landing on router `Pⱼ` therefore
//! splices at index `j-1`; landing directly on the destination splices
//! at the last (local) entry. Because every detour rejoins *strictly
//! later* on the primary path, the resulting structure is a depth-1 DAG:
//! recovery segments never branch again, exactly what the wire format
//! admits.
//!
//! Disjointness: a detour never reuses the protected hop's own link
//! (the spare port is required to differ), and when topology admits it
//! the detour also avoids the protected hop's *peer router* — rejoining
//! at the hop after next or later — so a single branch covers both the
//! link-down and the router-down failure of the hop it protects.

use sirpent_wire::viper::AltBranch;

use crate::route::RouteRecord;
use crate::te::{Peer, TeTopology};

impl TeTopology {
    /// Compute one alternate branch per hop of `route`, where the
    /// topology admits one. The result is parallel to `route.hops`;
    /// `None` means the hop is unprotectable (no spare port rejoins the
    /// route). `dest` is the host the route terminates on.
    ///
    /// Candidate detours at hop `i` are ranked: router-disjoint rejoins
    /// (skipping the hop's peer entirely) beat parallel-link rejoins,
    /// earlier rejoins beat later ones, and the lowest spare port wins
    /// ties — a total order, so grants are reproducible.
    pub fn protect(&self, route: &RouteRecord, dest: u32) -> Vec<Option<AltBranch>> {
        let n = route.hops.len();
        route
            .hops
            .iter()
            .enumerate()
            .map(|(i, hop)| {
                let mut best: Option<(bool, usize, u8)> = None;
                for (&(router, port), link) in self.links.range((hop.router_id, 0)..) {
                    if router != hop.router_id {
                        break;
                    }
                    if port == hop.port {
                        continue; // the link being protected
                    }
                    // Where would this spare port rejoin the route, and
                    // does the rejoin skip the protected hop's immediate
                    // peer? (Landing on the destination skips it unless
                    // this *is* the final hop, whose peer is the
                    // destination itself — a parallel link is then the
                    // best possible cover.)
                    let candidate = match link.peer {
                        Peer::Host(h) if h == dest => Some((n - 1, i + 1 < n)),
                        Peer::Router(r) => route
                            .hops
                            .iter()
                            .enumerate()
                            .skip(i + 1)
                            .find(|(_, later)| later.router_id == r)
                            .map(|(j, _)| (j - 1, j >= i + 2)),
                        _ => None,
                    };
                    let Some((splice, skips_peer)) = candidate else {
                        continue;
                    };
                    let key = (!skips_peer, splice, port);
                    if best.map(|b| key < b).unwrap_or(true) {
                        best = Some(key);
                    }
                }
                best.map(|(_, splice, port)| AltBranch {
                    port,
                    splice: splice as u8,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{AccessSpec, HopSpec, Security};
    use crate::te::LinkMetrics;
    use sirpent_sim::SimDuration;

    fn hop(router: u32, port: u8) -> HopSpec {
        HopSpec {
            router_id: router,
            port,
            ethernet_next: None,
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(10),
            mtu: 1500,
            cost: 1,
            security: Security::Controlled,
        }
    }

    fn route(hops: Vec<HopSpec>) -> RouteRecord {
        RouteRecord {
            access: AccessSpec {
                host_port: 0,
                ethernet_next: None,
                bandwidth_bps: 10_000_000,
                prop_delay: SimDuration::from_micros(5),
                mtu: 1500,
            },
            hops,
            endpoint_selector: vec![],
        }
    }

    /// Chain 1→2→3→dst(9) with skip links 1→3 and a last-hop parallel
    /// link 3→dst: every hop gets a branch, and each one rejoins as
    /// early — and as disjointly — as the wiring allows.
    #[test]
    fn chain_with_skip_links_protects_every_hop() {
        let mut t = TeTopology::new();
        t.add_link(1, 2, Peer::Router(2), LinkMetrics::basic());
        t.add_link(2, 2, Peer::Router(3), LinkMetrics::basic());
        t.add_link(3, 2, Peer::Host(9), LinkMetrics::basic());
        t.add_link(1, 3, Peer::Router(3), LinkMetrics::basic()); // skip link over router 2
        t.add_link(2, 3, Peer::Host(9), LinkMetrics::basic()); // skip link over router 3
        t.add_link(3, 3, Peer::Host(9), LinkMetrics::basic()); // parallel last-hop link
        let r = route(vec![hop(1, 2), hop(2, 2), hop(3, 2)]);

        let branches = t.protect(&r, 9);
        assert_eq!(
            branches,
            vec![
                // Hop 0: skip router 2, land on router 3 → recovery[1].
                Some(AltBranch { port: 3, splice: 1 }),
                // Hop 1: skip router 3, land on dst → local entry.
                Some(AltBranch { port: 3, splice: 2 }),
                // Hop 2: parallel link to dst — link-disjoint cover.
                Some(AltBranch { port: 3, splice: 2 }),
            ]
        );
    }

    #[test]
    fn router_disjoint_detour_beats_parallel_link() {
        let mut t = TeTopology::new();
        t.add_link(1, 2, Peer::Router(2), LinkMetrics::basic());
        t.add_link(2, 2, Peer::Host(9), LinkMetrics::basic());
        // Port 3: a second wire to the same peer router (link-disjoint
        // only). Port 4: a skip wire straight to dst (router-disjoint).
        t.add_link(1, 3, Peer::Router(2), LinkMetrics::basic());
        t.add_link(1, 4, Peer::Host(9), LinkMetrics::basic());
        let r = route(vec![hop(1, 2), hop(2, 2)]);

        let branches = t.protect(&r, 9);
        assert_eq!(
            branches[0],
            Some(AltBranch { port: 4, splice: 1 }),
            "skipping the peer router wins even though port 3 sorts first"
        );
    }

    #[test]
    fn falls_back_to_parallel_link_when_no_disjoint_detour_exists() {
        let mut t = TeTopology::new();
        t.add_link(1, 2, Peer::Router(2), LinkMetrics::basic());
        t.add_link(1, 3, Peer::Router(2), LinkMetrics::basic()); // only a parallel wire
        t.add_link(2, 2, Peer::Host(9), LinkMetrics::basic());
        let r = route(vec![hop(1, 2), hop(2, 2)]);

        let branches = t.protect(&r, 9);
        assert_eq!(branches[0], Some(AltBranch { port: 3, splice: 0 }));
        assert_eq!(branches[1], None, "router 2 has no spare wire at all");
    }

    #[test]
    fn unrelated_and_backward_links_never_protect() {
        let mut t = TeTopology::new();
        t.add_link(1, 2, Peer::Router(2), LinkMetrics::basic());
        t.add_link(2, 2, Peer::Router(3), LinkMetrics::basic());
        t.add_link(3, 2, Peer::Host(9), LinkMetrics::basic());
        t.add_link(2, 3, Peer::Router(1), LinkMetrics::basic()); // backward — rejoins *earlier*
        t.add_link(2, 4, Peer::Router(77), LinkMetrics::basic()); // off-route router
        t.add_link(2, 5, Peer::Host(88), LinkMetrics::basic()); // some other host
        let r = route(vec![hop(1, 2), hop(2, 2), hop(3, 2)]);

        let branches = t.protect(&r, 9);
        assert_eq!(branches[1], None, "no forward rejoin from router 2");
    }

    #[test]
    fn zero_hop_route_has_nothing_to_protect() {
        let t = TeTopology::new();
        assert!(t.protect(&route(vec![]), 9).is_empty());
    }
}
