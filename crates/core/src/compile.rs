//! Compiling directory route records into wire-ready VIPER routes.
//!
//! The directory hands back [`sirpent_directory::RouteRecord`]s plus
//! per-hop tokens; the host compiles them into the segment chain that
//! actually rides at the front of each packet: one VIPER segment per
//! router hop (with the next network's Ethernet header in `portInfo`
//! where applicable, §2's running example), terminated by the local
//! segment carrying the intra-host endpoint selector (§2.2's unified
//! inter/intra-host addressing).

use sirpent_directory::{AccessSpec, RouteRecord};
use sirpent_sim::SimDuration;
use sirpent_wire::ethernet;
use sirpent_wire::viper::{AltBranch, Flags, Priority, SegmentRepr, ALT_SUFFIX_LEN, PORT_LOCAL};

/// A route ready to stamp onto packets.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledRoute {
    /// The host port to transmit on.
    pub host_port: u8,
    /// Ethernet header for the host's first hop, when the access network
    /// is an Ethernet.
    pub first_eth: Option<ethernet::Repr>,
    /// The VIPER segments, one per router, plus the final local segment.
    pub segments: Vec<SegmentRepr>,
    /// The recovery segment list for protected routes (empty when no hop
    /// carries an alternate branch): the route's own tail, which the
    /// per-segment splice indices point into. Rides between the header
    /// and the data on every packet stamped from this route.
    pub recovery: Vec<SegmentRepr>,
    /// Path MTU, known up front (§2: no MTU discovery needed).
    pub path_mtu: usize,
    /// Base round-trip estimate for a ~1 KB request / small reply.
    pub base_rtt: SimDuration,
    /// The routers traversed, for matching backpressure feedback.
    pub router_ids: Vec<u32>,
}

impl CompiledRoute {
    /// Compile a record with its (possibly empty) token list. `tokens`
    /// is parallel to `record.hops`; missing entries yield token-less
    /// segments.
    pub fn compile(record: &RouteRecord, tokens: &[Vec<u8>], priority: Priority) -> CompiledRoute {
        Self::compile_opts(record, tokens, priority, false)
    }

    /// Like [`CompiledRoute::compile`], but with the §2-footnote
    /// compressed Ethernet `portInfo` (destination + type only; each
    /// router fills in its own source address), saving 6 bytes per
    /// Ethernet hop.
    pub fn compile_opts(
        record: &RouteRecord,
        tokens: &[Vec<u8>],
        priority: Priority,
        compress_ethernet: bool,
    ) -> CompiledRoute {
        let mut segments = Vec::with_capacity(record.hops.len() + 1);
        for (i, hop) in record.hops.iter().enumerate() {
            let port_info = match hop.ethernet_next {
                Some(e) => {
                    let repr = ethernet::Repr {
                        src: e.src,
                        dst: e.dst,
                        ethertype: ethernet::EtherType::Sirpent,
                    };
                    if compress_ethernet {
                        repr.to_compressed_bytes()
                    } else {
                        repr.to_bytes()
                    }
                }
                None => Vec::new(),
            };
            segments.push(SegmentRepr {
                port: hop.port,
                flags: Flags {
                    vnt: port_info.is_empty(),
                    ..Default::default()
                },
                priority,
                port_token: tokens.get(i).cloned().unwrap_or_default(),
                port_info,
                alt: None,
            });
        }
        segments.push(SegmentRepr {
            port: PORT_LOCAL,
            priority,
            port_info: record.endpoint_selector.clone(),
            ..Default::default()
        });
        let props = record.properties();
        CompiledRoute {
            host_port: record.access.host_port,
            first_eth: record.access.ethernet_next.map(|e| ethernet::Repr {
                src: e.src,
                dst: e.dst,
                ethertype: ethernet::EtherType::Sirpent,
            }),
            segments,
            recovery: Vec::new(),
            path_mtu: props.mtu,
            base_rtt: record.base_rtt(1024, 64),
            router_ids: record.hops.iter().map(|h| h.router_id).collect(),
        }
    }

    /// Like [`CompiledRoute::compile`], but armed with directory-computed
    /// alternate branches (`branches` is parallel to `record.hops`, as
    /// produced by `sirpent_directory::TeTopology::protect`). Protected
    /// hops get their branch stamped into the segment, and the canonical
    /// recovery list — the route's own tail, ending in the local
    /// terminator — is attached for the splice indices to point into.
    /// When no hop has a branch the result is byte-identical to the
    /// unprotected compilation.
    pub fn compile_protected(
        record: &RouteRecord,
        tokens: &[Vec<u8>],
        priority: Priority,
        branches: &[Option<AltBranch>],
    ) -> CompiledRoute {
        let mut c = Self::compile(record, tokens, priority);
        if branches.iter().any(Option::is_some) {
            // Snapshot the tail *before* stamping branches: the recovery
            // list must stay branch-free.
            c.recovery = c.segments.iter().skip(1).cloned().collect();
            for (seg, br) in c.segments.iter_mut().zip(branches) {
                if br.is_some() {
                    seg.alt = *br;
                    // The alternate marker recycles the VNT/TREE flag
                    // bits on the wire; a protected segment cannot carry
                    // either hint.
                    seg.flags.vnt = false;
                    seg.flags.tree = false;
                }
            }
        }
        c
    }

    /// A direct route on the local network: no routers, just the access
    /// hop (the §6.2 "0 hops" case).
    pub fn direct(access: &AccessSpec, endpoint_selector: Vec<u8>) -> CompiledRoute {
        let record = RouteRecord {
            access: access.clone(),
            hops: Vec::new(),
            endpoint_selector,
        };
        CompiledRoute::compile(&record, &[], Priority::NORMAL)
    }

    /// Total VIPER header bytes this route adds to every packet — the
    /// quantity §6.2's overhead arithmetic is about. Protected routes
    /// pay for their recovery tail and the descriptor suffix on the
    /// local terminator too.
    pub fn header_bytes(&self) -> usize {
        let descriptor = if self.recovery.is_empty() {
            0
        } else {
            ALT_SUFFIX_LEN
        };
        self.segments
            .iter()
            .chain(&self.recovery)
            .map(|s| s.buffer_len())
            .sum::<usize>()
            + descriptor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirpent_directory::{EthernetHop, HopSpec, Security};

    fn access_p2p() -> AccessSpec {
        AccessSpec {
            host_port: 0,
            ethernet_next: None,
            bandwidth_bps: 10_000_000,
            prop_delay: SimDuration::from_micros(5),
            mtu: 1500,
        }
    }

    fn hop_p2p(router: u32, port: u8) -> HopSpec {
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

    #[test]
    fn compiles_hops_plus_local_segment() {
        let record = RouteRecord {
            access: access_p2p(),
            hops: vec![hop_p2p(1, 2), hop_p2p(2, 3)],
            endpoint_selector: vec![0xAB],
        };
        let c = CompiledRoute::compile(&record, &[], Priority::new(5));
        assert_eq!(c.segments.len(), 3);
        assert_eq!(c.segments[0].port, 2);
        assert!(c.segments[0].flags.vnt, "p2p hop: portInfo void");
        assert_eq!(c.segments[2].port, PORT_LOCAL);
        assert_eq!(c.segments[2].port_info, vec![0xAB]);
        assert_eq!(c.router_ids, vec![1, 2]);
        assert_eq!(c.host_port, 0);
        assert!(c.first_eth.is_none());
        // 2 × minimal 4-byte segments + local with 1-byte selector.
        assert_eq!(c.header_bytes(), 4 + 4 + 5);
    }

    #[test]
    fn ethernet_hops_carry_headers() {
        let e = EthernetHop {
            src: ethernet::Address::from_index(1),
            dst: ethernet::Address::from_index(2),
        };
        let record = RouteRecord {
            access: AccessSpec {
                ethernet_next: Some(e),
                ..access_p2p()
            },
            hops: vec![HopSpec {
                ethernet_next: Some(e),
                ..hop_p2p(1, 2)
            }],
            endpoint_selector: vec![],
        };
        let tok = vec![vec![9u8; 32]];
        let c = CompiledRoute::compile(&record, &tok, Priority::NORMAL);
        assert_eq!(c.first_eth.unwrap().dst, e.dst);
        assert_eq!(c.segments[0].port_info.len(), 14);
        assert!(!c.segments[0].flags.vnt);
        assert_eq!(c.segments[0].port_token, vec![9u8; 32]);
        // §6.2: "a VIPER header plus Ethernet header" = 18 bytes…
        // plus the 32-byte token when authorization is in use.
        assert_eq!(c.segments[0].buffer_len(), 18 + 32);
    }

    #[test]
    fn protected_compile_arms_branches_and_recovery_tail() {
        let record = RouteRecord {
            access: access_p2p(),
            hops: vec![hop_p2p(1, 2), hop_p2p(2, 2), hop_p2p(3, 2)],
            endpoint_selector: vec![0xAB],
        };
        let branches = vec![
            Some(AltBranch { port: 3, splice: 1 }),
            None,
            Some(AltBranch { port: 3, splice: 2 }),
        ];
        let c = CompiledRoute::compile_protected(&record, &[], Priority::NORMAL, &branches);
        assert_eq!(c.segments[0].alt, branches[0]);
        assert_eq!(c.segments[1].alt, None);
        assert_eq!(c.segments[2].alt, branches[2]);
        assert!(
            !c.segments[0].flags.vnt,
            "marker recycles the flag bits; hint cleared"
        );
        // Recovery = the route's own tail: hops 2 and 3, then local.
        assert_eq!(c.recovery.len(), 3);
        assert_eq!(c.recovery[0].port, 2);
        assert!(c.recovery.iter().all(|s| s.alt.is_none()));
        assert_eq!(c.recovery[2].port, PORT_LOCAL);
        assert_eq!(c.recovery[2].port_info, vec![0xAB]);
        // 3 transit segments (one carrying two 2-byte branch suffixes
        // between them... exactly two of the three) + local w/ selector,
        // plus the recovery tail and the 2-byte descriptor.
        let base = 4 + 4 + 4 + 5;
        let tail = 4 + 4 + 5;
        assert_eq!(c.header_bytes(), base + 2 * ALT_SUFFIX_LEN + tail + 2);

        // A packet stamped from it round-trips, descriptor normalized.
        let pkt = sirpent_wire::packet::PacketBuilder::new()
            .route(c.segments.clone())
            .recovery(c.recovery.clone())
            .payload(vec![1, 2, 3])
            .build()
            .unwrap();
        let v = sirpent_wire::packet::PacketView::parse(&pkt).unwrap();
        assert_eq!(v.route, c.segments);
        assert_eq!(v.recovery, c.recovery);

        // No branches → identical to the plain compilation.
        let plain = CompiledRoute::compile(&record, &[], Priority::NORMAL);
        let unarmed = CompiledRoute::compile_protected(&record, &[], Priority::NORMAL, &[None; 3]);
        assert_eq!(plain, unarmed);
    }

    #[test]
    fn direct_route_is_local_only() {
        let c = CompiledRoute::direct(&access_p2p(), vec![7]);
        assert_eq!(c.segments.len(), 1);
        assert_eq!(c.segments[0].port, PORT_LOCAL);
        assert!(c.router_ids.is_empty());
        assert_eq!(c.path_mtu, 1500);
    }
}
