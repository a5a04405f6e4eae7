//! The VMTP-like transport endpoint.
//!
//! Ties together the §4 obligations: 64-bit entity identifiers reject
//! misdelivered packets (§4.1 — Sirpent's checksum-free network may
//! misroute), creation timestamps bound packet lifetime (§4.2), and
//! packet groups with selective retransmission move fragmentation out of
//! the network (§4.3). Transmission is paced by [`crate::rate::RatePacer`]
//! ("rate-based flow control is used between packets within a packet
//! group to avoid overruns").
//!
//! The endpoint is a pure state machine: the owning host node feeds it
//! packets and timer ticks and executes the [`Action`]s it returns
//! (transmissions carry explicit due times for the host to schedule).

use std::collections::{HashMap, HashSet};

use sirpent_sim::SimTime;
use sirpent_wire::vmtp::{EntityId, Header, Kind, Packet};

use crate::clock::HostClock;
use crate::group::{GroupReceiver, GroupSender};
use crate::lifetime::{LifetimeFilter, LifetimeReject};
use crate::rate::RatePacer;

/// Something the host must do on the endpoint's behalf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Put this VMTP packet on the wire (inside a routed Sirpent packet)
    /// at `at`.
    Transmit {
        /// Pacer-assigned departure time.
        at: SimTime,
        /// Serialized VMTP packet.
        bytes: Vec<u8>,
    },
    /// A complete message arrived.
    Deliver {
        /// The sending entity.
        peer: EntityId,
        /// Transaction id.
        transaction: u32,
        /// Request or response.
        kind: Kind,
        /// The reassembled message.
        message: Vec<u8>,
    },
    /// A transaction's packet group is fully acknowledged.
    SendComplete {
        /// The transaction.
        transaction: u32,
    },
    /// A request already delivered was received again — the peer
    /// evidently lacks our response; the application layer should
    /// re-send it (VMTP servers retain responses for exactly this).
    ReplayedRequest {
        /// The requesting entity.
        peer: EntityId,
        /// The transaction being replayed.
        transaction: u32,
    },
}

/// Why incoming packets were rejected.
#[derive(Debug, Default, Clone)]
pub struct TransportStats {
    /// End-to-end checksum failures (corruption caught here, not in the
    /// network — §4.1).
    pub checksum_rejected: u64,
    /// Structurally unparseable packets.
    pub malformed: u64,
    /// Packets whose 64-bit destination entity wasn't us (§4.1
    /// misdelivery detection).
    pub misdelivered: u64,
    /// Packets discarded by the lifetime filter (§4.2), by reason.
    pub lifetime_rejected: HashMap<&'static str, u64>,
    /// Duplicate group members / replays.
    pub duplicates: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Data packets retransmitted selectively.
    pub retransmissions: u64,
    /// Acks emitted.
    pub acks_sent: u64,
}

struct Outgoing {
    dst: EntityId,
    kind: Kind,
    group: GroupSender,
    done: bool,
}

/// Configuration of one endpoint.
pub struct EndpointConfig {
    /// Our 64-bit identity.
    pub entity: EntityId,
    /// Our host clock.
    pub clock: HostClock,
    /// The receive-side lifetime filter.
    pub lifetime: LifetimeFilter,
    /// Payload bytes per group member (chosen from the route MTU —
    /// "roughly 1 kilobyte transport packet", §5).
    pub seg_size: usize,
    /// Sender pacing.
    pub pacer: RatePacer,
}

/// The transport endpoint state machine.
pub struct Endpoint {
    entity: EntityId,
    clock: HostClock,
    lifetime: LifetimeFilter,
    seg_size: usize,
    /// The pacer, public for backpressure/loss feedback wiring.
    pub pacer: RatePacer,
    outgoing: HashMap<u32, Outgoing>,
    incoming: HashMap<(EntityId, u32, u8), GroupReceiver>,
    completed: HashSet<(EntityId, u32, u8)>,
    /// Counters.
    pub stats: TransportStats,
}

fn kind_tag(k: Kind) -> u8 {
    match k {
        Kind::Request => 1,
        Kind::Response => 2,
        Kind::Ack => 3,
    }
}

impl Endpoint {
    /// Create an endpoint.
    pub fn new(cfg: EndpointConfig) -> Endpoint {
        assert!(cfg.seg_size > 0);
        Endpoint {
            entity: cfg.entity,
            clock: cfg.clock,
            lifetime: cfg.lifetime,
            seg_size: cfg.seg_size,
            pacer: cfg.pacer,
            outgoing: HashMap::new(),
            incoming: HashMap::new(),
            completed: HashSet::new(),
            stats: TransportStats::default(),
        }
    }

    /// Our identity.
    pub fn entity(&self) -> EntityId {
        self.entity
    }

    /// Mutable access to the clock (sync service integration).
    pub fn clock_mut(&mut self) -> &mut HostClock {
        &mut self.clock
    }

    #[allow(clippy::too_many_arguments)]
    fn packet_bytes(
        &mut self,
        dst: EntityId,
        transaction: u32,
        kind: Kind,
        group_size: u8,
        group_index: u8,
        delivery_mask: u32,
        message_len: u32,
        payload: &[u8],
        now: SimTime,
    ) -> Vec<u8> {
        let header = Header {
            src: self.entity,
            dst,
            transaction,
            kind,
            group_size,
            group_index,
            delivery_mask,
            message_len,
            payload_len: payload.len() as u16,
        };
        Packet {
            header,
            payload: payload.to_vec(),
            timestamp: self.clock.now_ms(now),
        }
        .to_bytes()
        .expect("consistent header")
    }

    /// Send a message as one packet group. Returns paced `Transmit`
    /// actions for every member. Fails (None) when the message exceeds
    /// 32 segments — split across transactions above.
    pub fn send_message(
        &mut self,
        now: SimTime,
        dst: EntityId,
        transaction: u32,
        kind: Kind,
        data: &[u8],
    ) -> Option<Vec<Action>> {
        let group = GroupSender::split(data, self.seg_size)?;
        let n = group.group_size();
        let mlen = group.message_len() as u32;
        let mut actions = Vec::with_capacity(n);
        for i in 0..n {
            let seg = group.segment(i).to_vec();
            let at = self.pacer.schedule(now, seg.len() + 50);
            let bytes =
                self.packet_bytes(dst, transaction, kind, n as u8, i as u8, 0, mlen, &seg, at);
            actions.push(Action::Transmit { at, bytes });
        }
        self.outgoing.insert(
            transaction,
            Outgoing {
                dst,
                kind,
                group,
                done: false,
            },
        );
        Some(actions)
    }

    /// Re-send the final member of a (possibly fully acknowledged)
    /// group as a **probe**: the receiver deduplicates it, re-acks, and
    /// — for requests — reports the replay so the response can be
    /// re-sent. This is how a client recovers when its request got
    /// through but the response was lost.
    pub fn probe(&mut self, now: SimTime, transaction: u32) -> Vec<Action> {
        let Some(o) = self.outgoing.get(&transaction) else {
            return Vec::new();
        };
        let i = o.group.group_size() - 1;
        let dst = o.dst;
        let kind = o.kind;
        let n = o.group.group_size() as u8;
        let mlen = o.group.message_len() as u32;
        let seg = o.group.segment(i).to_vec();
        let at = self.pacer.schedule(now, seg.len() + 50);
        let bytes = self.packet_bytes(dst, transaction, kind, n, i as u8, 0, mlen, &seg, at);
        self.stats.retransmissions += 1;
        vec![Action::Transmit { at, bytes }]
    }

    /// Which members of `transaction` remain unacknowledged.
    pub fn unacked(&self, transaction: u32) -> Option<Vec<usize>> {
        let o = self.outgoing.get(&transaction)?;
        let mut g = o.group.clone();
        Some(g.on_ack(0))
    }

    /// A retransmission timer fired for `transaction`: resend every
    /// unacknowledged member (selective, §4.3).
    pub fn on_retransmit_timer(&mut self, now: SimTime, transaction: u32) -> Vec<Action> {
        let Some(o) = self.outgoing.get(&transaction) else {
            return Vec::new();
        };
        if o.done {
            return Vec::new();
        }
        let missing = {
            let mut g = o.group.clone();
            g.on_ack(0)
        };
        let dst = o.dst;
        let kind = o.kind;
        let n = o.group.group_size() as u8;
        let mlen = o.group.message_len() as u32;
        let mut actions = Vec::new();
        for i in missing {
            let seg = self.outgoing[&transaction].group.segment(i).to_vec();
            let at = self.pacer.schedule(now, seg.len() + 50);
            let bytes = self.packet_bytes(dst, transaction, kind, n, i as u8, 0, mlen, &seg, at);
            self.stats.retransmissions += 1;
            actions.push(Action::Transmit { at, bytes });
        }
        actions
    }

    fn make_ack(
        &mut self,
        now: SimTime,
        peer: EntityId,
        transaction: u32,
        group_size: u8,
        mask: u32,
    ) -> Action {
        let at = now; // acks are not paced: they are small and urgent
        let bytes = self.packet_bytes(
            peer,
            transaction,
            Kind::Ack,
            group_size,
            0,
            mask,
            0,
            &[],
            now,
        );
        self.stats.acks_sent += 1;
        Action::Transmit { at, bytes }
    }

    /// Process one arriving VMTP packet still held in a shared
    /// [`PacketBuf`](sirpent_wire::buf::PacketBuf) — the zero-copy path
    /// from the host's Sirpent unwrap. No bytes are copied: the parse
    /// borrows the buffer's payload window directly.
    pub fn on_packet_buf(
        &mut self,
        now: SimTime,
        packet: &sirpent_wire::buf::PacketBuf,
    ) -> Vec<Action> {
        self.on_packet(now, packet.as_slice())
    }

    /// Process one arriving VMTP packet (already unwrapped from its
    /// Sirpent packet by the host).
    pub fn on_packet(&mut self, now: SimTime, bytes: &[u8]) -> Vec<Action> {
        let pkt = match Packet::parse(bytes) {
            Ok(p) => p,
            Err(sirpent_wire::Error::Checksum) => {
                self.stats.checksum_rejected += 1;
                return Vec::new();
            }
            Err(_) => {
                self.stats.malformed += 1;
                return Vec::new();
            }
        };
        // §4.1: the 64-bit entity id is the sole delivery check.
        if pkt.header.dst != self.entity {
            self.stats.misdelivered += 1;
            return Vec::new();
        }
        // §4.2: lifetime enforcement from the creation timestamp.
        let local_now = self.clock.now_ms(now);
        if let Err(why) = self.lifetime.accept(local_now, pkt.timestamp) {
            let key = match why {
                LifetimeReject::TooOld => "too_old",
                LifetimeReject::FromFuture => "from_future",
                LifetimeReject::PreBoot => "pre_boot",
            };
            *self.stats.lifetime_rejected.entry(key).or_insert(0) += 1;
            return Vec::new();
        }

        match pkt.header.kind {
            Kind::Ack => {
                let txn = pkt.header.transaction;
                let Some(o) = self.outgoing.get_mut(&txn) else {
                    return Vec::new();
                };
                let missing = o.group.on_ack(pkt.header.delivery_mask);
                if missing.is_empty() && !o.done {
                    o.done = true;
                    return vec![Action::SendComplete { transaction: txn }];
                }
                Vec::new()
            }
            kind @ (Kind::Request | Kind::Response) => {
                let peer = pkt.header.src;
                let txn = pkt.header.transaction;
                let key = (peer, txn, kind_tag(kind));
                if self.completed.contains(&key) {
                    // Replay of a finished message: re-ack, don't
                    // re-deliver — but surface replayed *requests* so the
                    // application can re-send its response.
                    self.stats.duplicates += 1;
                    let full = GroupSender::full_mask(pkt.header.group_size as usize);
                    let mut acts = vec![self.make_ack(now, peer, txn, pkt.header.group_size, full)];
                    if kind == Kind::Request {
                        acts.push(Action::ReplayedRequest {
                            peer,
                            transaction: txn,
                        });
                    }
                    return acts;
                }
                let recv = self.incoming.entry(key).or_insert_with(|| {
                    GroupReceiver::new(
                        pkt.header.group_size as usize,
                        pkt.header.message_len as usize,
                    )
                });
                let before = recv.duplicates;
                let completed = recv.push(pkt.header.group_index as usize, &pkt.payload);
                let mask = recv.delivery_mask();
                self.stats.duplicates += (recv.duplicates - before) as u64;

                let mut actions = Vec::new();
                match completed {
                    Some(message) => {
                        self.incoming.remove(&key);
                        self.completed.insert(key);
                        self.stats.delivered += 1;
                        actions.push(self.make_ack(now, peer, txn, pkt.header.group_size, mask));
                        actions.push(Action::Deliver {
                            peer,
                            transaction: txn,
                            kind,
                            message,
                        });
                    }
                    None => {
                        // Ack on the last member even when incomplete —
                        // this is what triggers selective retransmission.
                        if pkt.header.group_index + 1 == pkt.header.group_size {
                            actions.push(self.make_ack(
                                now,
                                peer,
                                txn,
                                pkt.header.group_size,
                                mask,
                            ));
                        }
                    }
                }
                actions
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirpent_sim::SimDuration;

    fn endpoint(id: u64) -> Endpoint {
        Endpoint::new(EndpointConfig {
            entity: EntityId(id),
            clock: HostClock::perfect(1_000_000),
            lifetime: LifetimeFilter::steady(60_000, 5_000),
            seg_size: 512,
            pacer: RatePacer::new(8_000_000, 100_000, 8_000_000),
        })
    }

    /// Carry every Transmit action from one endpoint into the other,
    /// returning non-transmit actions produced on both sides.
    fn exchange(
        from: &mut Endpoint,
        to: &mut Endpoint,
        actions: Vec<Action>,
        now: SimTime,
        drop: &dyn Fn(usize) -> bool,
    ) -> (Vec<Action>, Vec<Action>) {
        let mut to_side = Vec::new();
        let mut back_side = Vec::new();
        let mut replies = Vec::new();
        for (i, a) in actions.into_iter().enumerate() {
            if let Action::Transmit { bytes, .. } = a {
                if drop(i) {
                    continue;
                }
                let out = to.on_packet(now, &bytes);
                for r in out {
                    match r {
                        Action::Transmit { bytes, .. } => replies.push(bytes),
                        other => to_side.push(other),
                    }
                }
            }
        }
        for bytes in replies {
            for r in from.on_packet(now, &bytes) {
                match r {
                    Action::Transmit { .. } => {}
                    other => back_side.push(other),
                }
            }
        }
        (to_side, back_side)
    }

    #[test]
    fn single_packet_message_roundtrip() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 7, Kind::Request, b"hello")
            .unwrap();
        assert_eq!(acts.len(), 1);
        let (delivered, complete) = exchange(&mut a, &mut b, acts, SimTime(1000), &|_| false);
        assert_eq!(
            delivered,
            vec![Action::Deliver {
                peer: EntityId(1),
                transaction: 7,
                kind: Kind::Request,
                message: b"hello".to_vec(),
            }]
        );
        assert_eq!(complete, vec![Action::SendComplete { transaction: 7 }]);
        assert_eq!(b.stats.delivered, 1);
    }

    #[test]
    fn group_is_paced() {
        let mut a = endpoint(1);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 1, Kind::Request, &[0u8; 2048])
            .unwrap();
        assert_eq!(acts.len(), 4, "2048/512 = 4 members");
        let times: Vec<SimTime> = acts
            .iter()
            .map(|a| match a {
                Action::Transmit { at, .. } => *at,
                _ => panic!(),
            })
            .collect();
        for w in times.windows(2) {
            let gap = w[1] - w[0];
            // 562 bytes at 8 Mb/s = 562 µs.
            assert_eq!(gap, SimDuration::from_micros(562));
        }
    }

    #[test]
    fn selective_retransmission_recovers_losses() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let msg: Vec<u8> = (0..1500u32).map(|i| i as u8).collect();
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 9, Kind::Request, &msg)
            .unwrap();
        assert_eq!(acts.len(), 3);
        // Drop the middle member.
        let (delivered, _) = exchange(&mut a, &mut b, acts, SimTime(1000), &|i| i == 1);
        assert!(delivered.is_empty(), "incomplete without member 1");
        // The ack on the final member told A exactly what's missing.
        assert_eq!(a.unacked(9).unwrap(), vec![1]);
        // Retransmit: only one packet goes out.
        let re = a.on_retransmit_timer(SimTime(2000), 9);
        assert_eq!(re.len(), 1);
        assert_eq!(a.stats.retransmissions, 1);
        let (delivered, complete) = exchange(&mut a, &mut b, re, SimTime(3000), &|_| false);
        match &delivered[..] {
            [Action::Deliver { message, .. }] => assert_eq!(message, &msg),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(complete, vec![Action::SendComplete { transaction: 9 }]);
    }

    #[test]
    fn misdelivered_packet_rejected_by_entity_id() {
        let mut a = endpoint(1);
        let mut c = endpoint(3); // not the addressee
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 1, Kind::Request, b"x")
            .unwrap();
        let Action::Transmit { bytes, .. } = &acts[0] else {
            panic!()
        };
        assert!(c.on_packet(SimTime(1), bytes).is_empty());
        assert_eq!(c.stats.misdelivered, 1, "§4.1 misdelivery detection");
    }

    #[test]
    fn corrupted_packet_rejected_by_checksum() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 1, Kind::Request, b"data!")
            .unwrap();
        let Action::Transmit { bytes, .. } = &acts[0] else {
            panic!()
        };
        let mut corrupt = bytes.clone();
        let n = corrupt.len();
        corrupt[n / 2] ^= 0xFF;
        assert!(b.on_packet(SimTime(1), &corrupt).is_empty());
        assert!(b.stats.checksum_rejected + b.stats.malformed >= 1);
    }

    #[test]
    fn stale_packet_rejected_by_lifetime() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 1, Kind::Request, b"old")
            .unwrap();
        let Action::Transmit { bytes, .. } = &acts[0] else {
            panic!()
        };
        // Deliver 10 minutes later (MPL is 60 s).
        let late = SimTime::ZERO + SimDuration::from_secs(600);
        assert!(b.on_packet(late, bytes).is_empty());
        assert_eq!(b.stats.lifetime_rejected["too_old"], 1);
    }

    #[test]
    fn replayed_message_reacked_not_redelivered() {
        let mut a = endpoint(1);
        let mut b = endpoint(2);
        let acts = a
            .send_message(SimTime::ZERO, EntityId(2), 4, Kind::Request, b"once")
            .unwrap();
        let Action::Transmit { bytes, .. } = &acts[0] else {
            panic!()
        };
        let first = b.on_packet(SimTime(1), bytes);
        assert!(first.iter().any(|x| matches!(x, Action::Deliver { .. })));
        // Replay (e.g. a duplicate in the network).
        let again = b.on_packet(SimTime(2), bytes);
        assert!(
            again
                .iter()
                .all(|x| matches!(x, Action::Transmit { .. } | Action::ReplayedRequest { .. })),
            "re-ack plus replay notice: {again:?}"
        );
        assert!(again
            .iter()
            .any(|x| matches!(x, Action::ReplayedRequest { transaction: 4, .. })));
        assert_eq!(b.stats.delivered, 1);
        assert_eq!(b.stats.duplicates, 1);
    }

    #[test]
    fn oversized_message_refused() {
        let mut a = endpoint(1);
        assert!(a
            .send_message(
                SimTime::ZERO,
                EntityId(2),
                1,
                Kind::Request,
                &vec![0u8; 512 * 33],
            )
            .is_none());
    }
}
