//! Link-layer framing shared by all node types.
//!
//! On a **point-to-point** link the paper says "the initial header
//! segment format is implicit from the network type" (§2); since our
//! point-to-point links carry several protocols (Sirpent, the rate-
//! control feedback, and the IP/CVC baselines), we concretize that with a
//! one-byte protocol tag, plus — for Sirpent frames — the one-byte
//! **feed-forward** queue hint of §2.2 ("packets include information on
//! the number of packets queued behind them at their previous router").
//!
//! On an **Ethernet**, the standard 14-byte header carries the protocol
//! tag in its type field, exactly as the paper's running example; the
//! feed-forward shim is also present after the Ethernet header for
//! Sirpent frames, so hints survive multi-access hops too.

use sirpent_wire::buf::{FrameBuf, PacketBuf};
use sirpent_wire::ethernet;
use sirpent_wire::{Error, Result};

/// Protocol tag values on point-to-point links.
mod proto {
    pub const SIRPENT: u8 = 1;
    pub const RATE_CONTROL: u8 = 2;
    pub const IPISH: u8 = 3;
    pub const CVC: u8 = 4;
}

/// An upstream rate-limit directive (§2.2): the congested router tells
/// the routers feeding one of its output queues to slow packets headed
/// for that queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateControlMsg {
    /// The congested router's id.
    pub congested_router: u32,
    /// The congested **output port** at that router; upstream routers
    /// classify traffic for this queue by peeking the next header
    /// segment's port field ("the upstream routers have access to the
    /// source route on each packet").
    pub congested_port: u8,
    /// The rate the feeder is allowed to send toward that queue, in
    /// bits/sec. Zero means "stop entirely".
    pub allowed_bps: u64,
    /// How many queue slots are currently occupied — lets sources and
    /// feeders estimate severity.
    pub queue_len: u16,
}

impl RateControlMsg {
    /// Serialized size.
    pub const LEN: usize = 4 + 1 + 8 + 2;

    fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.congested_router.to_be_bytes());
        out.push(self.congested_port);
        out.extend_from_slice(&self.allowed_bps.to_be_bytes());
        out.extend_from_slice(&self.queue_len.to_be_bytes());
    }

    fn parse(b: &[u8]) -> Result<RateControlMsg> {
        if b.len() < Self::LEN {
            return Err(Error::Truncated);
        }
        Ok(RateControlMsg {
            congested_router: u32::from_be_bytes(b[0..4].try_into().unwrap()),
            congested_port: b[4],
            allowed_bps: u64::from_be_bytes(b[5..13].try_into().unwrap()),
            queue_len: u16::from_be_bytes(b[13..15].try_into().unwrap()),
        })
    }
}

/// A decoded link frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkFrame {
    /// A Sirpent packet with its feed-forward hint (sender's queue
    /// length behind this packet, saturating at 255).
    Sirpent {
        /// Queue occupancy behind this packet at the previous router.
        ff_hint: u8,
        /// The Sirpent packet bytes (header segments … trailer), shared
        /// so framing for transmit never copies the packet body.
        packet: PacketBuf,
    },
    /// Rate-control feedback.
    RateControl(RateControlMsg),
    /// An IP-like baseline datagram.
    Ipish(Vec<u8>),
    /// A CVC baseline message.
    Cvc(Vec<u8>),
}

impl LinkFrame {
    /// Encode for a point-to-point link.
    pub fn to_p2p_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        match self {
            LinkFrame::Sirpent { ff_hint, packet } => {
                v.push(proto::SIRPENT);
                v.push(*ff_hint);
                v.extend_from_slice(packet.as_slice());
            }
            LinkFrame::RateControl(m) => {
                v.push(proto::RATE_CONTROL);
                m.emit(&mut v);
            }
            LinkFrame::Ipish(d) => {
                v.push(proto::IPISH);
                v.extend_from_slice(d);
            }
            LinkFrame::Cvc(d) => {
                v.push(proto::CVC);
                v.extend_from_slice(d);
            }
        }
        v
    }

    /// Decode from a point-to-point link.
    pub fn from_p2p_bytes(b: &[u8]) -> Result<LinkFrame> {
        if b.is_empty() {
            return Err(Error::Truncated);
        }
        match b[0] {
            proto::SIRPENT => {
                if b.len() < 2 {
                    return Err(Error::Truncated);
                }
                Ok(LinkFrame::Sirpent {
                    ff_hint: b[1],
                    packet: PacketBuf::from(&b[2..]),
                })
            }
            proto::RATE_CONTROL => Ok(LinkFrame::RateControl(RateControlMsg::parse(&b[1..])?)),
            proto::IPISH => Ok(LinkFrame::Ipish(b[1..].to_vec())),
            proto::CVC => Ok(LinkFrame::Cvc(b[1..].to_vec())),
            _ => Err(Error::Malformed),
        }
    }

    /// Encode for a point-to-point link without copying the packet body:
    /// the 2-byte link header goes in the frame's owned header, the
    /// Sirpent packet rides as the shared body.
    pub fn to_p2p_frame(&self) -> FrameBuf {
        match self {
            LinkFrame::Sirpent { ff_hint, packet } => {
                FrameBuf::new(vec![proto::SIRPENT, *ff_hint], packet.clone())
            }
            other => FrameBuf::from(other.to_p2p_bytes()),
        }
    }

    /// Encode for a point-to-point link, consuming the frame. The
    /// Sirpent arm shares the packet body like [`Self::to_p2p_frame`];
    /// the Ipish/Cvc arms *move* their owned bytes into the frame body
    /// — the tag rides in the 1-byte owned header, so the baseline
    /// routers' per-hop transmit copies nothing either.
    pub fn into_p2p_frame(self) -> FrameBuf {
        match self {
            LinkFrame::Sirpent { ff_hint, packet } => {
                FrameBuf::new(vec![proto::SIRPENT, ff_hint], packet)
            }
            LinkFrame::Ipish(d) => FrameBuf::new(vec![proto::IPISH], PacketBuf::from_vec(d)),
            LinkFrame::Cvc(d) => FrameBuf::new(vec![proto::CVC], PacketBuf::from_vec(d)),
            other => FrameBuf::from(other.to_p2p_bytes()),
        }
    }

    /// Decode from a point-to-point frame. The Sirpent arm is zero-copy:
    /// the returned packet shares the frame's body store. The Ipish/Cvc
    /// arms copy their owned payload exactly once (they are mutated
    /// in place by the receiving router), never the whole frame.
    pub fn from_p2p_frame(f: &FrameBuf) -> Result<LinkFrame> {
        match f.byte(0).ok_or(Error::Truncated)? {
            proto::SIRPENT => {
                let ff_hint = f.byte(1).ok_or(Error::Truncated)?;
                let packet = f.strip_header(2).ok_or(Error::Truncated)?;
                Ok(LinkFrame::Sirpent { ff_hint, packet })
            }
            proto::IPISH => {
                let body = f.strip_header(1).ok_or(Error::Truncated)?;
                Ok(LinkFrame::Ipish(body.to_vec()))
            }
            proto::CVC => {
                let body = f.strip_header(1).ok_or(Error::Truncated)?;
                Ok(LinkFrame::Cvc(body.to_vec()))
            }
            _ => LinkFrame::from_p2p_bytes(&f.to_vec()),
        }
    }

    /// Encode for an Ethernet without copying the packet body: the
    /// 14-byte header plus the 2-byte protocol shim go in the frame's
    /// owned header.
    pub fn to_ethernet_frame(&self, src: ethernet::Address, dst: ethernet::Address) -> FrameBuf {
        match self {
            LinkFrame::Sirpent { ff_hint, packet } => {
                let hdr = ethernet::Repr {
                    dst,
                    src,
                    ethertype: ethernet::EtherType::Sirpent,
                };
                let mut h = hdr.to_bytes();
                h.push(proto::SIRPENT);
                h.push(*ff_hint);
                FrameBuf::new(h, packet.clone())
            }
            other => FrameBuf::from(other.to_ethernet_bytes(src, dst)),
        }
    }

    /// Encode for an Ethernet, consuming the frame: the 14-byte header
    /// plus the 1-byte protocol tag go in the frame's owned header and
    /// the Ipish/Cvc payload bytes *move* into the body uncopied.
    pub fn into_ethernet_frame(self, src: ethernet::Address, dst: ethernet::Address) -> FrameBuf {
        let (tag, body) = match self {
            LinkFrame::Ipish(d) => (proto::IPISH, d),
            LinkFrame::Cvc(d) => (proto::CVC, d),
            other => return FrameBuf::from(other.to_ethernet_bytes(src, dst)),
        };
        let ethertype = match tag {
            proto::IPISH => ethernet::EtherType::Ipish,
            _ => ethernet::EtherType::Cvc,
        };
        let mut h = ethernet::Repr {
            dst,
            src,
            ethertype,
        }
        .to_bytes();
        h.push(tag);
        FrameBuf::new(h, PacketBuf::from_vec(body))
    }

    /// Decode an Ethernet frame; returns the header and the link frame.
    /// The Sirpent arm is zero-copy (the packet shares the frame body).
    pub fn from_ethernet_frame(f: &FrameBuf) -> Result<(ethernet::Repr, LinkFrame)> {
        let hdr = {
            let p = f.prefix(ethernet::HEADER_LEN).ok_or(Error::Truncated)?;
            ethernet::Repr::parse(&p)?
        };
        let frame = match f.byte(ethernet::HEADER_LEN).ok_or(Error::Truncated)? {
            proto::SIRPENT => {
                let ff_hint = f.byte(ethernet::HEADER_LEN + 1).ok_or(Error::Truncated)?;
                let packet = f
                    .strip_header(ethernet::HEADER_LEN + 2)
                    .ok_or(Error::Truncated)?;
                LinkFrame::Sirpent { ff_hint, packet }
            }
            proto::IPISH => {
                let body = f
                    .strip_header(ethernet::HEADER_LEN + 1)
                    .ok_or(Error::Truncated)?;
                LinkFrame::Ipish(body.to_vec())
            }
            proto::CVC => {
                let body = f
                    .strip_header(ethernet::HEADER_LEN + 1)
                    .ok_or(Error::Truncated)?;
                LinkFrame::Cvc(body.to_vec())
            }
            _ => LinkFrame::from_p2p_bytes(&f.to_vec()[ethernet::HEADER_LEN..])?,
        };
        Ok((hdr, frame))
    }

    /// Encode for an Ethernet, prefixing the 14-byte header. `src`/`dst`
    /// are the stations; the ethertype is derived from the frame kind.
    pub fn to_ethernet_bytes(&self, src: ethernet::Address, dst: ethernet::Address) -> Vec<u8> {
        let ethertype = match self {
            LinkFrame::Sirpent { .. } | LinkFrame::RateControl(_) => ethernet::EtherType::Sirpent,
            LinkFrame::Ipish(_) => ethernet::EtherType::Ipish,
            LinkFrame::Cvc(_) => ethernet::EtherType::Cvc,
        };
        let hdr = ethernet::Repr {
            dst,
            src,
            ethertype,
        };
        let mut v = hdr.to_bytes();
        // Inside the Ethernet payload, reuse the p2p encoding so the
        // rate-control/Sirpent distinction survives.
        v.extend_from_slice(&self.to_p2p_bytes());
        v
    }

    /// Decode an Ethernet frame; returns the header and the link frame.
    pub fn from_ethernet_bytes(b: &[u8]) -> Result<(ethernet::Repr, LinkFrame)> {
        let hdr = ethernet::Repr::parse(b)?;
        let inner = LinkFrame::from_p2p_bytes(&b[ethernet::HEADER_LEN..])?;
        Ok((hdr, inner))
    }
}

/// Outcome of decoding a received frame against a port's link kind —
/// the shared front half of every node's parse stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortDecode {
    /// A frame addressed to this node, with the reversed Ethernet
    /// header (for return-hop construction) when the port is an
    /// Ethernet.
    Frame(LinkFrame, Option<ethernet::Repr>),
    /// A valid Ethernet frame for a different station: a multi-access
    /// link delivers to everyone, and stations filter silently.
    NotForUs,
}

/// Decode a received frame according to the port's link kind, applying
/// the Ethernet destination filter. Decode errors bubble up so the
/// caller can account a parse-stage drop.
pub fn decode_port_frame(kind: &crate::viper::PortKind, payload: &FrameBuf) -> Result<PortDecode> {
    match kind {
        crate::viper::PortKind::PointToPoint => {
            Ok(PortDecode::Frame(LinkFrame::from_p2p_frame(payload)?, None))
        }
        crate::viper::PortKind::Ethernet { mac } => {
            let (hdr, f) = LinkFrame::from_ethernet_frame(payload)?;
            if hdr.dst != *mac && !hdr.dst.is_broadcast() {
                return Ok(PortDecode::NotForUs);
            }
            Ok(PortDecode::Frame(f, Some(hdr.reversed())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2p_roundtrip_all_kinds() {
        let frames = [
            LinkFrame::Sirpent {
                ff_hint: 7,
                packet: PacketBuf::from(vec![1, 2, 3]),
            },
            LinkFrame::RateControl(RateControlMsg {
                congested_router: 9,
                congested_port: 3,
                allowed_bps: 5_000_000,
                queue_len: 12,
            }),
            LinkFrame::Ipish(vec![4, 5]),
            LinkFrame::Cvc(vec![6]),
        ];
        for f in frames {
            let bytes = f.to_p2p_bytes();
            assert_eq!(LinkFrame::from_p2p_bytes(&bytes).unwrap(), f);
        }
    }

    #[test]
    fn ethernet_roundtrip() {
        let f = LinkFrame::Sirpent {
            ff_hint: 0,
            packet: PacketBuf::from(vec![9; 40]),
        };
        let src = ethernet::Address::from_index(1);
        let dst = ethernet::Address::from_index(2);
        let bytes = f.to_ethernet_bytes(src, dst);
        let (hdr, back) = LinkFrame::from_ethernet_bytes(&bytes).unwrap();
        assert_eq!(hdr.src, src);
        assert_eq!(hdr.dst, dst);
        assert_eq!(hdr.ethertype, ethernet::EtherType::Sirpent);
        assert_eq!(back, f);
    }

    #[test]
    fn p2p_frame_roundtrip_is_zero_copy() {
        let packet = PacketBuf::from(vec![7u8; 64]);
        let f = LinkFrame::Sirpent {
            ff_hint: 3,
            packet: packet.clone(),
        };
        let frame = f.to_p2p_frame();
        // Composing copies only the 2-byte link header.
        assert!(frame.body().shares_store_with(&packet));
        assert_eq!(frame.to_vec(), f.to_p2p_bytes());
        let back = LinkFrame::from_p2p_frame(&frame).unwrap();
        match &back {
            LinkFrame::Sirpent { ff_hint, packet: p } => {
                assert_eq!(*ff_hint, 3);
                // Parsing shares the same store too: no copy on receive.
                assert!(p.shares_store_with(&packet));
                assert_eq!(p.as_slice(), packet.as_slice());
            }
            other => panic!("wrong frame kind: {other:?}"),
        }
    }

    #[test]
    fn ethernet_frame_roundtrip_is_zero_copy() {
        let packet = PacketBuf::from(vec![5u8; 80]);
        let f = LinkFrame::Sirpent {
            ff_hint: 9,
            packet: packet.clone(),
        };
        let src = ethernet::Address::from_index(3);
        let dst = ethernet::Address::from_index(4);
        let frame = f.to_ethernet_frame(src, dst);
        assert!(frame.body().shares_store_with(&packet));
        assert_eq!(frame.to_vec(), f.to_ethernet_bytes(src, dst));
        let (hdr, back) = LinkFrame::from_ethernet_frame(&frame).unwrap();
        assert_eq!(hdr.src, src);
        assert_eq!(hdr.dst, dst);
        match &back {
            LinkFrame::Sirpent { packet: p, .. } => {
                assert!(p.shares_store_with(&packet));
            }
            other => panic!("wrong frame kind: {other:?}"),
        }
    }

    #[test]
    fn non_sirpent_frames_roundtrip_via_frame_path() {
        let frames = [
            LinkFrame::RateControl(RateControlMsg {
                congested_router: 1,
                congested_port: 2,
                allowed_bps: 3,
                queue_len: 4,
            }),
            LinkFrame::Ipish(vec![4, 5]),
            LinkFrame::Cvc(vec![6]),
        ];
        for f in frames {
            let frame = f.to_p2p_frame();
            assert_eq!(LinkFrame::from_p2p_frame(&frame).unwrap(), f);
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(LinkFrame::from_p2p_bytes(&[]).is_err());
        assert!(LinkFrame::from_p2p_bytes(&[99, 1, 2]).is_err());
        assert!(LinkFrame::from_p2p_bytes(&[proto::RATE_CONTROL, 1]).is_err());
        // Frame-path parsers must reject short input, never panic.
        assert!(LinkFrame::from_p2p_frame(&FrameBuf::default()).is_err());
        assert!(LinkFrame::from_p2p_frame(&FrameBuf::from(vec![proto::SIRPENT])).is_err());
        assert!(LinkFrame::from_ethernet_frame(&FrameBuf::from(vec![0u8; 14])).is_err());
    }
}
