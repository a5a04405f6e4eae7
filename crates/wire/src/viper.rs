//! The VIPER header segment — Figure 1 of the paper.
//!
//! ```text
//!  0                   1
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |PortInfoLength |PortTokenLength|
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |     Port      |Flags|Priority |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! >          Port Token           <
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! >          Port Info            <
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! The fixed-length portion comes first "to minimize the difficulty of
//! handling the packet header segment in cut-through switching hardware"
//! (§5): the switch learns both variable-field lengths and the output port
//! before the variable part has finished arriving. The smallest legal
//! segment is 32 bits (both variable fields empty).
//!
//! A length byte of 255 is an escape: the actual length is carried in the
//! 32 bits starting at the corresponding variable field, followed by that
//! many payload bytes (§5: "A value of 255 is reserved to indicate that
//! the actual length is larger than 254 octets").
//!
//! ## Alternate branches (Slick-Packets failover)
//!
//! A segment may additionally carry a compact fallback branch — an
//! alternate output port plus a splice index into the packet's recovery
//! segment list — so the router *adjacent* to a failed next hop can
//! divert the packet in one hop time instead of letting it die. The
//! branch is a two-byte suffix `[alt_port, splice]` that trails the
//! `portInfo` field and is **not** counted by either length byte, so the
//! fixed prologue and both variable fields keep their exact legacy
//! layout. Its presence is signalled by setting both the VNT and TRB
//! flag bits together — a combination that is contradictory as literal
//! flags ("another segment follows" + "portInfo is a tree spec") and was
//! never emitted, which makes a header with zero alternates byte-
//! identical to the pre-failover format. Parsing a marked segment
//! reports `vnt = tree = false` plus the decoded [`AltBranch`].

use crate::{Error, Result};

/// Size of the fixed-length prologue of every segment.
pub const FIXED_LEN: usize = 4;

/// Length-byte value that escapes to a 32-bit extended length.
pub const LEN_ESCAPE: u8 = 255;

/// The reserved "local delivery" port value (§5: "Reserving 0 as a special
/// port value meaning 'local', the effective number of ports per switch is
/// limited to 255").
pub const PORT_LOCAL: u8 = 0;

/// Length of the alternate-branch suffix (`[alt_port, splice]`) that
/// trails the `portInfo` field when the flags nibble carries the ALT
/// marker (see the [module docs](self)).
pub const ALT_SUFFIX_LEN: usize = 2;

/// Byte offsets of the fixed prologue fields.
mod field {
    pub const PORT_INFO_LEN: usize = 0;
    pub const PORT_TOKEN_LEN: usize = 1;
    pub const PORT: usize = 2;
    pub const FLAGS_PRIORITY: usize = 3;
}

/// Segment flags (§5). The paper names three; we assign them to the high
/// nibble of byte 3, leaving one reserved bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// VNT — *VIPER Next Type*: the `portInfo` field is void (or padding)
    /// and another VIPER header segment immediately follows this one.
    pub vnt: bool,
    /// DIB — *Drop If Blocked*: drop the packet rather than queueing it
    /// when the output port is busy.
    pub dib: bool,
    /// RPF — *Reverse Path Forwarding*: the packet is being returned using
    /// the route and tokens supplied in a previously received packet.
    pub rpf: bool,
    /// TRB — *Tree Branch*: this segment's `portInfo` carries a
    /// tree-structured multicast specification ("multiple header segments
    /// specified for a routing point, with each header segment causing a
    /// copy of the packet to be routed according to the port it
    /// specifies", §2 — the Blazenet-style mechanism). This
    /// reproduction's concretization assigns it the last flag bit.
    pub tree: bool,
}

impl Flags {
    const VNT_BIT: u8 = 0b1000;
    const DIB_BIT: u8 = 0b0100;
    const RPF_BIT: u8 = 0b0010;
    const TREE_BIT: u8 = 0b0001;
    /// The ALT-marker pattern: VNT and TRB set together signals an
    /// alternate-branch suffix, not the (contradictory) literal flags.
    pub(crate) const ALT_MARKER: u8 = Self::VNT_BIT | Self::TREE_BIT;

    /// Decode from the high nibble of the flags/priority byte.
    pub fn from_nibble(n: u8) -> Flags {
        Flags {
            vnt: n & Self::VNT_BIT != 0,
            dib: n & Self::DIB_BIT != 0,
            rpf: n & Self::RPF_BIT != 0,
            tree: n & Self::TREE_BIT != 0,
        }
    }

    /// Encode into the high nibble of the flags/priority byte.
    pub fn to_nibble(self) -> u8 {
        (if self.vnt { Self::VNT_BIT } else { 0 })
            | (if self.dib { Self::DIB_BIT } else { 0 })
            | (if self.rpf { Self::RPF_BIT } else { 0 })
            | (if self.tree { Self::TREE_BIT } else { 0 })
    }
}

/// A 4-bit VIPER priority.
///
/// §5: "Normal priority is 0 with 7 highest priority. Priorities 6 and 7
/// preempt the transmission of lower priority packets in mid-transmission
/// if necessary. Values with the high-order bit set represent lower
/// priorities, 0xF being the lowest priority."
///
/// The resulting total order, highest first, is
/// `7, 6, 5, 4, 3, 2, 1, 0, 8, 9, 10, 11, 12, 13, 14, 15`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Priority(u8);

impl Priority {
    /// Normal priority (0).
    pub const NORMAL: Priority = Priority(0);
    /// The highest priority (7). Preemptive.
    pub const HIGHEST: Priority = Priority(7);
    /// The lowest priority (0xF).
    pub const LOWEST: Priority = Priority(0xF);

    /// Construct from a raw 4-bit value. Values above 15 are masked.
    pub fn new(raw: u8) -> Priority {
        Priority(raw & 0x0F)
    }

    /// The raw 4-bit wire value.
    pub fn raw(self) -> u8 {
        self.0
    }

    /// A signed rank such that greater rank = more urgent:
    /// 0..=7 map to 0..=7; 8..=15 map to -1..=-8.
    pub fn rank(self) -> i8 {
        if self.0 < 8 {
            self.0 as i8
        } else {
            7 - self.0 as i8
        }
    }

    /// Whether this priority preempts in-flight lower-priority
    /// transmissions (values 6 and 7).
    pub fn is_preemptive(self) -> bool {
        self.0 == 6 || self.0 == 7
    }
}

impl PartialOrd for Priority {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Priority {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

impl Default for Priority {
    fn default() -> Self {
        Priority::NORMAL
    }
}

/// A Slick-Packets-style fallback branch attached to a primary header
/// segment.
///
/// When the router owning the segment finds its primary next hop
/// unreachable (link down, or the peer router itself down), it diverts
/// the packet out `port` instead, re-headed with the recovery-list
/// suffix starting at index `splice` (up to and including the first
/// local-delivery segment at or after it).
///
/// On the *terminating* (port-0) segment of a route the branch is
/// overloaded as the recovery-list descriptor: `port` holds the number
/// of recovery segments that follow the route, and `splice` is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AltBranch {
    /// Alternate output port to divert on (recovery-segment count on the
    /// terminating segment).
    pub port: u8,
    /// Splice index into the packet's recovery segment list.
    pub splice: u8,
}

/// A zero-copy view of a VIPER header segment at the *front* of a buffer.
///
/// The buffer may extend beyond the segment (and normally does — the rest
/// of the packet follows); [`Segment::total_len`] reports where the
/// segment ends.
#[derive(Debug, Clone)]
pub struct Segment<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Segment<T> {
    /// Wrap a buffer without validating it.
    pub fn new_unchecked(buffer: T) -> Segment<T> {
        Segment { buffer }
    }

    /// Wrap a buffer, validating that a complete segment is present.
    pub fn new_checked(buffer: T) -> Result<Segment<T>> {
        let seg = Segment::new_unchecked(buffer);
        seg.check_len()?;
        Ok(seg)
    }

    /// Validate that the buffer holds a complete segment: the fixed
    /// prologue plus both variable fields (resolving 255-escapes).
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < FIXED_LEN {
            return Err(Error::Truncated);
        }
        let (_, end) = self.token_bounds()?;
        let (_, info_end) = self.info_bounds(end)?;
        let total = if self.has_alt() {
            info_end + ALT_SUFFIX_LEN
        } else {
            info_end
        };
        if total > data.len() {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// The output-port identifier.
    pub fn port(&self) -> u8 {
        self.buffer.as_ref()[field::PORT]
    }

    /// The raw flags nibble, before ALT-marker normalization.
    fn flags_nibble(&self) -> u8 {
        self.buffer.as_ref()[field::FLAGS_PRIORITY] >> 4
    }

    /// Whether the flags nibble carries the ALT marker (an alternate-
    /// branch suffix follows the `portInfo` field).
    pub fn has_alt(&self) -> bool {
        self.flags_nibble() & Flags::ALT_MARKER == Flags::ALT_MARKER
    }

    /// The segment flags. For a marked segment the recycled VNT/TRB bits
    /// are reported as `false` — the marker is surfaced via
    /// [`Segment::alt`], never as literal flags, so flag-driven paths
    /// (tree decode, next-type chaining) cannot misfire on it.
    pub fn flags(&self) -> Flags {
        let mut f = Flags::from_nibble(self.flags_nibble());
        if self.has_alt() {
            f.vnt = false;
            f.tree = false;
        }
        f
    }

    /// The alternate branch, when the ALT marker is present. Call only
    /// on a validated segment.
    pub fn alt(&self) -> Option<AltBranch> {
        if !self.has_alt() {
            return None;
        }
        let (_, te) = self.token_bounds().expect("validated by check_len");
        let (_, ie) = self.info_bounds(te).expect("validated by check_len");
        let data = self.buffer.as_ref();
        Some(AltBranch {
            port: data[ie],
            splice: data[ie + 1],
        })
    }

    /// The segment priority.
    pub fn priority(&self) -> Priority {
        Priority::new(self.buffer.as_ref()[field::FLAGS_PRIORITY] & 0x0F)
    }

    /// Byte range of the port-token payload (start, end), resolving the
    /// 255-escape. `start` skips the extended-length word if present.
    fn token_bounds(&self) -> Result<(usize, usize)> {
        let data = self.buffer.as_ref();
        let lf = data[field::PORT_TOKEN_LEN];
        if lf == LEN_ESCAPE {
            if data.len() < FIXED_LEN + 4 {
                return Err(Error::BadExtendedLength);
            }
            let n = u32::from_be_bytes([
                data[FIXED_LEN],
                data[FIXED_LEN + 1],
                data[FIXED_LEN + 2],
                data[FIXED_LEN + 3],
            ]) as usize;
            if n < 255 {
                // The escape must only be used for lengths > 254.
                return Err(Error::BadExtendedLength);
            }
            Ok((FIXED_LEN + 4, FIXED_LEN + 4 + n))
        } else {
            Ok((FIXED_LEN, FIXED_LEN + lf as usize))
        }
    }

    /// Byte range of the port-info payload given the end of the token
    /// region.
    fn info_bounds(&self, after_token: usize) -> Result<(usize, usize)> {
        let data = self.buffer.as_ref();
        let lf = data[field::PORT_INFO_LEN];
        if lf == LEN_ESCAPE {
            if data.len() < after_token + 4 {
                return Err(Error::BadExtendedLength);
            }
            let n = u32::from_be_bytes([
                data[after_token],
                data[after_token + 1],
                data[after_token + 2],
                data[after_token + 3],
            ]) as usize;
            if n < 255 {
                return Err(Error::BadExtendedLength);
            }
            Ok((after_token + 4, after_token + 4 + n))
        } else {
            Ok((after_token, after_token + lf as usize))
        }
    }

    /// The port-token bytes (empty slice when absent; a zero
    /// `portTokenLength` means "no token", §5).
    pub fn port_token(&self) -> &[u8] {
        let (s, e) = self.token_bounds().expect("validated by check_len");
        &self.buffer.as_ref()[s..e]
    }

    /// The network-specific port-info bytes.
    pub fn port_info(&self) -> &[u8] {
        let (_, te) = self.token_bounds().expect("validated by check_len");
        let (s, e) = self.info_bounds(te).expect("validated by check_len");
        &self.buffer.as_ref()[s..e]
    }

    /// All field offsets of a validated segment in one pass, relative to
    /// the segment start: `(token_start, token_end, info_start, info_end)`.
    /// `info_end` is also the total encoded length. Used by the zero-copy
    /// [`crate::buf::SegmentView`] to record absolute offsets instead of
    /// copying the variable fields out.
    pub(crate) fn field_offsets(&self) -> Result<(usize, usize, usize, usize)> {
        let (ts, te) = self.token_bounds()?;
        let (is_, ie) = self.info_bounds(te)?;
        Ok((ts, te, is_, ie))
    }

    /// Total encoded length of this segment, including the fixed prologue,
    /// any extended-length words, and the alternate-branch suffix when the
    /// ALT marker is present.
    pub fn total_len(&self) -> usize {
        let (_, te) = self.token_bounds().expect("validated by check_len");
        let (_, ie) = self.info_bounds(te).expect("validated by check_len");
        if self.has_alt() {
            ie + ALT_SUFFIX_LEN
        } else {
            ie
        }
    }

    /// The bytes of the buffer following this segment (the rest of the
    /// packet).
    pub fn rest(&self) -> &[u8] {
        &self.buffer.as_ref()[self.total_len()..]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Segment<T> {
    /// Set the output-port identifier.
    pub fn set_port(&mut self, port: u8) {
        self.buffer.as_mut()[field::PORT] = port;
    }

    /// Set the flags nibble.
    pub fn set_flags(&mut self, flags: Flags) {
        let b = &mut self.buffer.as_mut()[field::FLAGS_PRIORITY];
        *b = (flags.to_nibble() << 4) | (*b & 0x0F);
    }

    /// Set the priority nibble.
    pub fn set_priority(&mut self, prio: Priority) {
        let b = &mut self.buffer.as_mut()[field::FLAGS_PRIORITY];
        *b = (*b & 0xF0) | prio.raw();
    }
}

/// An owned, high-level representation of a VIPER header segment.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SegmentRepr {
    /// Output port at the router this segment addresses. 0 = local.
    pub port: u8,
    /// Segment flags.
    pub flags: Flags,
    /// Switching/forwarding priority.
    pub priority: Priority,
    /// The (opaque, possibly encrypted) port token. Empty = absent.
    pub port_token: Vec<u8>,
    /// Network-specific port information (e.g. an Ethernet header for the
    /// next hop). Empty for point-to-point links.
    pub port_info: Vec<u8>,
    /// Optional Slick-Packets fallback branch. `None` encodes byte-
    /// identically to the pre-failover format. When `Some`, `flags.vnt`
    /// and `flags.tree` must be `false` — the wire nibble is taken over
    /// by the ALT marker, and [`SegmentRepr::emit`] rejects the
    /// non-canonical combinations.
    pub alt: Option<AltBranch>,
}

impl SegmentRepr {
    /// A minimal segment: just a port, no token, no info (the 32-bit
    /// minimum of §5).
    pub fn minimal(port: u8) -> SegmentRepr {
        SegmentRepr {
            port,
            ..Default::default()
        }
    }

    /// Parse a segment from the front of `buffer`.
    pub fn parse<T: AsRef<[u8]>>(seg: &Segment<T>) -> Result<SegmentRepr> {
        seg.check_len()?;
        Ok(SegmentRepr {
            port: seg.port(),
            flags: seg.flags(),
            priority: seg.priority(),
            port_token: seg.port_token().to_vec(),
            port_info: seg.port_info().to_vec(),
            alt: seg.alt(),
        })
    }

    /// Parse a segment directly from a byte slice, returning the repr and
    /// the number of bytes consumed.
    pub fn parse_prefix(buffer: &[u8]) -> Result<(SegmentRepr, usize)> {
        let seg = Segment::new_checked(buffer)?;
        let len = seg.total_len();
        Ok((SegmentRepr::parse(&seg)?, len))
    }

    /// Encoded length of one variable field, including a possible
    /// extended-length word.
    fn var_field_len(payload: usize) -> usize {
        if payload > 254 {
            4 + payload
        } else {
            payload
        }
    }

    /// The number of bytes `emit` will write.
    pub fn buffer_len(&self) -> usize {
        FIXED_LEN
            + Self::var_field_len(self.port_token.len())
            + Self::var_field_len(self.port_info.len())
            + if self.alt.is_some() {
                ALT_SUFFIX_LEN
            } else {
                0
            }
    }

    /// Emit into the front of `buffer`, which must be at least
    /// [`SegmentRepr::buffer_len`] bytes. Returns the bytes written.
    ///
    /// Fails with [`Error::Malformed`] on the non-canonical flag/branch
    /// combinations: VNT+TRB set together without an alternate branch
    /// (that nibble *is* the ALT marker — emitting it bare would make
    /// the parser read payload bytes as a branch), or an alternate
    /// branch alongside a set VNT or TRB bit (the marker overrides them
    /// on the wire, so they would not round-trip).
    pub fn emit(&self, buffer: &mut [u8]) -> Result<usize> {
        let nibble = self.flags.to_nibble();
        match self.alt {
            None if nibble & Flags::ALT_MARKER == Flags::ALT_MARKER => {
                return Err(Error::Malformed);
            }
            Some(_) if self.flags.vnt || self.flags.tree => {
                return Err(Error::Malformed);
            }
            _ => {}
        }
        let need = self.buffer_len();
        if buffer.len() < need {
            return Err(Error::Truncated);
        }
        buffer[field::PORT_INFO_LEN] = if self.port_info.len() > 254 {
            LEN_ESCAPE
        } else {
            self.port_info.len() as u8
        };
        buffer[field::PORT_TOKEN_LEN] = if self.port_token.len() > 254 {
            LEN_ESCAPE
        } else {
            self.port_token.len() as u8
        };
        buffer[field::PORT] = self.port;
        let wire_nibble = if self.alt.is_some() {
            nibble | Flags::ALT_MARKER
        } else {
            nibble
        };
        buffer[field::FLAGS_PRIORITY] = (wire_nibble << 4) | self.priority.raw();
        let mut at = FIXED_LEN;
        for (bytes, _name) in [(&self.port_token, "token"), (&self.port_info, "info")] {
            if bytes.len() > 254 {
                buffer[at..at + 4].copy_from_slice(&(bytes.len() as u32).to_be_bytes());
                at += 4;
            }
            buffer[at..at + bytes.len()].copy_from_slice(bytes);
            at += bytes.len();
        }
        if let Some(ab) = self.alt {
            buffer[at] = ab.port;
            buffer[at + 1] = ab.splice;
            at += ALT_SUFFIX_LEN;
        }
        debug_assert_eq!(at, need);
        Ok(need)
    }

    /// Emit into a fresh vector.
    ///
    /// # Panics
    /// On the non-canonical flag/branch combinations [`SegmentRepr::emit`]
    /// rejects (no construction site in this workspace produces them).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.buffer_len()];
        self.emit(&mut v).expect("canonical repr sized exactly");
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(r: &SegmentRepr) -> SegmentRepr {
        let bytes = r.to_bytes();
        let (back, used) = SegmentRepr::parse_prefix(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        back
    }

    #[test]
    fn minimal_segment_is_32_bits() {
        let r = SegmentRepr::minimal(9);
        assert_eq!(r.buffer_len(), 4, "smallest segment size is 32 bits (§5)");
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn ethernet_info_segment_is_18_bytes() {
        // §6.2: "the average header size is 18 bytes per hop (which is a
        // VIPER header plus Ethernet header)".
        let r = SegmentRepr {
            port: 3,
            port_info: vec![0u8; 14],
            ..Default::default()
        };
        assert_eq!(r.buffer_len(), 18);
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn token_and_info_roundtrip() {
        let r = SegmentRepr {
            port: 200,
            flags: Flags {
                vnt: true,
                dib: false,
                rpf: true,
                tree: false,
            },
            priority: Priority::new(6),
            port_token: (0..32).collect(),
            port_info: (0..14).rev().collect(),
            alt: None,
        };
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn long_field_escape_roundtrip() {
        let r = SegmentRepr {
            port: 1,
            port_token: vec![0xAB; 300],
            port_info: vec![0xCD; 1000],
            ..Default::default()
        };
        assert_eq!(r.buffer_len(), 4 + 4 + 300 + 4 + 1000);
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn boundary_254_does_not_escape_255_does() {
        let r254 = SegmentRepr {
            port_token: vec![1; 254],
            ..Default::default()
        };
        assert_eq!(r254.buffer_len(), 4 + 254);
        assert_eq!(roundtrip(&r254), r254);

        let r255 = SegmentRepr {
            port_token: vec![1; 255],
            ..Default::default()
        };
        assert_eq!(r255.buffer_len(), 4 + 4 + 255);
        assert_eq!(roundtrip(&r255), r255);
    }

    #[test]
    fn truncated_buffers_rejected() {
        let r = SegmentRepr {
            port_token: vec![7; 10],
            port_info: vec![8; 20],
            ..Default::default()
        };
        let bytes = r.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Segment::new_checked(&bytes[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        assert!(Segment::new_checked(&bytes[..]).is_ok());
    }

    #[test]
    fn bogus_extended_length_rejected() {
        // Escape byte with a small extended length is malformed.
        let mut bytes = vec![0u8, LEN_ESCAPE, 5, 0];
        bytes.extend_from_slice(&10u32.to_be_bytes());
        bytes.extend_from_slice(&[0; 10]);
        assert_eq!(
            Segment::new_checked(&bytes[..]).unwrap_err(),
            Error::BadExtendedLength
        );
    }

    #[test]
    fn priority_order_matches_paper() {
        // 7 highest … 0 normal … 15 lowest.
        let order: Vec<u8> = vec![7, 6, 5, 4, 3, 2, 1, 0, 8, 9, 10, 11, 12, 13, 14, 15];
        for w in order.windows(2) {
            assert!(
                Priority::new(w[0]) > Priority::new(w[1]),
                "{} should outrank {}",
                w[0],
                w[1]
            );
        }
        assert!(Priority::new(6).is_preemptive());
        assert!(Priority::new(7).is_preemptive());
        assert!(!Priority::new(5).is_preemptive());
        assert!(!Priority::new(8).is_preemptive());
        assert_eq!(Priority::LOWEST, Priority::new(0xF));
    }

    #[test]
    fn flags_nibble_roundtrip() {
        for bits in 0..16u8 {
            let f = Flags {
                vnt: bits & 1 != 0,
                dib: bits & 2 != 0,
                rpf: bits & 4 != 0,
                tree: bits & 8 != 0,
            };
            assert_eq!(Flags::from_nibble(f.to_nibble()), f);
        }
    }

    #[test]
    fn setters_update_in_place() {
        let r = SegmentRepr {
            port: 5,
            port_token: vec![1, 2, 3],
            port_info: vec![4, 5],
            ..Default::default()
        };
        let mut bytes = r.to_bytes();
        let mut seg = Segment::new_checked(&mut bytes[..]).unwrap();
        seg.set_port(42);
        seg.set_priority(Priority::new(7));
        seg.set_flags(Flags {
            dib: true,
            ..Default::default()
        });
        let seg = Segment::new_checked(&bytes[..]).unwrap();
        assert_eq!(seg.port(), 42);
        assert_eq!(seg.priority(), Priority::new(7));
        assert!(seg.flags().dib);
        assert_eq!(seg.port_token(), &[1, 2, 3]);
    }

    #[test]
    fn rest_points_past_segment() {
        let r = SegmentRepr::minimal(1);
        let mut bytes = r.to_bytes();
        bytes.extend_from_slice(b"payload");
        let seg = Segment::new_checked(&bytes[..]).unwrap();
        assert_eq!(seg.rest(), b"payload");
    }

    #[test]
    fn alt_branch_roundtrips_as_two_byte_suffix() {
        let plain = SegmentRepr {
            port: 7,
            port_token: vec![1, 2, 3],
            port_info: vec![9; 14],
            ..Default::default()
        };
        let marked = SegmentRepr {
            alt: Some(AltBranch { port: 3, splice: 5 }),
            ..plain.clone()
        };
        assert_eq!(marked.buffer_len(), plain.buffer_len() + ALT_SUFFIX_LEN);
        let bytes = marked.to_bytes();
        // The suffix is exactly [alt_port, splice] at the tail, and the
        // prefix before it matches the unmarked encoding everywhere but
        // the flags nibble.
        assert_eq!(&bytes[bytes.len() - 2..], &[3, 5]);
        assert_eq!(roundtrip(&marked), marked);
        // rest() must skip the suffix too.
        let mut framed = bytes.clone();
        framed.extend_from_slice(b"data");
        let seg = Segment::new_checked(&framed[..]).unwrap();
        assert_eq!(seg.rest(), b"data");
        assert_eq!(seg.alt(), Some(AltBranch { port: 3, splice: 5 }));
    }

    #[test]
    fn zero_alternates_is_byte_identical_to_legacy_format() {
        // The whole golden-trace compatibility argument: a repr without
        // an alternate must encode exactly as it did before the ALT
        // suffix existed (fixed prologue + token + info, nothing more).
        let r = SegmentRepr {
            port: 5,
            flags: Flags {
                dib: true,
                ..Default::default()
            },
            priority: Priority::new(6),
            port_token: vec![0xAA; 8],
            port_info: vec![0x55; 14],
            alt: None,
        };
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), FIXED_LEN + 8 + 14);
        assert_eq!(bytes[field::PORT_INFO_LEN], 14);
        assert_eq!(bytes[field::PORT_TOKEN_LEN], 8);
        assert_eq!(bytes[field::FLAGS_PRIORITY], (0b0100 << 4) | 6);
    }

    #[test]
    fn marked_segment_reports_clean_flags() {
        let r = SegmentRepr {
            port: 2,
            flags: Flags {
                dib: true,
                rpf: true,
                ..Default::default()
            },
            alt: Some(AltBranch { port: 9, splice: 0 }),
            ..Default::default()
        };
        let bytes = r.to_bytes();
        let seg = Segment::new_checked(&bytes[..]).unwrap();
        // The recycled VNT/TRB bits never surface as literal flags.
        let f = seg.flags();
        assert!(!f.vnt && !f.tree && f.dib && f.rpf);
        assert!(seg.has_alt());
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn marked_segment_truncated_suffix_rejected() {
        let r = SegmentRepr {
            port: 1,
            port_info: vec![4; 6],
            alt: Some(AltBranch { port: 2, splice: 1 }),
            ..Default::default()
        };
        let bytes = r.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Segment::new_checked(&bytes[..cut]).is_err(),
                "cut at {cut} must be rejected"
            );
        }
        assert!(Segment::new_checked(&bytes[..]).is_ok());
    }

    #[test]
    fn non_canonical_marker_combinations_rejected() {
        // VNT+TRB without a branch IS the marker — emitting it bare
        // would alias payload bytes into a branch on reparse.
        let bare = SegmentRepr {
            flags: Flags {
                vnt: true,
                tree: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut buf = [0u8; 16];
        assert_eq!(bare.emit(&mut buf).unwrap_err(), Error::Malformed);
        // A branch alongside a set VNT or TRB bit would not round-trip.
        for (vnt, tree) in [(true, false), (false, true), (true, true)] {
            let r = SegmentRepr {
                flags: Flags {
                    vnt,
                    tree,
                    ..Default::default()
                },
                alt: Some(AltBranch { port: 1, splice: 0 }),
                ..Default::default()
            };
            assert_eq!(r.emit(&mut buf).unwrap_err(), Error::Malformed);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_repr() -> impl Strategy<Value = SegmentRepr> {
        (
            any::<u8>(),
            0u8..16,
            0u8..16,
            proptest::collection::vec(any::<u8>(), 0..400),
            proptest::collection::vec(any::<u8>(), 0..400),
            (any::<bool>(), any::<u8>(), any::<u8>()),
        )
            .prop_map(|(port, nibble, prio, tok, info, alt_raw)| {
                let alt = alt_raw.0.then_some(AltBranch {
                    port: alt_raw.1,
                    splice: alt_raw.2,
                });
                let mut flags = Flags::from_nibble(nibble);
                // Keep the repr canonical: with a branch the recycled
                // VNT/TRB bits must be clear; without one they must not
                // both be set (that nibble is the ALT marker).
                match alt {
                    Some(_) => {
                        flags.vnt = false;
                        flags.tree = false;
                    }
                    None if flags.vnt && flags.tree => flags.tree = false,
                    None => {}
                }
                SegmentRepr {
                    port,
                    flags,
                    priority: Priority::new(prio),
                    port_token: tok,
                    port_info: info,
                    alt,
                }
            })
    }

    proptest! {
        #[test]
        fn segment_roundtrips(r in arb_repr()) {
            let bytes = r.to_bytes();
            prop_assert_eq!(bytes.len(), r.buffer_len());
            let (back, used) = SegmentRepr::parse_prefix(&bytes).unwrap();
            prop_assert_eq!(used, bytes.len());
            prop_assert_eq!(back, r);
        }

        #[test]
        fn parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Hostile input: parsing must fail cleanly or succeed, never panic.
            let _ = SegmentRepr::parse_prefix(&bytes);
        }

        #[test]
        fn marked_parse_never_panics(mut bytes in proptest::collection::vec(any::<u8>(), 4..64)) {
            // Hostile input with the ALT marker forced on, steering every
            // case through the suffix-aware parse path.
            bytes[3] |= 0b1001 << 4;
            let _ = SegmentRepr::parse_prefix(&bytes);
        }

        #[test]
        fn priority_rank_total_order(a in 0u8..16, b in 0u8..16) {
            let (pa, pb) = (Priority::new(a), Priority::new(b));
            // Antisymmetry + totality via rank.
            if pa > pb { prop_assert!(pb < pa); }
            if pa == pb { prop_assert_eq!(a, b); }
        }
    }
}
