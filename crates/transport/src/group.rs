//! Packet groups with selective retransmission (§4.3).
//!
//! Sirpent provides no fragmentation; "the transport protocol can provide
//! selective retransmission and flow control on the logical packet
//! fragments, avoiding the all-or-nothing behavior of IP in the
//! reassembly of packets". A logical message is carried as a **packet
//! group** of up to 32 packets; the receiver reports a 32-bit delivery
//! mask and the sender retransmits exactly the missing members.

use sirpent_wire::vmtp::MAX_GROUP;

/// Sender-side state for one packet group.
#[derive(Debug, Clone)]
pub struct GroupSender {
    /// The message, pre-split.
    segments: Vec<Vec<u8>>,
    /// Bits acknowledged so far.
    acked: u32,
}

impl GroupSender {
    /// Split `message` into group segments of at most `seg_size` bytes.
    /// Fails (returns `None`) when the message needs more than
    /// [`MAX_GROUP`] packets — callers then use multiple transactions.
    pub fn split(message: &[u8], seg_size: usize) -> Option<GroupSender> {
        assert!(seg_size > 0, "segment size must be positive");
        let n = message.len().div_ceil(seg_size).max(1);
        if n > MAX_GROUP {
            return None;
        }
        let segments: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                let lo = i * seg_size;
                let hi = ((i + 1) * seg_size).min(message.len());
                message[lo..hi].to_vec()
            })
            .collect();
        Some(GroupSender { segments, acked: 0 })
    }

    /// Number of packets in the group.
    pub fn group_size(&self) -> usize {
        self.segments.len()
    }

    /// Total message length.
    pub fn message_len(&self) -> usize {
        self.segments.iter().map(|s| s.len()).sum()
    }

    /// The segment payload for member `i`.
    pub fn segment(&self, i: usize) -> &[u8] {
        &self.segments[i]
    }

    /// Incorporate a delivery mask from an acknowledgement. Returns the
    /// member indices that still need retransmission (§4.3's selective
    /// retransmission set).
    pub fn on_ack(&mut self, delivery_mask: u32) -> Vec<usize> {
        self.acked |= delivery_mask;
        (0..self.segments.len())
            .filter(|&i| self.acked & (1 << i) == 0)
            .collect()
    }

    /// Whether every member has been acknowledged.
    pub fn complete(&self) -> bool {
        let full = Self::full_mask(self.segments.len());
        self.acked & full == full
    }

    /// The all-members mask for a group of `n`.
    pub fn full_mask(n: usize) -> u32 {
        if n >= 32 {
            u32::MAX
        } else {
            (1u32 << n) - 1
        }
    }
}

/// Receiver-side reassembly of one packet group.
#[derive(Debug, Clone)]
pub struct GroupReceiver {
    group_size: usize,
    message_len: usize,
    parts: Vec<Option<Vec<u8>>>,
    /// Duplicate member receptions observed.
    pub duplicates: u32,
}

impl GroupReceiver {
    /// Start assembling a group of `group_size` packets carrying a
    /// `message_len`-byte message.
    pub fn new(group_size: usize, message_len: usize) -> GroupReceiver {
        GroupReceiver {
            group_size: group_size.min(MAX_GROUP),
            message_len,
            parts: vec![None; group_size.min(MAX_GROUP)],
            duplicates: 0,
        }
    }

    /// Accept member `index` with its payload. Returns the completed
    /// message when this was the last missing member.
    pub fn push(&mut self, index: usize, payload: &[u8]) -> Option<Vec<u8>> {
        if index >= self.group_size {
            return None;
        }
        if self.parts[index].is_some() {
            self.duplicates += 1;
            return None;
        }
        self.parts[index] = Some(payload.to_vec());
        if self.delivery_mask() == GroupSender::full_mask(self.group_size) {
            let mut msg = Vec::with_capacity(self.message_len);
            for p in &self.parts {
                msg.extend_from_slice(p.as_ref().expect("mask checked"));
            }
            msg.truncate(self.message_len);
            Some(msg)
        } else {
            None
        }
    }

    /// The bitmap of received members, reported in acks.
    pub fn delivery_mask(&self) -> u32 {
        self.parts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .fold(0u32, |m, (i, _)| m | (1 << i))
    }

    /// Whether all members arrived.
    pub fn complete(&self) -> bool {
        self.delivery_mask() == GroupSender::full_mask(self.group_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_respects_segment_size_and_group_cap() {
        let msg: Vec<u8> = (0..100u8).collect();
        let g = GroupSender::split(&msg, 30).unwrap();
        assert_eq!(g.group_size(), 4);
        assert_eq!(g.segment(0).len(), 30);
        assert_eq!(g.segment(3).len(), 10);
        assert_eq!(g.message_len(), 100);

        assert!(GroupSender::split(&[0; 33], 1).is_none(), "cap at 32");
        let empty = GroupSender::split(&[], 10).unwrap();
        assert_eq!(empty.group_size(), 1, "empty message = one empty packet");
    }

    #[test]
    fn selective_retransmission_names_exact_missing_members() {
        let msg = vec![7u8; 100];
        let mut g = GroupSender::split(&msg, 25).unwrap(); // 4 members
                                                           // Receiver got 0 and 2 only.
        let missing = g.on_ack(0b0101);
        assert_eq!(missing, vec![1, 3], "retransmit only the lost ones");
        assert!(!g.complete());
        let missing = g.on_ack(0b1010);
        assert!(missing.is_empty());
        assert!(g.complete());
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let msg: Vec<u8> = (0..90u8).collect();
        let g = GroupSender::split(&msg, 40).unwrap(); // 40+40+10
        let mut r = GroupReceiver::new(g.group_size(), g.message_len());
        assert!(r.push(2, g.segment(2)).is_none());
        assert!(r.push(0, g.segment(0)).is_none());
        assert_eq!(r.delivery_mask(), 0b101);
        let done = r.push(1, g.segment(1)).expect("complete");
        assert_eq!(done, msg);
        assert!(r.complete());
    }

    #[test]
    fn duplicates_counted_not_reassembled_twice() {
        let msg = vec![1u8; 50];
        let g = GroupSender::split(&msg, 30).unwrap();
        let mut r = GroupReceiver::new(2, 50);
        assert!(r.push(0, g.segment(0)).is_none());
        assert!(r.push(0, g.segment(0)).is_none());
        assert_eq!(r.duplicates, 1);
        assert!(r.push(1, g.segment(1)).is_some());
    }

    #[test]
    fn out_of_range_member_ignored() {
        let mut r = GroupReceiver::new(2, 10);
        assert!(r.push(5, &[1, 2]).is_none());
        assert_eq!(r.delivery_mask(), 0);
    }

    #[test]
    fn full_mask_edge_cases() {
        assert_eq!(GroupSender::full_mask(1), 1);
        assert_eq!(GroupSender::full_mask(32), u32::MAX);
        assert_eq!(GroupSender::full_mask(5), 0b11111);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn split_reassemble_identity(msg in proptest::collection::vec(any::<u8>(), 0..4000),
                                     seg in 128usize..1400) {
            if let Some(g) = GroupSender::split(&msg, seg) {
                let mut r = GroupReceiver::new(g.group_size(), g.message_len());
                let mut out = None;
                // Deliver in reverse to exercise ordering.
                for i in (0..g.group_size()).rev() {
                    if let Some(m) = r.push(i, g.segment(i)) {
                        out = Some(m);
                    }
                }
                prop_assert_eq!(out.expect("complete"), msg);
            }
        }

        #[test]
        fn ack_mask_monotone(n in 1usize..=32, masks in proptest::collection::vec(any::<u32>(), 1..6)) {
            let msg = vec![0u8; n * 10];
            let mut g = GroupSender::split(&msg, 10).unwrap();
            prop_assert_eq!(g.group_size(), n);
            let mut missing_len = n;
            for m in masks {
                let missing = g.on_ack(m);
                prop_assert!(missing.len() <= missing_len, "missing set shrinks");
                missing_len = missing.len();
            }
        }
    }
}
