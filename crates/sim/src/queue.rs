//! Pluggable event queues: the reference binary heap and the calendar
//! (timing-wheel) queue the engine runs on.
//!
//! Both implementations drain items in identical `(time, seq)` total
//! order — the engine's determinism contract — so they are differentially
//! testable: any schedule pushed into both must pop identically. The
//! heap is the obviously-correct reference; the calendar queue is the
//! fast path: an O(1) push onto the wheel and an O(1) tail pop, where a
//! binary heap pays O(log n) sift moves per operation.
//!
//! ## Wheel geometry and the drain
//!
//! Near-future items live on a **wheel** of [`SLOTS`] buckets, each
//! covering a window of `2^`[`SLOT_SHIFT`] nanoseconds. `cur_abs` is the
//! absolute index (`time >> SLOT_SHIFT`) of the bucket the drain is in.
//! The storage splits at it:
//!
//! * `run` and `late` hold every item at or below `cur_abs`;
//! * wheel buckets hold `(cur_abs, cur_abs + SLOTS)`, unsorted;
//! * the **overflow** heap holds the rest (the far-future timers).
//!
//! When `run` and `late` are both empty, one refill step takes the next
//! occupied bucket (or, with the wheel dry, jumps to the overflow
//! minimum), moves it out as `run`, sorts it once descending so pops
//! are tail removals, and migrates the overflow items the wider window
//! now covers. A push at or below `cur_abs` — the engine's
//! same-bucket timers and `TxDone`s — goes into `late`, a small heap,
//! at O(log m); a sorted insert into `run` would shift up to the whole
//! bucket. Pops serve the smaller of `run`'s tail and `late`'s top.
//!
//! Buckets are not pooled: a drained bucket's allocation is freed, so a
//! burst that once filled a bucket does not pin its capacity for the
//! rest of the run.
//!
//! ## The caller contract
//!
//! Pushed keys must be `>=` the key of the last popped item (the
//! engine's "no scheduling into the past" rule, asserted in the
//! engine). Within that rule any key is placed correctly, so
//! [`peek`] and [`min_key`] may load the next bucket too: a push below
//! it — the chaos layer injecting aborts *at* the current instant after
//! a peek — lands in `late` and still pops first.
//!
//! [`peek`]: EventQueue::peek
//! [`min_key`]: EventQueue::min_key

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem;

/// Total order key: `(time_ns, seq)`. The sequence is unique within a
/// run, so keys never tie.
pub type Key = (u64, u64);

/// An item with a stable scheduling key.
pub trait Keyed {
    /// The item's `(time_ns, seq)` ordering key. Must not change while
    /// the item is queued.
    fn key(&self) -> Key;
}

/// A queue that drains [`Keyed`] items in ascending key order.
///
/// `min_key` and `peek` take `&mut self` — implementations may reorganize
/// storage (load and sort a bucket) to answer, but after a peek a push
/// of any key `>=` the last popped key, the peeked key included, must
/// still be accepted and ordered correctly.
pub trait EventQueue<T: Keyed> {
    /// Insert an item. The key must be `>=` the last popped key.
    fn push(&mut self, item: T);
    /// The smallest key currently queued.
    fn min_key(&mut self) -> Option<Key>;
    /// Borrow the item with the smallest key.
    fn peek(&mut self) -> Option<&T>;
    /// Remove and return the item with the smallest key.
    fn pop(&mut self) -> Option<T>;
    /// Queued item count.
    fn len(&self) -> usize;
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Heap entry: key cached so ordering never re-asks the item.
struct Entry<T> {
    key: Key,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// The reference implementation: a plain binary min-heap. O(log n)
/// push/pop, trivially correct — kept as the differential-test oracle
/// and selectable via [`QueueKind::Heap`].
#[derive(Default)]
pub struct HeapQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T: Keyed> HeapQueue<T> {
    /// An empty heap queue.
    pub fn new() -> HeapQueue<T> {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<T: Keyed> EventQueue<T> for HeapQueue<T> {
    fn push(&mut self, item: T) {
        let key = item.key();
        self.heap.push(Reverse(Entry { key, item }));
    }

    fn min_key(&mut self) -> Option<Key> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    fn peek(&mut self) -> Option<&T> {
        self.heap.peek().map(|Reverse(e)| &e.item)
    }

    fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|Reverse(e)| e.item)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// log2 of the bucket width in nanoseconds: 2^13 ns ≈ 8.2 µs — on the
/// order of a small frame's transmission time at 10 Mb/s, so a busy
/// link's events spread over a handful of buckets instead of piling
/// into one.
pub const SLOT_SHIFT: u32 = 13;

/// Bucket count (power of two). The wheel horizon is
/// `SLOTS << SLOT_SHIFT` ns ≈ 4.2 ms; anything scheduled further out
/// waits in the overflow level.
pub const SLOTS: usize = 512;

const SLOT_MASK: u64 = SLOTS as u64 - 1;
const WORDS: usize = SLOTS / 64;

/// Entries a bucket allocates on its first push. Drained buckets are
/// freed, so every bucket starts from nothing; without this a bucket of
/// a few dozen entries pays a chain of doubling reallocations, enough to
/// cost `bulk_groups` (≈ 32 entries per bucket) about 0.9 % of its run
/// instructions.
const BUCKET_RESERVE: usize = 64;

/// The calendar queue: a timing wheel over near-future buckets with a
/// heap-sorted overflow level. See the module docs for the drain, its
/// invariant and the caller contract.
pub struct CalendarQueue<T> {
    buckets: Vec<Vec<(Key, T)>>,
    /// Occupancy bitmap over slots (bit set ⇔ bucket non-empty).
    occupied: [u64; WORDS],
    /// Absolute index (`time_ns >> SLOT_SHIFT`) of the drain bucket.
    cur_abs: u64,
    /// The drain bucket, sorted descending: its minimum is the tail.
    run: Vec<(Key, T)>,
    /// Items pushed at or below `cur_abs` after the drain loaded it.
    late: BinaryHeap<Reverse<Entry<T>>>,
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    len: usize,
}

impl<T: Keyed> Default for CalendarQueue<T> {
    fn default() -> CalendarQueue<T> {
        CalendarQueue::new()
    }
}

impl<T: Keyed> CalendarQueue<T> {
    /// An empty calendar queue with its drain position at time zero.
    pub fn new() -> CalendarQueue<T> {
        let mut buckets = Vec::with_capacity(SLOTS);
        buckets.resize_with(SLOTS, Vec::new);
        CalendarQueue {
            buckets,
            occupied: [0; WORDS],
            cur_abs: 0,
            run: Vec::new(),
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    #[inline]
    fn slot_of(abs: u64) -> usize {
        (abs & SLOT_MASK) as usize
    }

    /// Absolute index of the first non-empty wheel bucket, scanning the
    /// occupancy bitmap circularly from `cur_abs + 1` (every occupied
    /// slot holds items within `(cur_abs, cur_abs + SLOTS)`, so circular
    /// distance equals absolute distance).
    fn next_occupied(&self) -> Option<u64> {
        let from = self.cur_abs + 1;
        let start = Self::slot_of(from);
        let mut idx = start >> 6;
        let mut word = self.occupied.get(idx).copied().unwrap_or(0) & (!0u64 << (start & 63));
        for _ in 0..=WORDS {
            if word != 0 {
                let bit = (idx << 6) + word.trailing_zeros() as usize;
                let d = (bit + SLOTS - start) % SLOTS;
                return Some(from + d as u64);
            }
            idx = (idx + 1) % WORDS;
            word = self.occupied.get(idx).copied().unwrap_or(0);
        }
        None
    }

    /// The place step: route an item to `late`, its wheel bucket or the
    /// overflow by its bucket's position relative to `cur_abs`.
    fn place(&mut self, key: Key, item: T) {
        let abs = key.0 >> SLOT_SHIFT;
        if abs <= self.cur_abs {
            self.late.push(Reverse(Entry { key, item }));
        } else if abs < self.cur_abs + SLOTS as u64 {
            let slot = Self::slot_of(abs);
            if let (Some(b), Some(w)) =
                (self.buckets.get_mut(slot), self.occupied.get_mut(slot >> 6))
            {
                if b.capacity() == 0 {
                    b.reserve(BUCKET_RESERVE);
                }
                b.push((key, item));
                *w |= 1u64 << (slot & 63);
            }
        } else {
            self.overflow.push(Reverse(Entry { key, item }));
        }
    }

    /// The refill step, run when `run` and `late` are both empty: move
    /// the next occupied bucket out as `run` (with the wheel dry, jump
    /// to the overflow minimum's bucket), migrate the overflow items
    /// the advanced window now covers, and sort `run` descending. Keys
    /// are unique, so the unstable sort is deterministic. `None` when
    /// the queue is empty. Cold: it runs once per bucket, and kept out
    /// of line it leaves `pop`/`peek`/`min_key` small where the engine
    /// inlines them.
    #[cold]
    fn refill(&mut self) -> Option<()> {
        // Free the drained bucket's allocation: buckets are not pooled.
        self.run = Vec::new();
        let next = match self.next_occupied() {
            Some(abs) => abs,
            None => self
                .overflow
                .peek()
                .map(|Reverse(e)| e.key.0 >> SLOT_SHIFT)?,
        };
        let slot = Self::slot_of(next);
        if let (Some(b), Some(w)) = (self.buckets.get_mut(slot), self.occupied.get_mut(slot >> 6)) {
            self.run = mem::take(b);
            *w &= !(1u64 << (slot & 63));
        }
        self.cur_abs = next;
        let horizon = next + SLOTS as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(e)| (e.key.0 >> SLOT_SHIFT) < horizon)
        {
            if let Some(Reverse(e)) = self.overflow.pop() {
                self.place(e.key, e.item);
            }
        }
        self.run.sort_unstable_by_key(|e| Reverse(e.0));
        Some(())
    }

    /// Whether the minimum is `run`'s tail (else `late`'s top), refilling
    /// first when both are empty. `None` when the queue is empty.
    fn min_in_run(&mut self) -> Option<bool> {
        if self.run.is_empty() && self.late.is_empty() {
            self.refill()?;
        }
        Some(match (self.run.last(), self.late.peek()) {
            (Some(r), Some(Reverse(l))) => r.0 < l.key,
            (r, _) => r.is_some(),
        })
    }
}

impl<T: Keyed> EventQueue<T> for CalendarQueue<T> {
    fn push(&mut self, item: T) {
        self.place(item.key(), item);
        self.len += 1;
    }

    fn min_key(&mut self) -> Option<Key> {
        if self.min_in_run()? {
            self.run.last().map(|e| e.0)
        } else {
            self.late.peek().map(|Reverse(e)| e.key)
        }
    }

    fn peek(&mut self) -> Option<&T> {
        if self.min_in_run()? {
            self.run.last().map(|e| &e.1)
        } else {
            self.late.peek().map(|Reverse(e)| &e.item)
        }
    }

    fn pop(&mut self) -> Option<T> {
        let item = if self.min_in_run()? {
            self.run.pop().map(|e| e.1)
        } else {
            self.late.pop().map(|Reverse(e)| e.item)
        };
        if item.is_some() {
            self.len -= 1;
        }
        item
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// Which queue implementation the engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The reference binary heap.
    Heap,
    /// The calendar/timing-wheel queue (the default).
    #[default]
    Calendar,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    struct Item(u64, u64);
    impl Keyed for Item {
        fn key(&self) -> Key {
            (self.0, self.1)
        }
    }

    fn drain<Q: EventQueue<Item>>(q: &mut Q) -> Vec<Key> {
        let mut out = Vec::new();
        while let Some(i) = q.pop() {
            out.push(i.key());
        }
        out
    }

    #[test]
    fn empty_queues() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let mut h: HeapQueue<Item> = HeapQueue::new();
        assert!(w.pop().is_none() && h.pop().is_none());
        assert!(w.min_key().is_none() && h.min_key().is_none());
        assert!(w.is_empty() && h.is_empty());
    }

    #[test]
    fn same_bucket_ordering_by_seq() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        for seq in [3u64, 1, 2, 0] {
            w.push(Item(100, seq));
        }
        assert_eq!(drain(&mut w), vec![(100, 0), (100, 1), (100, 2), (100, 3)]);
    }

    #[test]
    fn far_future_goes_to_overflow_and_back() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let horizon = (SLOTS as u64) << SLOT_SHIFT;
        w.push(Item(horizon * 3, 0));
        w.push(Item(5, 1));
        assert_eq!(w.len(), 2);
        assert_eq!(w.min_key(), Some((5, 1)));
        assert_eq!(w.pop().map(|i| i.key()), Some((5, 1)));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon * 3, 0)));
        assert!(w.pop().is_none());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn push_at_popped_instant_lands_in_front() {
        // The chaos-layer pattern: peek, then push at the peeked instant,
        // then pop — the same-instant push must come out in seq order.
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        w.push(Item(1000, 0));
        w.push(Item(2000, 1));
        assert_eq!(w.min_key(), Some((1000, 0)));
        w.push(Item(1000, 2)); // injected at the peeked instant
        assert_eq!(
            drain(&mut w),
            vec![(1000, 0), (1000, 2), (2000, 1)],
            "same-instant injection after a peek must not fall behind the drain"
        );
    }

    #[test]
    fn push_below_the_bucket_min_key_loaded_pops_first() {
        // `min_key` loads bucket 5 while the floor is still at zero; a
        // later push into bucket 2 is legal and must pop first.
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let width = 1u64 << SLOT_SHIFT;
        w.push(Item(5 * width, 0));
        assert_eq!(w.min_key(), Some((5 * width, 0)));
        w.push(Item(2 * width, 1));
        assert_eq!(w.min_key(), Some((2 * width, 1)));
        assert_eq!(drain(&mut w), vec![(2 * width, 1), (5 * width, 0)]);
    }

    #[test]
    fn drained_bucket_frees_its_allocation() {
        // Buckets are not pooled: once a 10 000-item bucket is drained,
        // neither its wheel slot nor the drain run still holds capacity.
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let width = 1u64 << SLOT_SHIFT;
        for seq in 0..10_000u64 {
            w.push(Item(3 * width + seq % width, seq));
        }
        assert_eq!(drain(&mut w).len(), 10_000);
        assert!(w.buckets.iter().all(|b| b.capacity() == 0));
        assert_eq!(w.run.capacity(), 0);
    }

    #[test]
    fn window_advance_migrates_overflow_before_wheel_items_pass_it() {
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let horizon = (SLOTS as u64) << SLOT_SHIFT;
        // Overflow item just past the horizon…
        w.push(Item(horizon + 10, 0));
        // …and a near item. Popping the near item advances the window far
        // enough that the overflow item is now inside it.
        w.push(Item(horizon - 10, 1));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon - 10, 1)));
        // A later wheel push *above* the migrated overflow item must not
        // overtake it.
        w.push(Item(horizon + 20, 2));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon + 10, 0)));
        assert_eq!(w.pop().map(|i| i.key()), Some((horizon + 20, 2)));
    }

    #[test]
    fn interleaved_random_schedule_matches_heap() {
        // A miniature differential check (the full 32-seed suite lives in
        // tests/queue_differential.rs): pseudo-random pushes interleaved
        // with pops, clock advancing to each popped time.
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut rnd = move || {
            lcg ^= lcg << 13;
            lcg ^= lcg >> 7;
            lcg ^= lcg << 17;
            lcg
        };
        let mut w: CalendarQueue<Item> = CalendarQueue::new();
        let mut h: HeapQueue<Item> = HeapQueue::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut popped = (Vec::new(), Vec::new());
        for _ in 0..5_000 {
            if rnd() % 3 != 0 {
                let dt = rnd() % 5_000_000; // up to 5 ms ahead (≥ horizon)
                let t = now + dt;
                w.push(Item(t, seq));
                h.push(Item(t, seq));
                seq += 1;
            } else {
                let (a, b) = (w.pop(), h.pop());
                assert_eq!(a.as_ref().map(Item::key), b.as_ref().map(Item::key));
                if let Some(i) = &a {
                    now = i.0;
                    popped.0.push(i.key());
                }
                if let Some(i) = &b {
                    popped.1.push(i.key());
                }
            }
            assert_eq!(w.len(), h.len());
        }
        while let (Some(a), Some(b)) = (w.pop(), h.pop()) {
            assert_eq!(a.key(), b.key());
            popped.0.push(a.key());
            popped.1.push(b.key());
        }
        assert!(w.pop().is_none() && h.pop().is_none());
        assert_eq!(popped.0, popped.1);
    }
}
