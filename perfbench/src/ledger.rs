//! The outside-in tracing layer: a delegating timing [`Node`] wrapper
//! and an in-memory span log.
//!
//! Nothing inside the program is instrumented. The traced run wraps
//! every node in [`Timed`], which forwards each `Node` method to the
//! node it wraps (so `sim.node::<ViperRouter>()` still downcasts) and
//! times each callback with the wall clock. Callback spans are
//! aggregated per node — calls, events and busy nanoseconds — rather
//! than stored one by one: a 1024-router run makes over ten million
//! callbacks. Each wrapper writes its totals out when the simulator
//! that owns it is dropped; [`take_node_spans`] collects them.
//!
//! Coarse spans (setup calls, `run_until`, shard calls, replayed layer
//! calls) are recorded individually in a [`SpanLog`].

use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

use sirpent::sim::{Context, Event, Node};
use sirpent::telemetry::{Registry, RegistryError};

use crate::workload::FORGED_TAG;

/// What a wrapped node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A `ViperRouter`.
    Router,
    /// A `SirpentHost`.
    Host,
    /// A `ScriptedHost` attacker.
    Attacker,
}

impl Kind {
    /// Label used in the span output.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Router => "router",
            Kind::Host => "host",
            Kind::Attacker => "attacker",
        }
    }
}

/// One node's aggregated callback spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpan {
    /// Node id (`NodeId.0`).
    pub node: usize,
    /// Node kind.
    pub kind: Kind,
    /// Callbacks (`on_event` / `on_events` invocations).
    pub calls: u64,
    /// Events delivered through those callbacks.
    pub events: u64,
    /// Wall nanoseconds spent inside the wrapped node.
    pub busy_ns: u64,
    /// Arriving frames whose leading segment carries a forged token.
    pub forged_frames_in: u64,
}

thread_local! {
    static NODE_SPANS: RefCell<Vec<NodeSpan>> = const { RefCell::new(Vec::new()) };
}

/// Take every node span written out so far on this thread.
pub fn take_node_spans() -> Vec<NodeSpan> {
    NODE_SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// The p2p link tag of a Sirpent packet frame.
fn sirpent_tag() -> u8 {
    use sirpent::router::LinkFrame;
    use sirpent::wire::buf::PacketBuf;
    let f = LinkFrame::Sirpent {
        ff_hint: 0,
        packet: PacketBuf::new(),
    };
    f.to_p2p_bytes()[0]
}

/// A delegating timing wrapper. See the module docs.
pub struct Timed<N: Node> {
    inner: N,
    span: NodeSpan,
    /// Count forged frames on arrival (forged_flood only).
    watch_forged: bool,
    sirpent_tag: u8,
}

impl<N: Node> Timed<N> {
    /// Wrap `inner`, which will be node `node` of kind `kind`.
    pub fn new(inner: N, node: usize, kind: Kind, watch_forged: bool) -> Timed<N> {
        Timed {
            inner,
            span: NodeSpan {
                node,
                kind,
                calls: 0,
                events: 0,
                busy_ns: 0,
                forged_frames_in: 0,
            },
            watch_forged,
            sirpent_tag: sirpent_tag(),
        }
    }

    /// Whether `ev` is a Sirpent frame whose leading segment carries a
    /// 32-byte token starting with [`FORGED_TAG`]. Frame layout:
    /// `[tag, ff_hint]` link header, then the segment's
    /// `[info_len, token_len, port, flags]` and the token (point-to-point
    /// segments carry no port info).
    fn is_forged(&self, ev: &Event) -> bool {
        let Event::Frame(fe) = ev else {
            return false;
        };
        let f = &fe.frame.payload;
        if f.byte(0) != Some(self.sirpent_tag) || f.byte(2) != Some(0) || f.byte(3) != Some(32) {
            return false;
        }
        FORGED_TAG
            .iter()
            .enumerate()
            .all(|(i, &b)| f.byte(6 + i) == Some(b))
    }
}

impl<N: Node> Node for Timed<N> {
    fn on_event(&mut self, ctx: &mut Context<'_>, ev: Event) {
        if self.watch_forged && self.is_forged(&ev) {
            self.span.forged_frames_in += 1;
        }
        let t = Instant::now();
        self.inner.on_event(ctx, ev);
        self.span.busy_ns += t.elapsed().as_nanos() as u64;
        self.span.calls += 1;
        self.span.events += 1;
    }

    fn on_events(&mut self, ctx: &mut Context<'_>, batch: &mut Vec<Event>) {
        if self.watch_forged {
            let n = batch.iter().filter(|ev| self.is_forged(ev)).count();
            self.span.forged_frames_in += n as u64;
        }
        let n = batch.len() as u64;
        let t = Instant::now();
        self.inner.on_events(ctx, batch);
        self.span.busy_ns += t.elapsed().as_nanos() as u64;
        self.span.calls += 1;
        self.span.events += n;
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }

    fn node_stats(&self) -> Option<&dyn sirpent::sim::stats::NodeStats> {
        self.inner.node_stats()
    }

    fn on_restart(&mut self) {
        self.inner.on_restart();
    }

    fn publish_telemetry(&self, reg: &mut Registry) -> Result<(), RegistryError> {
        self.inner.publish_telemetry(reg)
    }
}

impl<N: Node> Drop for Timed<N> {
    fn drop(&mut self) {
        let span = self.span;
        // `try_with`: a wrapper dropped during thread teardown has
        // nowhere to write and must not panic.
        let _ = NODE_SPANS.try_with(|s| s.borrow_mut().push(span));
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span log, written out when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> SpanLog {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Close the innermost open span (which must be `idx`); returns its
    /// duration in seconds.
    pub fn close(&mut self, idx: usize) -> f64 {
        let end = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close innermost first");
        self.open.pop();
        let s = &mut self.spans[idx];
        s.end_ns = end;
        s.dur_ns() as f64 / 1e9
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut SpanLog) -> T) -> T {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Every span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Self time of span `idx`: its duration minus the part of it its
    /// direct children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_ns)
            .sum();
        self.spans[idx].dur_ns().saturating_sub(children)
    }
}

/// Per-kind totals of a set of node spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindTotals {
    /// Callbacks.
    pub calls: u64,
    /// Events.
    pub events: u64,
    /// Busy seconds.
    pub busy_s: f64,
}

/// Sum `spans` of kind `kind`.
pub fn totals(spans: &[NodeSpan], kind: Kind) -> KindTotals {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .fold(KindTotals::default(), |t, s| KindTotals {
            calls: t.calls + s.calls,
            events: t.events + s.events,
            busy_s: t.busy_s + s.busy_ns as f64 / 1e9,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new();
        let outer = log.open("outer");
        log.time("child", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.close(outer);
        let d = log.spans()[outer].dur_ns();
        let child = log.spans()[1].dur_ns();
        assert_eq!(log.spans()[1].parent, Some(outer));
        assert_eq!(log.self_ns(outer), d - child);
        assert!(child >= 2_000_000);
    }
}
