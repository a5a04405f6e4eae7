//! Multi-route failover (§6.3).
//!
//! "Clients can request multiple routes (rather than a single route) to
//! the desired host or service, and switch between these routes based on
//! the performance of the different routes. Because the client knows the
//! base round trip time for the route, measures the actual round trip
//! time as part of reliable communication, and receives feedback from
//! the rate-based congestion control mechanism …, it is able to quickly
//! detect and react to congestion and link failures."
//!
//! The manager is generic over the route payload `R` (the core crate
//! stores compiled VIPER routes in it).
//!
//! **Weighted spreading.** A set built with
//! [`RouteSet::new_weighted`] additionally carries a weight per route —
//! the directory's advertised residual capacity — and
//! [`RouteSet::select_for_flow`] pins each transaction to a route by
//! weighted rendezvous hashing: flows spread across the k granted
//! routes in proportion to the advertised headroom instead of piling
//! onto the first one. The choice is a pure function of the flow key
//! and the weights (integer arithmetic, deterministic tie-break by
//! route index), so every run — and every shard count — picks the same
//! routes.

use sirpent_sim::{SimDuration, SimTime};

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pick an index from `weights` for `flow`, deterministically: hash the
/// flow key, reduce modulo the total weight, and walk the cumulative
/// weights in index order (zero weights are treated as 1 so every route
/// keeps a sliver of traffic and the total can never be zero). Exposed
/// so control-plane planners can mirror exactly what a host would pick.
pub fn weighted_pick(weights: &[u64], flow: u64) -> usize {
    if weights.is_empty() {
        return 0;
    }
    let total: u128 = weights.iter().map(|&w| w.max(1) as u128).sum();
    let mut r = (splitmix64(flow) as u128) % total;
    for (i, &w) in weights.iter().enumerate() {
        let w = w.max(1) as u128;
        if r < w {
            return i;
        }
        r -= w;
    }
    weights.len() - 1
}

/// Detection thresholds.
#[derive(Debug, Clone, Copy)]
pub struct FailoverPolicy {
    /// Switch when the measured RTT exceeds `rtt_factor ×` the base RTT.
    pub rtt_factor: f64,
    /// Switch after this many consecutive losses (timeouts).
    pub loss_threshold: u32,
    /// Switch immediately on receiving backpressure naming our route.
    pub switch_on_backpressure: bool,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy {
            rtt_factor: 3.0,
            loss_threshold: 2,
            switch_on_backpressure: true,
        }
    }
}

/// One managed route and its health state.
#[derive(Debug, Clone)]
struct Managed<R> {
    route: R,
    base_rtt: SimDuration,
    /// Spreading weight (advertised residual capacity); 0 in unweighted
    /// sets.
    weight: u64,
    consecutive_losses: u32,
    samples: u64,
    last_rtt: Option<SimDuration>,
}

/// What the client learned from an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep using the current route.
    Stay,
    /// Switched to the route now current (index given).
    Switched(usize),
    /// All routes look bad; a directory re-query is needed
    /// (on-use cache invalidation, §3).
    Requery,
}

/// The failover manager.
#[derive(Debug, Clone)]
pub struct RouteSet<R> {
    routes: Vec<Managed<R>>,
    current: usize,
    policy: FailoverPolicy,
    /// Whether per-flow weighted spreading is enabled (weighted sets).
    spread: bool,
    /// Total route switches performed.
    pub switches: u64,
    /// Per-flow weighted re-selections that changed the current route.
    pub reselections: u64,
    /// When the last switch happened.
    pub last_switch: Option<SimTime>,
}

impl<R> RouteSet<R> {
    /// Manage a set of (route, base-RTT) alternatives; the first is used
    /// initially.
    pub fn new(routes: Vec<(R, SimDuration)>, policy: FailoverPolicy) -> RouteSet<R> {
        assert!(!routes.is_empty(), "at least one route required");
        RouteSet {
            routes: routes
                .into_iter()
                .map(|(route, base_rtt)| Managed {
                    route,
                    base_rtt,
                    weight: 0,
                    consecutive_losses: 0,
                    samples: 0,
                    last_rtt: None,
                })
                .collect(),
            current: 0,
            policy,
            spread: false,
            switches: 0,
            reselections: 0,
            last_switch: None,
        }
    }

    /// Manage a set of (route, base-RTT, weight) alternatives with
    /// per-flow weighted spreading enabled. Weights are the directory's
    /// advertised residual capacity; a zero weight is treated as 1.
    pub fn new_weighted(routes: Vec<(R, SimDuration, u64)>, policy: FailoverPolicy) -> RouteSet<R> {
        assert!(!routes.is_empty(), "at least one route required");
        RouteSet {
            routes: routes
                .into_iter()
                .map(|(route, base_rtt, weight)| Managed {
                    route,
                    base_rtt,
                    weight,
                    consecutive_losses: 0,
                    samples: 0,
                    last_rtt: None,
                })
                .collect(),
            current: 0,
            policy,
            spread: true,
            switches: 0,
            reselections: 0,
            last_switch: None,
        }
    }

    /// The route in use.
    pub fn current(&self) -> &R {
        &self.routes[self.current].route
    }

    /// Index of the route in use.
    pub fn current_index(&self) -> usize {
        self.current
    }

    /// Number of alternatives.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Base RTT of the current route ("the client knows the base round
    /// trip time", §6.3).
    pub fn base_rtt(&self) -> SimDuration {
        self.routes[self.current].base_rtt
    }

    /// A retransmission timeout for the current route: a small multiple
    /// of base RTT before any samples, then of the last measured RTT.
    pub fn timeout(&self) -> SimDuration {
        let m = &self.routes[self.current];
        let basis = m.last_rtt.unwrap_or(m.base_rtt);
        SimDuration(basis.as_nanos().saturating_mul(2).max(1))
    }

    fn switch(&mut self, now: SimTime) -> Verdict {
        if self.routes.len() == 1 {
            return Verdict::Requery;
        }
        let all_bad = self
            .routes
            .iter()
            .all(|r| r.consecutive_losses >= self.policy.loss_threshold);
        if all_bad {
            return Verdict::Requery;
        }
        // Rotate to the next route that isn't known-bad.
        let n = self.routes.len();
        for step in 1..n {
            let cand = (self.current + step) % n;
            if self.routes[cand].consecutive_losses < self.policy.loss_threshold {
                self.current = cand;
                self.switches += 1;
                self.last_switch = Some(now);
                return Verdict::Switched(cand);
            }
        }
        Verdict::Requery
    }

    /// An RTT sample completed on the current route.
    pub fn on_rtt_sample(&mut self, now: SimTime, rtt: SimDuration) -> Verdict {
        let m = &mut self.routes[self.current];
        m.samples += 1;
        m.last_rtt = Some(rtt);
        m.consecutive_losses = 0;
        let limit = m.base_rtt.as_nanos() as f64 * self.policy.rtt_factor;
        if rtt.as_nanos() as f64 > limit {
            // Congestion detected by RTT inflation.
            self.switch(now)
        } else {
            Verdict::Stay
        }
    }

    /// A timeout (loss) on the current route.
    pub fn on_loss(&mut self, now: SimTime) -> Verdict {
        let m = &mut self.routes[self.current];
        m.consecutive_losses += 1;
        if m.consecutive_losses >= self.policy.loss_threshold {
            self.switch(now)
        } else {
            Verdict::Stay
        }
    }

    /// Backpressure feedback arrived attributable to the current route.
    pub fn on_backpressure(&mut self, now: SimTime) -> Verdict {
        if self.policy.switch_on_backpressure {
            self.switch(now)
        } else {
            Verdict::Stay
        }
    }

    /// Crash/restart state-loss contract (chaos layer): RTT samples and
    /// loss counts are observations — soft state — while the route set
    /// itself is directory-sourced configuration and survives. A
    /// restarted client forgets all health history and starts over on
    /// the primary route; the cumulative `switches` telemetry is kept.
    pub fn reset_health(&mut self) {
        for m in &mut self.routes {
            m.consecutive_losses = 0;
            m.samples = 0;
            m.last_rtt = None;
        }
        self.current = 0;
    }

    /// Replace the whole set after a directory re-query.
    pub fn replace(&mut self, routes: Vec<(R, SimDuration)>) {
        assert!(!routes.is_empty());
        *self = RouteSet::new(routes, self.policy);
    }

    /// Whether per-flow weighted spreading is enabled.
    pub fn spreads(&self) -> bool {
        self.spread
    }

    /// Pin the current route for one flow/transaction by weighted
    /// rendezvous hash over the *healthy* routes (those under the loss
    /// threshold). No-op for unweighted sets — existing failover-only
    /// clients keep their sticky-route behavior. Returns the index now
    /// current.
    ///
    /// Health still matters: a route that crossed the loss threshold
    /// receives no new flows until a success resets its counter or
    /// [`RouteSet::reset_health`] runs, but selection never touches the
    /// failover bookkeeping (`switches` / `last_switch`), so the two
    /// mechanisms stay independently observable.
    pub fn select_for_flow(&mut self, flow: u64) -> usize {
        if !self.spread {
            return self.current;
        }
        let healthy: Vec<usize> = (0..self.routes.len())
            .filter(|&i| self.routes[i].consecutive_losses < self.policy.loss_threshold)
            .collect();
        if healthy.is_empty() {
            return self.current;
        }
        let weights: Vec<u64> = healthy.iter().map(|&i| self.routes[i].weight).collect();
        let chosen = healthy[weighted_pick(&weights, flow)];
        if chosen != self.current {
            self.current = chosen;
            self.reselections += 1;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> RouteSet<&'static str> {
        RouteSet::new(
            vec![
                ("primary", SimDuration::from_millis(2)),
                ("backup", SimDuration::from_millis(5)),
            ],
            FailoverPolicy::default(),
        )
    }

    #[test]
    fn healthy_route_stays() {
        let mut s = set();
        for _ in 0..10 {
            assert_eq!(
                s.on_rtt_sample(SimTime(1), SimDuration::from_millis(2)),
                Verdict::Stay
            );
        }
        assert_eq!(*s.current(), "primary");
        assert_eq!(s.switches, 0);
    }

    #[test]
    fn rtt_inflation_triggers_switch() {
        let mut s = set();
        // 3× base = 6 ms; 7 ms sample trips it.
        let v = s.on_rtt_sample(SimTime(9), SimDuration::from_millis(7));
        assert_eq!(v, Verdict::Switched(1));
        assert_eq!(*s.current(), "backup");
        assert_eq!(s.last_switch, Some(SimTime(9)));
    }

    #[test]
    fn losses_trigger_switch_then_requery() {
        let mut s = set();
        assert_eq!(s.on_loss(SimTime(1)), Verdict::Stay);
        assert_eq!(s.on_loss(SimTime(2)), Verdict::Switched(1));
        // Backup dies too → nothing left → requery.
        assert_eq!(s.on_loss(SimTime(3)), Verdict::Stay);
        assert_eq!(s.on_loss(SimTime(4)), Verdict::Requery);
    }

    #[test]
    fn success_resets_loss_counter() {
        let mut s = set();
        s.on_loss(SimTime(1));
        s.on_rtt_sample(SimTime(2), SimDuration::from_millis(2));
        assert_eq!(s.on_loss(SimTime(3)), Verdict::Stay, "counter was reset");
    }

    #[test]
    fn backpressure_switches_when_enabled() {
        let mut s = set();
        assert_eq!(s.on_backpressure(SimTime(5)), Verdict::Switched(1));
        let mut s2 = RouteSet::new(
            vec![("only", SimDuration::from_millis(1))],
            FailoverPolicy {
                switch_on_backpressure: false,
                ..Default::default()
            },
        );
        assert_eq!(s2.on_backpressure(SimTime(5)), Verdict::Stay);
    }

    #[test]
    fn timeout_uses_base_then_measured_rtt() {
        let mut s = set();
        assert_eq!(s.timeout(), SimDuration::from_millis(4), "2× base");
        s.on_rtt_sample(SimTime(1), SimDuration::from_millis(3));
        assert_eq!(s.timeout(), SimDuration::from_millis(6), "2× measured");
    }

    #[test]
    fn replace_resets_state() {
        let mut s = set();
        s.on_loss(SimTime(1));
        s.on_loss(SimTime(2));
        s.replace(vec![("fresh", SimDuration::from_millis(1))]);
        assert_eq!(*s.current(), "fresh");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn reset_health_forgets_observations_keeps_routes() {
        let mut s = set();
        s.on_loss(SimTime(1));
        s.on_loss(SimTime(2)); // switched to backup
        assert_eq!(*s.current(), "backup");
        s.reset_health();
        assert_eq!(*s.current(), "primary", "starts over on the primary");
        assert_eq!(s.len(), 2, "routes are configuration and survive");
        assert_eq!(s.switches, 1, "telemetry survives");
        assert_eq!(s.timeout(), SimDuration::from_millis(4), "2× base again");
        assert_eq!(s.on_loss(SimTime(3)), Verdict::Stay, "counters cleared");
    }

    #[test]
    fn weighted_pick_is_deterministic_and_proportional() {
        let weights = [3_000_000u64, 1_000_000];
        let mut counts = [0usize; 2];
        for flow in 0..4000u64 {
            let i = weighted_pick(&weights, flow);
            assert_eq!(i, weighted_pick(&weights, flow), "pure function");
            counts[i] += 1;
        }
        // 3:1 weights → roughly 3:1 split (hash noise allowed).
        assert!(counts[0] > counts[1] * 2, "split was {counts:?}");
        assert!(counts[1] > 500, "split was {counts:?}");
        // Zero weights never divide by zero and keep a sliver.
        assert_eq!(weighted_pick(&[0, 0], 1), weighted_pick(&[1, 1], 1));
        assert_eq!(weighted_pick(&[], 7), 0);
    }

    #[test]
    fn select_for_flow_spreads_weighted_sets_only() {
        let mut uw = set();
        assert_eq!(uw.select_for_flow(123), 0, "unweighted: sticky");
        assert_eq!(uw.reselections, 0);

        let mut s = RouteSet::new_weighted(
            vec![
                ("wide", SimDuration::from_millis(2), 9_000_000),
                ("thin", SimDuration::from_millis(2), 1_000_000),
            ],
            FailoverPolicy::default(),
        );
        assert!(s.spreads());
        let mut hits = [0usize; 2];
        for flow in 0..1000u64 {
            hits[s.select_for_flow(flow)] += 1;
        }
        assert!(hits[0] > 800, "wide route dominates: {hits:?}");
        assert!(hits[1] > 30, "thin route still serves flows: {hits:?}");
        assert!(s.reselections > 0);
        assert_eq!(s.switches, 0, "spreading is not failover");
    }

    #[test]
    fn select_for_flow_skips_unhealthy_routes() {
        let mut s = RouteSet::new_weighted(
            vec![
                ("a", SimDuration::from_millis(2), 1),
                ("b", SimDuration::from_millis(2), 1),
            ],
            FailoverPolicy::default(),
        );
        // Drive route a (initially current) over the loss threshold;
        // the second loss also fails over to b.
        s.on_loss(SimTime(1));
        s.on_loss(SimTime(2));
        for flow in 0..100u64 {
            assert_eq!(s.select_for_flow(flow), 1, "dead route gets no flows");
        }
        // Operator recovery: forget health, both routes rotate again.
        s.reset_health();
        let spread: std::collections::BTreeSet<usize> =
            (0..100u64).map(|f| s.select_for_flow(f)).collect();
        assert_eq!(spread.len(), 2, "both routes back in rotation");
    }

    #[test]
    fn single_route_requery_on_failure() {
        let mut s = RouteSet::new(
            vec![("only", SimDuration::from_millis(1))],
            FailoverPolicy::default(),
        );
        s.on_loss(SimTime(1));
        assert_eq!(s.on_loss(SimTime(2)), Verdict::Requery);
    }
}
