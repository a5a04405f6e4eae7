//! # sirpent-directory — the routing directory service
//!
//! §3 of the paper merges routing into the internetwork *name* directory:
//! "a query about a service can return routes to the service as well as
//! other attributes of the service", relative to the requesting client,
//! together with the authorizing tokens. This crate provides:
//!
//! * [`name`] — hierarchical character-string names and region math
//!   (`cs.stanford.edu` is both a naming and a routing domain);
//! * [`route`] — route records with per-hop properties (bandwidth,
//!   propagation delay, MTU, cost, security) and client preferences;
//! * [`server`] — the directory itself: registration, multi-route
//!   queries, load/failure reports, token issuance, billing aggregation,
//!   and the region-distance query-latency model;
//! * [`cache`] — the client-side advisory cache with on-use staleness
//!   detection;
//! * [`te`] — the directory's one link map ([`TeTopology`]: per-link
//!   peer, delay / bandwidth / MTU / cost, reported load and up/down
//!   state) with an epoch counter, and the traffic-engineering control
//!   plane's constrained Yen-style k-shortest route search with
//!   congestion detours; every load/failure report lands here;
//! * [`alternates`] — route protection at grant time on that map
//!   ([`TeTopology::protect`]): per-hop link-disjoint detours encoded as
//!   Slick-Packets-style alternate branches over the route's own tail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alternates;
pub mod cache;
pub mod name;
pub mod route;
pub mod server;
pub mod te;

pub use cache::RouteCache;
pub use name::Name;
pub use route::{
    AccessSpec, EthernetHop, HopSpec, Preference, RouteProperties, RouteRecord, Security,
};
pub use server::{Advisory, Directory, QueryResult, ServiceRecord, TokenIssue};
pub use te::{LinkMetrics, Peer, TeQuery, TeRoute, TeTopology};
