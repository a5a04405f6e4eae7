//! Replayed layer calls: the wire, link and token layers timed from
//! outside the simulation, on the workload's own packets and tokens.
//!
//! Each figure is the median over batches of the per-call wall time of
//! one public function, with each batch long enough (thousands of calls)
//! to sit well above timer resolution.

use std::hint::black_box;
use std::time::Instant;

use sirpent::compile::CompiledRoute;
use sirpent::router::LinkFrame;
use sirpent::token::{AuthPolicy, TokenMinter};
use sirpent::token::{SealingKey, TokenCache};
use sirpent::wire::buf::{PacketBuf, SegmentView};
use sirpent::wire::packet::PacketBuilder;
use sirpent::wire::trailer::Entry;
use sirpent::wire::viper::Priority;
use sirpent::wire::vmtp;

use crate::ledger::SpanLog;
use crate::stack::{router_id, MASTER};
use crate::stats::median;
use crate::workload::{Inputs, ATTACK_PORT};

/// Calls per timed batch.
const BATCH: usize = 4096;
/// Timed batches per figure.
const BATCHES: usize = 25;
/// At most this many routes are sampled for packets and tokens.
const SAMPLE_ROUTES: usize = 512;
/// Attackers whose forged sequences are replayed.
const REPLAY_ATTACKERS: usize = 4;

/// Per-call wall nanoseconds of each replayed layer function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Micro {
    /// `SegmentView::parse` on a packet's leading segment.
    pub segment_parse_ns: f64,
    /// Trailer `Entry::append_to_buf` of a return hop after the strip.
    pub trailer_append_ns: f64,
    /// `LinkFrame::into_p2p_frame`.
    pub frame_encode_ns: f64,
    /// `LinkFrame::from_p2p_frame`.
    pub frame_decode_ns: f64,
    /// `TokenCache::check` served from the cache.
    pub check_hit_ns: f64,
    /// `TokenCache::check` of a token the cache has not seen: a valid
    /// token on the legitimate workloads, the attackers' forged
    /// sequence (in order, one attack window) on `forged_flood`.
    pub check_miss_ns: f64,
    /// `SealingKey::unseal` of a valid token.
    pub unseal_ns: f64,
}

/// Median per-call ns of `BATCHES` batches of `op` called `BATCH` times.
/// `prep` builds a batch's inputs untimed.
fn per_call<I>(mut prep: impl FnMut(usize) -> I, mut op: impl FnMut(usize, &mut I)) -> f64 {
    let mut per = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let mut input = prep(BATCH);
        let t = Instant::now();
        for i in 0..BATCH {
            op(i, &mut input);
        }
        per.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
        black_box(&input);
    }
    median(&per)
}

/// Replay every layer on `inputs`' own packets and tokens.
pub fn measure(inputs: &Inputs, routes: &[Option<CompiledRoute>], log: &mut SpanLog) -> Micro {
    let p = &inputs.params;
    let routes: Vec<&CompiledRoute> = routes.iter().flatten().take(SAMPLE_ROUTES).collect();
    // The first group member of a request: header, VMTP framing, and up
    // to one segment of payload.
    let data = vmtp::HEADER_LEN
        + p.request_bytes.min(sirpent::build::DEFAULT_SEG_SIZE)
        + vmtp::TRAILER_LEN;
    let packets: Vec<Vec<u8>> = routes
        .iter()
        .map(|r| {
            PacketBuilder::new()
                .route(r.segments.clone())
                .payload(vec![0x5A; data])
                .build()
                .expect("workload packets fit the transmission unit")
        })
        .collect();
    let bufs: Vec<PacketBuf> = packets
        .iter()
        .map(|b| PacketBuf::from_vec(b.clone()))
        .collect();
    let pick = |i: usize| &bufs[i % bufs.len()];
    let segment_parse_ns = log.time("replay.segment_parse", |_| {
        per_call(
            |_| (),
            |i, _| {
                black_box(SegmentView::parse(black_box(pick(i))).ok());
            },
        )
    });
    let trailer_append_ns = log.time("replay.trailer_append", |_| {
        per_call(
            |n| {
                // Fresh, uniquely owned packets with the builder's
                // trailer headroom, already stripped of their leading
                // segment — the router's state at the append.
                (0..n)
                    .map(|i| {
                        let src = &packets[i % packets.len()];
                        let mut v = Vec::with_capacity(src.capacity().max(src.len() + 64));
                        v.extend_from_slice(src);
                        let mut b = PacketBuf::from_vec(v);
                        let seg = SegmentView::parse(&b).expect("built packets parse");
                        let entry = Entry::ReturnHop(seg.to_repr());
                        let len = seg.encoded_len();
                        drop(seg);
                        b.advance(len);
                        (b, entry)
                    })
                    .collect::<Vec<_>>()
            },
            |i, batch| {
                let (b, entry) = &mut batch[i];
                black_box(entry.append_to_buf(b).ok());
            },
        )
    });
    let frame_encode_ns = log.time("replay.frame_encode", |_| {
        per_call(
            |_| (),
            |i, _| {
                let f = LinkFrame::Sirpent {
                    ff_hint: 0,
                    packet: pick(i).clone(),
                };
                black_box(f.into_p2p_frame());
            },
        )
    });
    let frames: Vec<_> = bufs
        .iter()
        .map(|b| {
            LinkFrame::Sirpent {
                ff_hint: 0,
                packet: b.clone(),
            }
            .into_p2p_frame()
        })
        .collect();
    let frame_decode_ns = log.time("replay.frame_decode", |_| {
        per_call(
            |_| (),
            |i, _| {
                black_box(LinkFrame::from_p2p_frame(black_box(&frames[i % frames.len()])).ok());
            },
        )
    });

    // Valid tokens of the sampled routes: (router id, exit port, token).
    let minter = TokenMinter::new(MASTER, 0);
    let tokens: Vec<(u32, u8, Vec<u8>)> = routes
        .iter()
        .flat_map(|r| {
            r.router_ids
                .iter()
                .zip(&r.segments)
                .map(|(&id, s)| (id, s.port, s.port_token.clone()))
        })
        .collect();
    let keys: Vec<SealingKey> = tokens
        .iter()
        .map(|(id, ..)| minter.router_key(*id))
        .collect();
    let unseal_ns = log.time("replay.unseal", |_| {
        per_call(
            |_| (),
            |i, _| {
                let k = i % tokens.len();
                black_box(keys[k].unseal(black_box(&tokens[k].2)).ok());
            },
        )
    });
    // One cache per token: the hit path then never shares a map with
    // other tokens, as at a router that sees few distinct tokens.
    let mut caches: Vec<TokenCache> = tokens
        .iter()
        .zip(&keys)
        .map(|((id, port, tok), key)| {
            let mut c = TokenCache::new(key.clone(), *id, AuthPolicy::Optimistic);
            c.check(tok, *port, None, Priority::NORMAL, 64, 0);
            c
        })
        .collect();
    let check_hit_ns = log.time("replay.check_hit", |_| {
        per_call(
            |_| (),
            |i, _| {
                let k = i % tokens.len();
                let (_, port, tok) = &tokens[k];
                black_box(caches[k].check(tok, *port, None, Priority::NORMAL, 64, 0));
            },
        )
    });
    drop(caches);

    let check_miss_ns = log.time("replay.check_miss", |_| {
        if inputs.attackers.is_empty() {
            per_call(
                |n| {
                    (0..n)
                        .map(|i| {
                            let k = i % tokens.len();
                            TokenCache::new(keys[k].clone(), tokens[k].0, AuthPolicy::Optimistic)
                        })
                        .collect::<Vec<_>>()
                },
                |i, fresh| {
                    let (_, port, tok) = &tokens[i % tokens.len()];
                    black_box(fresh[i].check(tok, *port, None, Priority::NORMAL, 64, 0));
                },
            )
        } else {
            forged_miss_ns(inputs, &minter)
        }
    });
    Micro {
        segment_parse_ns,
        trailer_append_ns,
        frame_encode_ns,
        frame_decode_ns,
        check_hit_ns,
        check_miss_ns,
        unseal_ns,
    }
}

/// Replay attackers' forged sequences, in send order, into a fresh
/// cache of the router each sits on: exactly the token checks that
/// router's first hop runs, all inside one attack window.
fn forged_miss_ns(inputs: &Inputs, minter: &TokenMinter) -> f64 {
    let mut per = Vec::new();
    for a in inputs.attackers.iter().take(REPLAY_ATTACKERS) {
        let id = router_id(a.router);
        let firsts: Vec<(u8, Vec<u8>)> = a
            .frames
            .iter()
            .map(|(_, bytes)| {
                let f = LinkFrame::from_p2p_bytes(bytes).expect("attacker frames decode");
                let LinkFrame::Sirpent { packet, .. } = f else {
                    unreachable!("attackers send Sirpent frames")
                };
                let seg = SegmentView::parse(&packet).expect("forged packets parse");
                (seg.port(), seg.port_token().to_vec())
            })
            .collect();
        let mut cache = TokenCache::new(minter.router_key(id), id, AuthPolicy::Optimistic);
        let t = Instant::now();
        for (port, tok) in &firsts {
            black_box(cache.check(tok, *port, Some(ATTACK_PORT), Priority::NORMAL, 600, 0));
        }
        per.push(t.elapsed().as_nanos() as f64 / firsts.len().max(1) as f64);
    }
    median(&per)
}
