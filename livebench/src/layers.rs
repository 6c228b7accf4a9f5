//! Per-layer metrics of the traced run, computed from the spans and send
//! stamps the benchmark's wrappers recorded, plus codec and discovery
//! timings taken on the messages the workload itself produced.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use whisper::matchmaker::rank_candidates;
use whisper::WhisperMsg;
use whisper_p2p::{AdvFilter, AdvKind, Advertisement, DiscoveryCache};
use whisper_simnet::{NodeId, SimTime, Wire};
use whisper_soap::Envelope;
use whisper_wire::{Decode, Encode};

use crate::check::Verdict;
use crate::cluster::Service;
use crate::trace::{SendRec, Span, SpanKind, Trace};
use crate::{stats, Session};

/// Message kinds on a request's path.
pub const DATA_KINDS: [&str; 7] = [
    "soap-request",
    "soap-response",
    "peer-request",
    "peer-response",
    "peer-redirect",
    "relayed",
    "job-done",
];

/// Heartbeat, election and discovery traffic.
pub const CONTROL_KINDS: [&str; 7] = [
    "heartbeat",
    "election",
    "election-answer",
    "coordinator",
    "discovery-query",
    "discovery-response",
    "publish",
];

/// Median per-call time, in µs, of `f` over `reps` calls.
fn time_us(reps: u32, mut f: impl FnMut()) -> f64 {
    let mut per = Vec::with_capacity(5);
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        per.push(t0.elapsed().as_secs_f64() * 1e6 / reps as f64);
    }
    stats::median(&per)
}

fn median_of(v: impl Iterator<Item = f64>) -> f64 {
    stats::median(&v.collect::<Vec<_>>())
}

/// The times of a failover, from send stamps and completions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failover {
    /// Kill → first `election` or `coordinator` send.
    pub detect_ms: f64,
    /// First election send → first `coordinator` send.
    pub elect_ms: f64,
    /// First `coordinator` send → first good completion after it.
    pub rebind_ms: f64,
    /// Election, answer and coordinator messages after the kill.
    pub msgs: f64,
    /// `discovery-query` sends after the kill.
    pub queries: f64,
    /// Longest interval between consecutive good completions.
    pub gap_ms: f64,
}

impl Failover {
    fn of(session: &Session, sends: &[SendRec]) -> Failover {
        let d = &session.drive;
        let good = d.good_done_ns();
        let gap_ms = good
            .windows(2)
            .map(|w| (w[1] - w[0]) / 1e6)
            .fold(0.0, f64::max);
        let Some(kill) = d.killed else {
            return Failover {
                gap_ms,
                ..Failover::default()
            };
        };
        let ms = |a: Instant, b: Instant| a.saturating_duration_since(b).as_secs_f64() * 1e3;
        let after: Vec<&SendRec> = sends.iter().filter(|s| s.at >= kill).collect();
        let count = |kinds: &[&str]| after.iter().filter(|s| kinds.contains(&s.kind)).count();
        let first_election = after
            .iter()
            .find(|s| s.kind == "election" || s.kind == "coordinator")
            .map(|s| s.at);
        let first_coordinator = first_election
            .and_then(|e| after.iter().find(|s| s.kind == "coordinator" && s.at >= e))
            .map(|s| s.at);
        let rebound = first_coordinator
            .and_then(|c| good.iter().find(|t| **t >= d.ns(c)).copied())
            .map(|ns| d.start + std::time::Duration::from_nanos(ns as u64));
        Failover {
            detect_ms: first_election.map_or(0.0, |e| ms(e, kill)),
            elect_ms: first_election
                .zip(first_coordinator)
                .map_or(0.0, |(e, c)| ms(c, e)),
            rebind_ms: first_coordinator
                .zip(rebound)
                .map_or(0.0, |(c, r)| ms(r, c)),
            msgs: count(&["election", "election-answer", "coordinator"]) as f64,
            queries: count(&["discovery-query"]) as f64,
            gap_ms,
        }
    }
}

/// Everything the traced run derives, by layer.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `(name, unit, value)` in report order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Sum of the median stage times along a request's path, per request.
    pub stage_sum_us: f64,
    /// Traced p50 latency from the actual send.
    pub traced_p50_us: f64,
    /// The failover decomposition (zeros without a kill).
    pub failover: Failover,
    /// Per-kind codec and per-stage lines for the human report.
    pub lines: Vec<String>,
}

impl Layers {
    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.2)
    }
}

/// Derives every per-layer metric. `plain` is the untraced session run
/// just before the traced one (allocations, threads, generator lateness,
/// tracing overhead come from it).
pub fn analyze(service: &Service, plain: &Session, traced: &Session, trace: &Trace) -> Layers {
    let Trace {
        sends,
        spans,
        samples,
        full_at,
        ..
    } = trace;
    let nodes = &traced.nodes;
    let d = &traced.drive;
    // Per-request figures cover the part of the window the store recorded.
    let horizon = full_at.unwrap_or(d.drained);
    let good = d
        .samples
        .iter()
        .filter(|s| s.verdict == Some(Verdict::Good) && s.done_ns() <= d.ns(horizon))
        .count()
        .max(1) as f64;
    let wall_us = d.ns(horizon) / 1e3;
    let per_req = |n: usize| n as f64 / good;
    let is_socket = |s: &SendRec| s.from != s.to && s.from != nodes.client;
    let data = |k: &str| DATA_KINDS.contains(&k);

    // --- whisper-soap / whisper-xml, on the workload's own envelopes ----
    let envelopes = |kind: &str| -> Vec<String> {
        samples
            .get(kind)
            .into_iter()
            .flatten()
            .filter_map(|m| match m {
                WhisperMsg::SoapRequest { envelope, .. }
                | WhisperMsg::SoapResponse { envelope, .. } => Some(envelope.clone()),
                _ => None,
            })
            .collect()
    };
    let requests = envelopes("soap-request");
    let responses = envelopes("soap-response");
    let reps = |e: &[String]| {
        let bytes = e.iter().map(String::len).sum::<usize>().max(1) / e.len().max(1);
        (200_000 / bytes.max(1)).clamp(5, 2_000) as u32
    };
    let parse_us = median_of(requests.iter().map(|e| {
        time_us(reps(&requests), || {
            black_box(Envelope::parse(black_box(e)).ok());
        })
    }));
    let serialize_us = median_of(
        responses
            .iter()
            .filter_map(|e| Envelope::parse(e).ok())
            .map(|env| {
                time_us(reps(&responses), || {
                    black_box(black_box(&env).to_xml_string());
                })
            }),
    );
    let mean_len =
        |e: &[String]| e.iter().map(String::len).sum::<usize>() as f64 / e.len().max(1) as f64;

    // --- whisper-wire, per data-plane kind, weighted by frames per request
    let mut frames_of: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut frames, mut bytes) = (0usize, 0usize);
    for s in sends.iter().filter(|s| is_socket(s) && data(s.kind)) {
        *frames_of.entry(s.kind).or_default() += 1;
        frames += 1;
        bytes += s.bytes;
    }
    let mut lines = Vec::new();
    let (mut encode_us, mut decode_us) = (0.0, 0.0);
    for (kind, n) in &frames_of {
        let msgs = samples.get(kind).cloned().unwrap_or_default();
        if msgs.is_empty() {
            continue;
        }
        let r = (200_000 / msgs[0].wire_size().max(1)).clamp(5, 5_000) as u32;
        let enc = median_of(
            msgs.iter()
                .map(|m| time_us(r, || drop(black_box(black_box(m).encode())))),
        );
        let dec = median_of(msgs.iter().map(|m| {
            let buf = m.encode();
            time_us(r, || drop(black_box(WhisperMsg::decode(black_box(&buf)))))
        }));
        encode_us += per_req(*n) * enc;
        decode_us += per_req(*n) * dec;
        lines.push(format!(
            "  wire {kind:<14} {:>6.2} frames/req, encode {enc:>8.3} us, decode {dec:>8.3} us",
            per_req(*n)
        ));
    }

    // --- tcpnet -----------------------------------------------------------
    let hops: Vec<&Span> = spans.iter().filter(|s| s.what == SpanKind::Hop).collect();
    let hop_us = median_of(
        hops.iter()
            .filter(|s| data(s.kind) && s.cause != s.node && s.cause != Some(nodes.client))
            .map(|s| s.us()),
    );
    let (n0, n1) = &traced.net;
    let sent = n1.sent.saturating_sub(n0.sent).max(1) as f64;
    let coalesced = n1.frames_coalesced.saturating_sub(n0.frames_coalesced) as f64;
    let control = sends
        .iter()
        .filter(|s| CONTROL_KINDS.contains(&s.kind) && s.at <= horizon)
        .count();

    // --- actors: proxy and the busiest b-peer ----------------------------
    let busy_at = |node: NodeId| -> (f64, f64, usize) {
        let (mut busy, mut inline, mut msgs) = (0.0, 0.0, 0);
        for s in spans.iter().filter(|s| s.node == Some(node)) {
            match s.what {
                SpanKind::Handle => {
                    busy += s.us();
                    msgs += 1;
                }
                SpanKind::Timer => busy += s.us(),
                SpanKind::Backend => inline += s.us(),
                SpanKind::Hop => {}
            }
        }
        (busy, inline, msgs)
    };
    let (proxy_busy, _, proxy_msgs) = busy_at(nodes.proxy);
    let (bpeer_busy, bpeer_inline, _) = nodes
        .bpeers
        .iter()
        .map(|b| busy_at(*b))
        .fold((0.0, 0.0, 0), |a, b| if b.0 > a.0 { b } else { a });
    let forwards = sends
        .iter()
        .filter(|s| {
            s.kind == "peer-request"
                && nodes.bpeers.contains(&s.from)
                && nodes.bpeers.contains(&s.to)
        })
        .count();
    let backend: Vec<&Span> = spans
        .iter()
        .filter(|s| s.what == SpanKind::Backend)
        .collect();
    let exec_us = median_of(backend.iter().map(|s| s.us()));

    // --- discovery: borrowed lookup + semantic match on the wired ads -----
    let (description, ontology, op) = service.description();
    let semantics = description
        .operation(op)
        .expect("sample operation")
        .resolve(&ontology)
        .expect("sample annotations resolve");
    let mut cache = DiscoveryCache::new();
    for adv in &traced.advs {
        cache.insert(
            Advertisement::Semantic(adv.clone()),
            SimTime::from_micros(u64::MAX / 2),
        );
    }
    let filter = AdvFilter::of_kind(AdvKind::Semantic);
    let lookup_us = time_us(20_000, || {
        let live = cache
            .iter_live(black_box(&filter), SimTime::ZERO)
            .filter_map(|(a, _)| a.as_semantic());
        black_box(rank_candidates(&ontology, &semantics, live));
    });

    let failover = Failover::of(traced, sends);

    // --- process (from the untraced session) ------------------------------
    let plain_e2e = crate::EndToEnd::of(plain, true);
    let traced_e2e = crate::EndToEnd::of(traced, true);
    let overhead = traced_e2e.p50_us() / plain_e2e.p50_us().max(1e-9);

    // --- reconciliation: median stage times along the request path -------
    let mut stage_sum_us = 0.0;
    let mut add = |label: String, count: usize, us: f64| {
        let share = per_req(count) * us;
        stage_sum_us += share;
        lines.push(format!(
            "  stage {label:<28} {:>6.2}/req x {us:>9.2} us = {share:>9.2} us",
            per_req(count)
        ));
    };
    for kind in DATA_KINDS {
        let h: Vec<f64> = hops
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.us())
            .collect();
        if !h.is_empty() {
            add(format!("hop {kind}"), h.len(), stats::median(&h));
        }
        let on_path = |s: &&Span| {
            s.what == SpanKind::Handle && s.kind == kind && s.node != Some(nodes.client)
        };
        let h: Vec<f64> = spans.iter().filter(on_path).map(|s| s.us()).collect();
        if !h.is_empty() {
            add(format!("handle {kind}"), h.len(), stats::median(&h));
        }
    }
    let workers: Vec<f64> = backend
        .iter()
        .filter(|s| s.node.is_none())
        .map(|s| s.us())
        .collect();
    if !workers.is_empty() {
        add(
            "backend on workers".into(),
            workers.len(),
            stats::median(&workers),
        );
    }

    let allocs_per_req = plain.allocs as f64 / plain_e2e.good.max(1) as f64;
    let metrics = vec![
        ("soap.parse_us", "us", parse_us),
        ("soap.serialize_us", "us", serialize_us),
        ("soap.request_bytes", "bytes", mean_len(&requests)),
        ("soap.response_bytes", "bytes", mean_len(&responses)),
        ("wire.encode_us", "us", encode_us),
        ("wire.decode_us", "us", decode_us),
        ("wire.bytes_per_req", "bytes", per_req(bytes)),
        ("wire.frames_per_req", "count", per_req(frames)),
        ("tcpnet.hop_us", "us", hop_us),
        ("tcpnet.coalesced_ratio", "ratio", coalesced / sent),
        (
            "tcpnet.backpressure_waits",
            "count",
            n1.backpressure_waits.saturating_sub(n0.backpressure_waits) as f64,
        ),
        (
            "tcpnet.control_msgs_per_s",
            "1/s",
            control as f64 / (wall_us / 1e6),
        ),
        (
            "tcpnet.decode_errors",
            "count",
            n1.decode_errors.saturating_sub(n0.decode_errors) as f64,
        ),
        ("proxy.self_us_per_req", "us", proxy_busy / good),
        ("proxy.busy_ratio", "ratio", proxy_busy / wall_us),
        ("proxy.msgs_per_req", "count", per_req(proxy_msgs)),
        (
            "bpeer.self_us_per_req",
            "us",
            (bpeer_busy - bpeer_inline) / good,
        ),
        ("bpeer.busy_ratio", "ratio", bpeer_busy / wall_us),
        ("bpeer.forward_ratio", "ratio", per_req(forwards)),
        ("backend.exec_us", "us", exec_us),
        ("backend.calls_per_req", "count", per_req(backend.len())),
        ("discovery.lookup_us", "us", lookup_us),
        ("discovery.queries", "count", failover.queries),
        ("heartbeat.detect_ms", "ms", failover.detect_ms),
        ("election.elect_ms", "ms", failover.elect_ms),
        ("election.msgs", "count", failover.msgs),
        ("proxy.rebind_ms", "ms", failover.rebind_ms),
        ("failover.gap_ms", "ms", failover.gap_ms),
        ("process.allocs_per_req", "count", allocs_per_req),
        ("process.threads", "count", plain.threads),
        ("gen.late_p99_us", "us", plain_e2e.late_p99_us()),
        ("trace.overhead_ratio", "ratio", overhead),
        (
            "trace.stage_sum_ratio",
            "ratio",
            stage_sum_us / traced_e2e.p50_sent_us().max(1e-9),
        ),
    ];
    Layers {
        metrics,
        stage_sum_us,
        traced_p50_us: traced_e2e.p50_sent_us(),
        failover,
        lines,
    }
}
