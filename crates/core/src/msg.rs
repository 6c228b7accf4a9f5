//! The Whisper wire protocol: everything that travels between nodes.

use whisper_election::ElectionMsg;
use whisper_obs::{FlightEvent, MetricsDelta, NodeSnapshot, OutlierTrace};
use whisper_p2p::{GroupId, P2pMessage, PeerId};
use whisper_simnet::Wire;
use whisper_wire::{Decode, Encode, Reader, WireError};

/// Every message exchanged in a Whisper deployment.
///
/// SOAP payloads travel as serialized XML text, exactly as they would over
/// HTTP; the metrics layer therefore sees realistic wire sizes: every
/// variant's [`Wire::wire_size`] is exactly `self.encode().len()`, and the
/// TCP transport ships those same bytes over real sockets.
#[derive(Debug, Clone, PartialEq)]
pub enum WhisperMsg {
    /// P2P substrate traffic (discovery, publication, heartbeats).
    P2p(P2pMessage),
    /// Election traffic within a b-peer group.
    Election {
        /// The group holding the election.
        group: GroupId,
        /// The protocol message.
        msg: ElectionMsg,
    },
    /// Client → Web service: a SOAP request envelope.
    SoapRequest {
        /// Client-chosen correlation id.
        request_id: u64,
        /// Serialized SOAP envelope.
        envelope: String,
    },
    /// Web service → client: the SOAP response (or fault) envelope.
    SoapResponse {
        /// Correlation id of the request.
        request_id: u64,
        /// Serialized SOAP envelope.
        envelope: String,
    },
    /// SWS-proxy → b-peer: carry out a service request.
    PeerRequest {
        /// Proxy-chosen correlation id.
        request_id: u64,
        /// The peer the [`WhisperMsg::PeerResponse`] must go to (the proxy;
        /// it survives coordinator→delegate forwarding).
        reply_to: PeerId,
        /// Set when a coordinator with an unavailable backend forwards the
        /// request to a semantically equivalent member: the delegate must
        /// process it even though it is not the coordinator.
        delegated: bool,
        /// Serialized SOAP envelope of the client request.
        envelope: String,
    },
    /// B-peer coordinator → SWS-proxy: the processing result.
    PeerResponse {
        /// Correlation id of the peer request.
        request_id: u64,
        /// Serialized SOAP envelope (response or fault).
        envelope: String,
    },
    /// A message in transit via a relay peer (JXTA relay service): the
    /// relay unwraps it and forwards `inner` to `dest`.
    Relayed {
        /// Final destination.
        dest: PeerId,
        /// Original sender (for reply addressing at the destination).
        origin: PeerId,
        /// The carried message.
        inner: Box<WhisperMsg>,
    },
    /// Non-coordinator b-peer → SWS-proxy: try the coordinator instead.
    PeerRedirect {
        /// Correlation id of the peer request.
        request_id: u64,
        /// The coordinator the b-peer currently believes in, if any.
        coordinator: Option<PeerId>,
    },
    /// Introspection plane ("whisper-scope"): ask a node to describe
    /// itself. Any proxy, b-peer, or rendezvous answers with a
    /// [`WhisperMsg::ScopeResponse`] to the sender.
    ScopeRequest {
        /// Prober-chosen correlation id, echoed in the response.
        request_id: u64,
    },
    /// Introspection plane: a node's self-description.
    ScopeResponse {
        /// Correlation id of the scope request.
        request_id: u64,
        /// The answering node's state at response time (boxed so the
        /// rarely-sent introspection reply doesn't inflate every message).
        snapshot: Box<NodeSnapshot>,
    },
    /// Telemetry plane ("whisper-pulse"): a node's periodic metrics-delta
    /// frame, pushed to the pulse collector.
    PulseReport {
        /// Counters/gauges/histograms accumulated since the previous
        /// frame (boxed: the periodic report must not inflate every
        /// message variant).
        delta: Box<MetricsDelta>,
        /// Span trees the emitter's tail sampler kept this interval
        /// (usually empty).
        outliers: Vec<OutlierTrace>,
    },
    /// Flight-recorder plane ("whisper-flight"): a snapshot of one node's
    /// flight ring, or — with empty `events` — a collector's solicitation
    /// for one. A node answering a solicitation replies with its ring
    /// contents under the same `request_id`.
    FlightDump {
        /// Collector-chosen correlation id, echoed in the reply.
        request_id: u64,
        /// The node whose ring this is (the *target* in a solicitation).
        node: u64,
        /// The retained flight events, oldest first; empty in a
        /// solicitation.
        events: Vec<FlightEvent>,
    },
    /// Worker pool → its own b-peer actor loop: an offloaded backend
    /// execution finished. Always self-addressed (the worker injects it
    /// back into the loop that parked the request), so it never crosses a
    /// peer boundary: every live transport, TCP included, delivers
    /// self-sends through the node's in-process mailbox. It still has a
    /// wire encoding because `WhisperMsg`'s codec covers every variant.
    JobDone {
        /// The b-peer-local job key the actor parked the request under
        /// (request ids alone are proxy-scoped, not unique at a delegate).
        job: u64,
        /// Correlation id of the underlying peer request, for flight/trace
        /// stitching.
        request_id: u64,
        /// Whether the backend handled the request successfully (counts
        /// toward `requests_handled`).
        handled: bool,
        /// Whether the backend reported itself unavailable — the actor may
        /// still fail the request over to an equivalent member.
        unavailable: bool,
        /// Serialized SOAP envelope (response or fault).
        envelope: String,
    },
}

impl Wire for WhisperMsg {
    fn wire_size(&self) -> usize {
        self.encoded_len()
    }

    fn kind(&self) -> &'static str {
        match self {
            WhisperMsg::P2p(m) => m.kind(),
            WhisperMsg::Election { msg, .. } => msg.kind(),
            WhisperMsg::SoapRequest { .. } => "soap-request",
            WhisperMsg::SoapResponse { .. } => "soap-response",
            WhisperMsg::PeerRequest { .. } => "peer-request",
            WhisperMsg::PeerResponse { .. } => "peer-response",
            WhisperMsg::PeerRedirect { .. } => "peer-redirect",
            WhisperMsg::Relayed { .. } => "relayed",
            WhisperMsg::ScopeRequest { .. } => "scope-request",
            WhisperMsg::ScopeResponse { .. } => "scope-response",
            WhisperMsg::PulseReport { .. } => "pulse-report",
            WhisperMsg::FlightDump { .. } => "flight-dump",
            WhisperMsg::JobDone { .. } => "job-done",
        }
    }

    fn correlation(&self) -> Option<u64> {
        match self {
            WhisperMsg::SoapRequest { request_id, .. }
            | WhisperMsg::SoapResponse { request_id, .. }
            | WhisperMsg::PeerRequest { request_id, .. }
            | WhisperMsg::PeerResponse { request_id, .. }
            | WhisperMsg::PeerRedirect { request_id, .. }
            | WhisperMsg::ScopeRequest { request_id }
            | WhisperMsg::ScopeResponse { request_id, .. }
            | WhisperMsg::FlightDump { request_id, .. }
            | WhisperMsg::JobDone { request_id, .. } => Some(*request_id),
            WhisperMsg::Relayed { inner, .. } => inner.correlation(),
            WhisperMsg::P2p(_) | WhisperMsg::Election { .. } | WhisperMsg::PulseReport { .. } => {
                None
            }
        }
    }

    fn is_telemetry(&self) -> bool {
        // Pulse reports are best-effort: a shed frame loses one window's
        // deltas (the gap shows in the `seq` numbers) but never corrupts
        // later frames. The TCP transport may drop them instead of
        // blocking on a contended link.
        matches!(self, WhisperMsg::PulseReport { .. })
    }
}

impl Encode for WhisperMsg {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WhisperMsg::P2p(m) => {
                out.push(0);
                m.encode_into(out);
            }
            WhisperMsg::Election { group, msg } => {
                out.push(1);
                group.encode_into(out);
                msg.encode_into(out);
            }
            WhisperMsg::SoapRequest {
                request_id,
                envelope,
            } => {
                out.push(2);
                request_id.encode_into(out);
                envelope.encode_into(out);
            }
            WhisperMsg::SoapResponse {
                request_id,
                envelope,
            } => {
                out.push(3);
                request_id.encode_into(out);
                envelope.encode_into(out);
            }
            WhisperMsg::PeerRequest {
                request_id,
                reply_to,
                delegated,
                envelope,
            } => {
                out.push(4);
                request_id.encode_into(out);
                reply_to.encode_into(out);
                delegated.encode_into(out);
                envelope.encode_into(out);
            }
            WhisperMsg::PeerResponse {
                request_id,
                envelope,
            } => {
                out.push(5);
                request_id.encode_into(out);
                envelope.encode_into(out);
            }
            WhisperMsg::Relayed {
                dest,
                origin,
                inner,
            } => {
                out.push(6);
                dest.encode_into(out);
                origin.encode_into(out);
                inner.encode_into(out);
            }
            WhisperMsg::PeerRedirect {
                request_id,
                coordinator,
            } => {
                out.push(7);
                request_id.encode_into(out);
                coordinator.encode_into(out);
            }
            WhisperMsg::ScopeRequest { request_id } => {
                out.push(8);
                request_id.encode_into(out);
            }
            WhisperMsg::ScopeResponse {
                request_id,
                snapshot,
            } => {
                out.push(9);
                request_id.encode_into(out);
                snapshot.encode_into(out);
            }
            WhisperMsg::PulseReport { delta, outliers } => {
                out.push(10);
                delta.encode_into(out);
                outliers.encode_into(out);
            }
            WhisperMsg::FlightDump {
                request_id,
                node,
                events,
            } => {
                out.push(11);
                request_id.encode_into(out);
                node.encode_into(out);
                events.encode_into(out);
            }
            WhisperMsg::JobDone {
                job,
                request_id,
                handled,
                unavailable,
                envelope,
            } => {
                out.push(12);
                job.encode_into(out);
                request_id.encode_into(out);
                handled.encode_into(out);
                unavailable.encode_into(out);
                envelope.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            WhisperMsg::P2p(m) => m.encoded_len(),
            WhisperMsg::Election { group, msg } => group.encoded_len() + msg.encoded_len(),
            WhisperMsg::SoapRequest {
                request_id,
                envelope,
            }
            | WhisperMsg::SoapResponse {
                request_id,
                envelope,
            }
            | WhisperMsg::PeerResponse {
                request_id,
                envelope,
            } => request_id.encoded_len() + envelope.encoded_len(),
            WhisperMsg::PeerRequest {
                request_id,
                reply_to,
                delegated,
                envelope,
            } => {
                request_id.encoded_len()
                    + reply_to.encoded_len()
                    + delegated.encoded_len()
                    + envelope.encoded_len()
            }
            WhisperMsg::Relayed {
                dest,
                origin,
                inner,
            } => dest.encoded_len() + origin.encoded_len() + inner.encoded_len(),
            WhisperMsg::PeerRedirect {
                request_id,
                coordinator,
            } => request_id.encoded_len() + coordinator.encoded_len(),
            WhisperMsg::ScopeRequest { request_id } => request_id.encoded_len(),
            WhisperMsg::ScopeResponse {
                request_id,
                snapshot,
            } => request_id.encoded_len() + snapshot.encoded_len(),
            WhisperMsg::PulseReport { delta, outliers } => {
                delta.encoded_len() + outliers.encoded_len()
            }
            WhisperMsg::FlightDump {
                request_id,
                node,
                events,
            } => request_id.encoded_len() + node.encoded_len() + events.encoded_len(),
            WhisperMsg::JobDone {
                job,
                request_id,
                handled,
                unavailable,
                envelope,
            } => {
                job.encoded_len()
                    + request_id.encoded_len()
                    + handled.encoded_len()
                    + unavailable.encoded_len()
                    + envelope.encoded_len()
            }
        }
    }
}

impl Decode for WhisperMsg {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(WhisperMsg::P2p(P2pMessage::decode_from(r)?)),
            1 => Ok(WhisperMsg::Election {
                group: GroupId::decode_from(r)?,
                msg: ElectionMsg::decode_from(r)?,
            }),
            2 => Ok(WhisperMsg::SoapRequest {
                request_id: u64::decode_from(r)?,
                envelope: String::decode_from(r)?,
            }),
            3 => Ok(WhisperMsg::SoapResponse {
                request_id: u64::decode_from(r)?,
                envelope: String::decode_from(r)?,
            }),
            4 => Ok(WhisperMsg::PeerRequest {
                request_id: u64::decode_from(r)?,
                reply_to: PeerId::decode_from(r)?,
                delegated: bool::decode_from(r)?,
                envelope: String::decode_from(r)?,
            }),
            5 => Ok(WhisperMsg::PeerResponse {
                request_id: u64::decode_from(r)?,
                envelope: String::decode_from(r)?,
            }),
            6 => {
                let dest = PeerId::decode_from(r)?;
                let origin = PeerId::decode_from(r)?;
                // The recursion is depth-guarded: a hostile frame that is
                // just a chain of Relayed headers errors out instead of
                // exhausting the decoder's stack.
                let inner = r.nested(|r| WhisperMsg::decode_from(r))?;
                Ok(WhisperMsg::Relayed {
                    dest,
                    origin,
                    inner: Box::new(inner),
                })
            }
            7 => Ok(WhisperMsg::PeerRedirect {
                request_id: u64::decode_from(r)?,
                coordinator: Option::decode_from(r)?,
            }),
            8 => Ok(WhisperMsg::ScopeRequest {
                request_id: u64::decode_from(r)?,
            }),
            9 => Ok(WhisperMsg::ScopeResponse {
                request_id: u64::decode_from(r)?,
                snapshot: Box::new(NodeSnapshot::decode_from(r)?),
            }),
            10 => Ok(WhisperMsg::PulseReport {
                delta: Box::new(MetricsDelta::decode_from(r)?),
                outliers: Vec::decode_from(r)?,
            }),
            11 => Ok(WhisperMsg::FlightDump {
                request_id: u64::decode_from(r)?,
                node: u64::decode_from(r)?,
                events: Vec::decode_from(r)?,
            }),
            12 => Ok(WhisperMsg::JobDone {
                job: u64::decode_from(r)?,
                request_id: u64::decode_from(r)?,
                handled: bool::decode_from(r)?,
                unavailable: bool::decode_from(r)?,
                envelope: String::decode_from(r)?,
            }),
            tag => Err(WireError::BadTag {
                what: "WhisperMsg",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_p2p::AdvFilter;

    #[test]
    fn kinds_delegate_to_inner_protocols() {
        let q = WhisperMsg::P2p(P2pMessage::Query {
            id: 0,
            filter: AdvFilter::any(),
            origin: PeerId::new(0),
        });
        assert_eq!(q.kind(), "discovery-query");
        let e = WhisperMsg::Election {
            group: GroupId::new(1),
            msg: ElectionMsg::Election {
                from: PeerId::new(1),
            },
        };
        assert_eq!(e.kind(), "election");
        assert_eq!(
            WhisperMsg::PeerRedirect {
                request_id: 1,
                coordinator: None
            }
            .kind(),
            "peer-redirect"
        );
    }

    #[test]
    fn soap_wire_size_tracks_envelope_length() {
        let small = WhisperMsg::SoapRequest {
            request_id: 1,
            envelope: "x".repeat(10),
        };
        let big = WhisperMsg::SoapRequest {
            request_id: 1,
            envelope: "x".repeat(1000),
        };
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(small.wire_size(), small.encode().len());
        assert_eq!(big.wire_size(), big.encode().len());
    }

    /// One message per `WhisperMsg` variant, nontrivially populated.
    fn one_of_each() -> Vec<WhisperMsg> {
        vec![
            WhisperMsg::P2p(P2pMessage::Query {
                id: 77,
                filter: AdvFilter::any(),
                origin: PeerId::new(3),
            }),
            WhisperMsg::Election {
                group: GroupId::new(4),
                msg: ElectionMsg::RingElection {
                    origin: PeerId::new(1),
                    candidates: vec![PeerId::new(1), PeerId::new(2)],
                },
            },
            WhisperMsg::SoapRequest {
                request_id: 1,
                envelope: "<e>req</e>".into(),
            },
            WhisperMsg::SoapResponse {
                request_id: 1,
                envelope: "<e>resp</e>".into(),
            },
            WhisperMsg::PeerRequest {
                request_id: 2,
                reply_to: PeerId::new(9),
                delegated: true,
                envelope: "<e/>".into(),
            },
            WhisperMsg::PeerResponse {
                request_id: 2,
                envelope: "<e/>".into(),
            },
            WhisperMsg::Relayed {
                dest: PeerId::new(5),
                origin: PeerId::new(6),
                inner: Box::new(WhisperMsg::PeerResponse {
                    request_id: 3,
                    envelope: "<e/>".into(),
                }),
            },
            WhisperMsg::PeerRedirect {
                request_id: 4,
                coordinator: Some(PeerId::new(8)),
            },
            WhisperMsg::ScopeRequest { request_id: 5 },
            WhisperMsg::ScopeResponse {
                request_id: 5,
                snapshot: Box::new(sample_snapshot()),
            },
            WhisperMsg::PulseReport {
                delta: Box::new(sample_delta()),
                outliers: vec![sample_outlier()],
            },
            WhisperMsg::FlightDump {
                request_id: 6,
                node: 2,
                events: vec![sample_flight_event()],
            },
            WhisperMsg::JobDone {
                job: 7,
                request_id: 8,
                handled: true,
                unavailable: false,
                envelope: "<e>done</e>".into(),
            },
        ]
    }

    /// A nontrivially populated flight-recorder event.
    fn sample_flight_event() -> FlightEvent {
        use whisper_obs::FlightEventKind;
        use whisper_simnet::SimTime;
        FlightEvent {
            seq: 12,
            lamport: 40,
            at: SimTime::from_micros(2_500_000),
            node: 2,
            kind: FlightEventKind::MsgRecv {
                from: 0,
                kind: "peer-request".into(),
                bytes: 412,
                correlation: Some(6),
                sent_clock: 39,
            },
        }
    }

    /// A nontrivially populated snapshot exercising every field group.
    fn sample_snapshot() -> NodeSnapshot {
        use whisper_obs::{ElectionView, NodeRole};
        let mut s = NodeSnapshot::empty(NodeRole::BPeer, 7);
        s.group = Some(2);
        s.election = Some(ElectionView {
            coordinator: Some(9),
            is_coordinator: false,
            term: 3,
            elections_started: 1,
            phase: "idle".into(),
        });
        s.heartbeat_ages_us = vec![(6, 100), (9, 420)];
        s.bindings = vec![(2, 9)];
        s.queue_depth = 1;
        s.registry.counters = vec![("requests.handled".into(), 4)];
        s.registry.spans_dropped = 2;
        s
    }

    /// A nontrivially populated pulse delta frame.
    fn sample_delta() -> MetricsDelta {
        use whisper_simnet::{Histogram, SimDuration};
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(120));
        h.record(SimDuration::from_micros(44_000));
        MetricsDelta {
            seq: 6,
            now_us: 3_000_000,
            interval_us: 500_000,
            counters: vec![("requests.handled".into(), 12)],
            gauges: vec![("queue.depth".into(), -1)],
            hists: vec![("proxy.rtt".into(), h)],
            spans_dropped: 1,
        }
    }

    /// A nontrivially populated outlier trace.
    fn sample_outlier() -> OutlierTrace {
        use whisper_obs::PulseSpan;
        OutlierTrace {
            request: 9,
            label: "StudentInformation".into(),
            total_us: 44_000,
            spans: vec![
                PulseSpan {
                    id: 0,
                    parent: None,
                    name: "proxy.request".into(),
                    start_us: 0,
                    end_us: 44_000,
                },
                PulseSpan {
                    id: 1,
                    parent: Some(0),
                    name: "peer.execute".into(),
                    start_us: 500,
                    end_us: 43_500,
                },
            ],
        }
    }

    #[test]
    fn every_variant_wire_size_is_exactly_encoded_len() {
        let msgs = one_of_each();
        assert_eq!(msgs.len(), 13, "update one_of_each when adding variants");
        for m in msgs {
            assert_eq!(m.wire_size(), m.encode().len(), "{m:?}");
        }
    }

    #[test]
    fn every_variant_round_trips() {
        for m in one_of_each() {
            assert_eq!(WhisperMsg::decode(&m.encode()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn correlation_surfaces_request_ids_through_relays() {
        for m in one_of_each() {
            match &m {
                WhisperMsg::SoapRequest { request_id, .. }
                | WhisperMsg::SoapResponse { request_id, .. }
                | WhisperMsg::PeerRequest { request_id, .. }
                | WhisperMsg::PeerResponse { request_id, .. }
                | WhisperMsg::PeerRedirect { request_id, .. }
                | WhisperMsg::ScopeRequest { request_id }
                | WhisperMsg::ScopeResponse { request_id, .. }
                | WhisperMsg::FlightDump { request_id, .. }
                | WhisperMsg::JobDone { request_id, .. } => {
                    assert_eq!(m.correlation(), Some(*request_id), "{m:?}");
                }
                // a relay is transparent: the inner request id shows through
                WhisperMsg::Relayed { inner, .. } => {
                    assert_eq!(m.correlation(), inner.correlation(), "{m:?}");
                    assert!(m.correlation().is_some());
                }
                _ => assert_eq!(m.correlation(), None, "{m:?}"),
            }
        }
    }

    #[test]
    fn relayed_nesting_is_depth_bounded() {
        let mut m = WhisperMsg::PeerRedirect {
            request_id: 0,
            coordinator: None,
        };
        for _ in 0..whisper_wire::MAX_DEPTH {
            m = WhisperMsg::Relayed {
                dest: PeerId::new(1),
                origin: PeerId::new(2),
                inner: Box::new(m),
            };
        }
        // MAX_DEPTH levels of relaying decode fine...
        assert_eq!(WhisperMsg::decode(&m.encode()).unwrap(), m);
        // ...one more is rejected with a typed error, not a stack overflow.
        let deeper = WhisperMsg::Relayed {
            dest: PeerId::new(1),
            origin: PeerId::new(2),
            inner: Box::new(m),
        };
        assert_eq!(
            WhisperMsg::decode(&deeper.encode()),
            Err(WireError::DepthExceeded(whisper_wire::MAX_DEPTH))
        );
    }
}
