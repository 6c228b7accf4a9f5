//! Boots the paper's deployment on real TCP loopback through the public
//! `ScenarioWiring::wire` / `TcpNetBuilder` API, plus the benchmark's own
//! client node that requests are injected from and answers come back to.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use whisper::{
    BPeerConfig, GroupSpec, OrderTracker, ProxyConfig, ScenarioWiring, ServiceBackend,
    StudentRecord, StudentRegistry, Topology, WhisperMsg,
};
use whisper_election::BullyConfig;
use whisper_obs::NodeSnapshot;
use whisper_ontology::Ontology;
use whisper_simnet::tcpnet::{TcpNet, TcpNetBuilder};
use whisper_simnet::{Actor, Context, MetricsSnapshot, NodeId, SimDuration, Spawner};
use whisper_wsdl::ServiceDescription;

use crate::trace::{TimedBackend, Tracer, TracingSpawner};

/// B-peers in the one semantic group (the paper's deployment).
pub const REPLICAS: usize = 3;
/// The proxy's wait before it declares a request attempt failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_millis(2000);

/// Which service the group serves.
#[derive(Clone)]
pub enum Service {
    /// `StudentManagement.StudentInformation` reads against this table,
    /// replicas alternating operational database and data warehouse.
    Students(Arc<Vec<StudentRecord>>),
    /// `OrderManagement.ProcessOrder` writes on stateful `OrderTracker`s.
    Orders,
}

/// Rewraps each replica's backend; the identity in every workload, a
/// broken backend in the self-tests.
pub type BackendWrap = fn(Box<dyn ServiceBackend>) -> Box<dyn ServiceBackend>;

/// One answer arriving at the client node.
pub struct Completion {
    /// The request id it answers.
    pub id: u64,
    /// When the client node received it.
    pub at: Instant,
    /// The SOAP response envelope.
    pub envelope: String,
}

/// The client node: forwards every answer to the generator thread.
struct Client {
    done: Sender<Completion>,
    scope: Sender<(u64, NodeId, NodeSnapshot)>,
}

impl Actor<WhisperMsg> for Client {
    fn on_message(&mut self, _: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        let at = Instant::now();
        match msg {
            WhisperMsg::SoapResponse {
                request_id,
                envelope,
            } => {
                let _ = self.done.send(Completion {
                    id: request_id,
                    at,
                    envelope,
                });
            }
            WhisperMsg::ScopeResponse {
                request_id,
                snapshot,
            } => {
                let _ = self.scope.send((request_id, from, *snapshot));
            }
            _ => {}
        }
    }
}

impl Service {
    /// The service description, its ontology, and the one operation the
    /// group serves.
    pub fn description(&self) -> (ServiceDescription, Ontology, &'static str) {
        match self {
            Service::Students(_) => (
                whisper_wsdl::samples::student_management(),
                whisper_ontology::samples::university_ontology(),
                "StudentInformation",
            ),
            Service::Orders => (
                whisper_wsdl::samples::order_tracking(),
                whisper_ontology::samples::b2b_ontology(),
                "ProcessOrder",
            ),
        }
    }
}

fn wiring(service: &Service, wrap: BackendWrap, tracer: Option<&Arc<Tracer>>) -> ScenarioWiring {
    let timed = |b: Box<dyn ServiceBackend>| {
        let b = wrap(b);
        match tracer {
            Some(t) => TimedBackend::boxed(b, t),
            None => b,
        }
    };
    let (description, ontology, op) = service.description();
    let backends = (0..REPLICAS)
        .map(|i| {
            let b: Box<dyn ServiceBackend> = match service {
                Service::Students(table) => {
                    let mut r = if i % 2 == 0 {
                        StudentRegistry::operational_db()
                    } else {
                        StudentRegistry::data_warehouse()
                    };
                    for s in table.iter() {
                        r.insert(s.clone());
                    }
                    Box::new(r)
                }
                Service::Orders => Box::new(OrderTracker::default()),
            };
            timed(b)
        })
        .collect();
    let operation = description.operation(op).expect("sample operation");
    let groups = vec![GroupSpec::from_operation("B2BGroup", operation, backends)];
    // The load plane's live tuning: 50 ms heartbeats, 250 ms failure
    // timeout, 200 ms Bully waits, load sharing with two workers per
    // b-peer, and the proxy's default 2 s request timeout.
    let election = SimDuration::from_millis(200);
    let mut w = ScenarioWiring::bare(description, ontology, groups);
    w.bpeer = BPeerConfig {
        heartbeat_period: SimDuration::from_millis(50),
        failure_timeout: SimDuration::from_millis(250),
        bully: BullyConfig {
            answer_timeout: election,
            coordinator_timeout: election + election,
            cooldown: election,
        },
        load_share: true,
        workers: 2,
        ..BPeerConfig::default()
    };
    w.proxy = ProxyConfig {
        request_timeout: SimDuration::from_micros(REQUEST_TIMEOUT.as_micros() as u64),
        ..ProxyConfig::default()
    };
    w
}

/// Wires the scenario, then the client node after it.
fn place<S: Spawner<WhisperMsg>>(
    spawner: &mut S,
    wiring: ScenarioWiring,
    client: Client,
) -> (Topology, NodeId) {
    let topo = wiring
        .wire(spawner)
        .expect("the benchmark scenario is well-formed");
    let client = spawner.add(client);
    (topo, client)
}

/// A booted deployment and its client node.
pub struct Live {
    net: TcpNet<WhisperMsg>,
    /// The b-peer nodes.
    pub bpeers: Vec<NodeId>,
    /// The SWS-proxy node.
    pub proxy: NodeId,
    /// The benchmark's client node.
    pub client: NodeId,
    /// Answers, in arrival order.
    pub done: Receiver<Completion>,
    scope: Receiver<(u64, NodeId, NodeSnapshot)>,
    /// Scope polls sent so far; answers to older polls are ignored.
    polls: AtomicU64,
    /// The group's semantic advertisements, as wired.
    pub advs: Vec<whisper_p2p::SemanticAdv>,
}

impl Live {
    /// Boots `service` on loopback; with a tracer every actor, backend and
    /// send is timed.
    ///
    /// # Errors
    ///
    /// Socket errors while opening the loopback mesh.
    pub fn boot(
        service: &Service,
        wrap: BackendWrap,
        tracer: Option<Arc<Tracer>>,
    ) -> std::io::Result<Live> {
        let wiring = wiring(service, wrap, tracer.as_ref());
        let (done_tx, done) = channel();
        let (scope_tx, scope) = channel();
        let client_actor = Client {
            done: done_tx,
            scope: scope_tx,
        };
        let mut builder = TcpNetBuilder::new();
        let (topo, client) = match &tracer {
            Some(t) => place(
                &mut TracingSpawner::new(&mut builder, Arc::clone(t)),
                wiring,
                client_actor,
            ),
            None => place(&mut builder, wiring, client_actor),
        };
        let net = builder.start()?;
        Ok(Live {
            net,
            bpeers: topo.group_nodes[0].clone(),
            proxy: topo.proxy,
            client,
            done,
            scope,
            polls: AtomicU64::new(0),
            advs: topo.group_advs.clone(),
        })
    }

    /// Sends one SOAP request from the client node to the proxy.
    pub fn submit(&self, request_id: u64, envelope: String) {
        self.net.inject(
            self.client,
            self.proxy,
            WhisperMsg::SoapRequest {
                request_id,
                envelope,
            },
        );
    }

    /// Polls every b-peer once; the coordinator's node when all of them
    /// answer within `timeout` and agree on one.
    pub fn agreed_coordinator(&self, timeout: Duration) -> Option<NodeId> {
        let poll = self.polls.fetch_add(1, Ordering::Relaxed);
        for &b in &self.bpeers {
            self.net.inject(
                self.client,
                b,
                WhisperMsg::ScopeRequest { request_id: poll },
            );
        }
        let deadline = Instant::now() + timeout;
        let mut views = Vec::new();
        while views.len() < self.bpeers.len() {
            let left = deadline.checked_duration_since(Instant::now())?;
            let (id, node, snapshot) = self.scope.recv_timeout(left).ok()?;
            if id == poll {
                views.push((node, snapshot.election?));
            }
        }
        let coord = views[0].1.coordinator?;
        let agreed = views.iter().all(|(_, e)| e.coordinator == Some(coord));
        let node = views.iter().find(|(_, e)| e.is_coordinator)?.0;
        agreed.then_some(node)
    }

    /// Crashes `node`.
    pub fn kill(&self, node: NodeId) {
        self.net.kill_node(node);
    }

    /// Transport counters so far.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.net.metrics_snapshot()
    }

    /// Stops every thread and closes every socket.
    pub fn shutdown(self) {
        self.net.shutdown();
    }
}
