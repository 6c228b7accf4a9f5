//! Out-of-order completion under fire: a burst of in-flight requests
//! with a mid-burst coordinator kill, on OS threads and on real TCP
//! loopback.
//!
//! With the surge worker pool enabled ([`BPeerConfig::workers`]), backend
//! executions finish out of order and are correlated back by job id; the
//! proxy additionally retries requests the dead coordinator swallowed.
//! The acceptance bar: **every** request is answered (success or fault —
//! nothing lost), and every successful response echoes its own request's
//! unique marker — completions never cross-talk between correlation ids.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use whisper::{
    BPeerConfig, EchoBackend, GroupSpec, ProxyConfig, ScenarioWiring, ServiceBackend, Topology,
    WhisperMsg,
};
use whisper_election::BullyConfig;
use whisper_simnet::tcpnet::TcpNetBuilder;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{Actor, Context, NodeId, SimDuration, Spawner, Substrate};
use whisper_soap::Envelope;
use whisper_xml::Element;

/// How many requests each burst injects.
const BURST: u64 = 40;

/// Collected SOAP responses, keyed by request id.
type Responses = Arc<Mutex<HashMap<u64, String>>>;

/// Per-poll coordinator claims from the b-peers, keyed by scope request.
type Coordinators = Arc<Mutex<HashMap<u64, Vec<Option<u64>>>>>;

/// The test-side actor: sink for the proxy's responses and for the scope
/// snapshots used to detect a settled election.
struct BurstDriver {
    responses: Responses,
    coordinators: Coordinators,
}

impl Actor<WhisperMsg> for BurstDriver {
    fn on_message(&mut self, _ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        match msg {
            WhisperMsg::SoapResponse {
                request_id,
                envelope,
            } => {
                self.responses
                    .lock()
                    .expect("driver store poisoned")
                    .insert(request_id, envelope);
            }
            WhisperMsg::ScopeResponse {
                request_id,
                snapshot,
            } => {
                self.coordinators
                    .lock()
                    .expect("driver store poisoned")
                    .entry(request_id)
                    .or_default()
                    .push(snapshot.election.as_ref().and_then(|e| e.coordinator));
            }
            _ => {}
        }
    }
}

/// The deployment under test: three echo replicas with two surge workers
/// each, load-sharing on, fast failure detection, and a proxy that
/// retries quickly enough to fail over inside the test budget.
fn surge_wiring(peers: usize) -> ScenarioWiring {
    let service = whisper_wsdl::samples::student_management();
    let op = service
        .operation("StudentInformation")
        .expect("sample operation")
        .clone();
    let backends: Vec<Box<dyn ServiceBackend>> =
        (0..peers).map(|_| Box::new(EchoBackend) as _).collect();
    let mut wiring = ScenarioWiring::bare(
        service,
        whisper_ontology::samples::university_ontology(),
        vec![GroupSpec::from_operation("StudentInfoGroup", &op, backends)],
    );
    wiring.bpeer = BPeerConfig {
        heartbeat_period: SimDuration::from_millis(50),
        failure_timeout: SimDuration::from_millis(250),
        bully: BullyConfig {
            answer_timeout: SimDuration::from_millis(200),
            coordinator_timeout: SimDuration::from_millis(400),
            cooldown: SimDuration::from_millis(200),
        },
        load_share: true,
        workers: 2,
        ..BPeerConfig::default()
    };
    wiring.proxy = ProxyConfig {
        request_timeout: SimDuration::from_millis(500),
        ..ProxyConfig::default()
    };
    wiring
}

/// Wires the scenario plus the burst driver onto any spawner.
fn wire_with_driver<S: Spawner<WhisperMsg>>(
    spawner: &mut S,
    peers: usize,
) -> (Topology, NodeId, Responses, Coordinators) {
    let topo = surge_wiring(peers)
        .wire(spawner)
        .expect("the surge scenario is well-formed");
    let responses: Responses = Arc::new(Mutex::new(HashMap::new()));
    let coordinators: Coordinators = Arc::new(Mutex::new(HashMap::new()));
    let driver = spawner.add_boxed(Box::new(BurstDriver {
        responses: Arc::clone(&responses),
        coordinators: Arc::clone(&coordinators),
    }));
    (topo, driver, responses, coordinators)
}

/// One uniquely marked request envelope; fixed-width markers cannot be
/// prefixes of each other.
fn marked_envelope(id: u64) -> String {
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1000"));
    payload.push_child(Element::with_text("Marker", format!("req-{id:05}")));
    Envelope::request(payload).to_xml_string()
}

/// Waits until every live b-peer names the same coordinator.
fn settle<N: Substrate<WhisperMsg>>(
    net: &mut N,
    topo: &Topology,
    driver: NodeId,
    coordinators: &Coordinators,
) {
    let peers = topo.group_nodes[0].len();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut scope_request = 1_000_000u64; // clear of the burst ids
    loop {
        scope_request += 1;
        for &b in &topo.group_nodes[0] {
            net.inject(
                driver,
                b,
                WhisperMsg::ScopeRequest {
                    request_id: scope_request,
                },
            );
        }
        std::thread::sleep(Duration::from_millis(40));
        {
            let polls = coordinators.lock().expect("driver store poisoned");
            if let Some(claims) = polls.get(&scope_request) {
                if claims.len() == peers && claims.iter().all(|&c| c.is_some() && c == claims[0]) {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "boot election did not settle on {}",
            net.name()
        );
    }
}

/// The shared scenario: burst `BURST` requests, killing the coordinator
/// (the Bully winner — the highest b-peer) halfway through the
/// injections, restarting it while the tail of the burst is still being
/// retried; then verify nothing was lost and nothing cross-talked.
fn burst_with_mid_kill<N: Substrate<WhisperMsg>>(
    net: &mut N,
    topo: &Topology,
    driver: NodeId,
    responses: &Responses,
    coordinators: &Coordinators,
) {
    settle(net, topo, driver, coordinators);
    let coordinator_node = *topo.group_nodes[0].last().expect("at least one b-peer");

    for id in 1..=BURST {
        if id == BURST / 2 {
            net.kill_node(coordinator_node);
        }
        net.inject(
            driver,
            topo.proxy,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope: marked_envelope(id),
            },
        );
    }

    // Bring the victim back while the proxy is still failing over the
    // swallowed half of the burst; restarting mid-recovery also exercises
    // the stale-completion path (parked jobs are dropped on restart).
    std::thread::sleep(Duration::from_millis(700));
    net.restart_node(coordinator_node);

    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let got = responses.lock().expect("driver store poisoned").len();
        if got as u64 >= BURST {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{}: only {got}/{BURST} requests answered",
            net.name()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let answered = responses.lock().expect("driver store poisoned").clone();
    assert_eq!(
        answered.len() as u64,
        BURST,
        "{}: every request is answered or failed over",
        net.name()
    );
    let mut faults = 0u64;
    for id in 1..=BURST {
        let envelope = answered
            .get(&id)
            .unwrap_or_else(|| panic!("{}: request {id} lost", net.name()));
        let parsed = Envelope::parse(envelope)
            .unwrap_or_else(|e| panic!("{}: request {id}: bad envelope: {e:?}", net.name()));
        if parsed.is_fault() {
            faults += 1;
            continue;
        }
        // The correlation bar: a successful response must echo its own
        // request's marker — never a sibling's.
        let marker = format!("req-{id:05}");
        assert!(
            envelope.contains(&marker),
            "{}: response for {id} does not carry {marker}: {envelope}",
            net.name()
        );
    }
    // The kill must be masked, not merely answered: the proxy's failover
    // budget (10 attempts x 500 ms) dwarfs the ~1 s re-election, so
    // virtually the whole burst should succeed. Allow a straggler whose
    // attempts raced the election.
    assert!(
        faults <= BURST / 10,
        "{}: {faults}/{BURST} requests faulted instead of failing over",
        net.name()
    );
}

#[test]
fn threadnet_burst_survives_mid_burst_coordinator_kill() {
    let mut builder = ThreadNetBuilder::new();
    let (topo, driver, responses, coordinators) = wire_with_driver(&mut builder, 3);
    let mut net = builder.start().expect("channels open");
    burst_with_mid_kill(&mut net, &topo, driver, &responses, &coordinators);
    net.shutdown();
}

#[test]
fn tcpnet_burst_survives_mid_burst_coordinator_kill() {
    let mut builder = TcpNetBuilder::new();
    let (topo, driver, responses, coordinators) = wire_with_driver(&mut builder, 3);
    let mut net = builder.start().expect("loopback sockets");
    burst_with_mid_kill(&mut net, &topo, driver, &responses, &coordinators);
    net.shutdown();
}
