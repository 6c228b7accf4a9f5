//! **Chaos soak (E17)** — gray-failure injection against the fail-slow-aware
//! resilience layer, end to end on the wall-clock substrates.
//!
//! The earlier fault experiments kill nodes outright; real B2B outages are
//! mostly *gray*: lossy links, duplicated frames, a coordinator that still
//! answers but ten times slower. This soak arms the chaos plane
//! ([`FaultAction::Degrade`]/[`FaultAction::Stall`]/[`FaultAction::Slow`])
//! on every interior link of a live deployment while a driver injects a
//! steady request stream, and then checks the properties the resilience
//! layer promises:
//!
//! 1. **Exactly-once** — every injected request id is answered exactly
//!    once at the edge, however many copies the chaos plane manufactured
//!    inside (the proxy absorbs surplus replies and counts them).
//! 2. **Goodput floor** — under 5 % loss plus a doubled round trip the
//!    non-fault completion rate stays above [`ChaosTuning::goodput_floor`].
//! 3. **Gray visibility** — every injected gray action surfaces in the
//!    flight recorder, and the availability ledger never books the gray
//!    period as downtime (the service stayed up, just degraded).
//!
//! The companion [`race`] measures *why* the fail-slow detector exists: it
//! times recovery after a coordinator crash (detection → re-election →
//! re-bind) against recovery after the same coordinator turns fail-slow
//! (latency-EWMA trip → delegated bypass, no election), on the same
//! substrate with the same timeouts.
//!
//! The driver↔proxy edge stays pristine on purpose: answers must be
//! observable to be countable, so chaos is confined to the proxy↔b-peer
//! and b-peer↔b-peer links — exactly the links a real integration cannot
//! see into.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::Table;
use whisper::{
    BPeerConfig, EchoBackend, GroupSpec, ProxyConfig, ScenarioWiring, ServiceBackend, Topology,
    WhisperMsg,
};
use whisper_election::BullyConfig;
use whisper_obs::{AvailabilityLedger, FlightEventKind, Recorder};
use whisper_simnet::tcpnet::TcpNetBuilder;
use whisper_simnet::threadnet::ThreadNetBuilder;
use whisper_simnet::{
    Actor, Context, DegradeSpec, FaultAction, FaultPlan, NodeId, SimDuration, Spawner, Substrate,
};
use whisper_soap::Envelope;
use whisper_xml::Element;

/// Soak shape: request stream, gray-failure mix, and acceptance bars.
#[derive(Debug, Clone)]
pub struct ChaosTuning {
    /// Redundant b-peers in the group.
    pub peers: usize,
    /// Requests the driver injects over the soak.
    pub requests: u64,
    /// Clean requests before the gray plane arms (these also feed the
    /// fail-slow detector its healthy-latency baseline).
    pub warmup_requests: u64,
    /// Spacing between injected requests.
    pub gap: SimDuration,
    /// The gray spec applied to every interior link once armed.
    pub degrade: DegradeSpec,
    /// Mid-soak outbound freeze of the coordinator. Kept *below* the
    /// failure timeout: a stall this short must degrade, not trip the
    /// crash detector.
    pub stall: SimDuration,
    /// Mid-soak coordinator slowdown, in hundredths (5_100 = 51×: on the
    /// live substrates every message touching the node is held ~50 ms).
    pub slow_factor: u32,
    /// Proxy latency-EWMA threshold for demoting a fail-slow peer.
    pub fail_slow_after: SimDuration,
    /// Budget for draining the tail after the last injection.
    pub drain: SimDuration,
    /// Minimum acceptable non-fault completion rate.
    pub goodput_floor: f64,
    /// When set, replayed via [`Substrate::execute_plan`] at soak start
    /// *instead of* the built-in degrade/stall/slow schedule — the
    /// `whisper-chaos --plan <file>` path.
    pub plan: Option<FaultPlan>,
}

impl Default for ChaosTuning {
    /// 5 % loss, ~1 ms of added one-way latency (≈2× the healthy loopback
    /// round trip), a dash of duplication/reordering/corruption, one
    /// sub-timeout stall and one 51× coordinator slowdown — over 36
    /// requests at 60 ms spacing.
    fn default() -> Self {
        ChaosTuning {
            peers: 3,
            requests: 36,
            warmup_requests: 6,
            gap: SimDuration::from_millis(60),
            degrade: DegradeSpec {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::from_millis(1),
                loss_pct: 5,
                dup_pct: 3,
                reorder_pct: 2,
                corrupt_pct: 2,
            },
            stall: SimDuration::from_millis(200),
            slow_factor: 5_100,
            fail_slow_after: SimDuration::from_millis(25),
            drain: SimDuration::from_secs(20),
            goodput_floor: 0.9,
            plan: None,
        }
    }
}

/// What one substrate's soak delivered.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// `"sim"`, `"threadnet"` or `"tcp"`.
    pub substrate: &'static str,
    /// Requests injected.
    pub requests: u64,
    /// Distinct request ids answered at the edge.
    pub answered: u64,
    /// Request ids never answered (must be 0).
    pub lost: u64,
    /// Request ids answered more than once (must be 0).
    pub duplicated: u64,
    /// Answers that were SOAP faults.
    pub faults: u64,
    /// Non-fault completions / requests.
    pub goodput: f64,
    /// Fail-slow demotions the proxy performed.
    pub fail_slow_rebinds: u64,
    /// Surplus replies the proxy absorbed instead of forwarding.
    pub surplus_replies: u64,
    /// Corrupted frames counted (and survived) by the transport.
    pub decode_errors: u64,
    /// Gray fault events visible in the merged flight timeline.
    pub gray_faults_recorded: u64,
    /// Whether the ledger says the service was up when the books closed.
    pub ledger_up: bool,
}

impl SoakOutcome {
    /// The E17 acceptance bar for one substrate.
    pub fn accepted(&self, t: &ChaosTuning) -> bool {
        self.lost == 0
            && self.duplicated == 0
            && self.goodput >= t.goodput_floor
            && self.ledger_up
            && self.gray_faults_recorded > 0
    }
}

/// Crash-path vs fail-slow-path recovery on one substrate.
#[derive(Debug, Clone, Copy)]
pub struct RaceOutcome {
    /// `"sim"`, `"threadnet"` or `"tcp"`.
    pub substrate: &'static str,
    /// Fault → first fast answer after a coordinator crash (detection +
    /// re-election + re-bind).
    pub crash_recovery: SimDuration,
    /// Fault → first fast answer after the coordinator turns fail-slow
    /// (EWMA trip + delegated bypass; no election).
    pub fail_slow_recovery: SimDuration,
}

/// Collected SOAP responses: id → (copies seen, last envelope).
type Responses = Arc<Mutex<HashMap<u64, (u32, String)>>>;

/// Per-poll coordinator claims from the b-peers, keyed by scope request.
type Coordinators = Arc<Mutex<HashMap<u64, Vec<Option<u64>>>>>;

/// The soak's edge: counts every copy of every answer, so duplicate
/// suppression is checked where it matters — at the client boundary.
struct ChaosDriver {
    responses: Responses,
    coordinators: Coordinators,
}

impl Actor<WhisperMsg> for ChaosDriver {
    fn on_message(&mut self, _ctx: &mut Context<'_, WhisperMsg>, _from: NodeId, msg: WhisperMsg) {
        match msg {
            WhisperMsg::SoapResponse {
                request_id,
                envelope,
            } => {
                let mut map = self.responses.lock().expect("driver store poisoned");
                let entry = map.entry(request_id).or_insert((0, String::new()));
                entry.0 += 1;
                entry.1 = envelope;
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

/// The deployment under chaos: echo replicas, fast failure detection, the
/// fail-slow detector armed, ledger + recorder + flight plane wired.
fn soak_wiring(t: &ChaosTuning) -> (ScenarioWiring, Recorder, AvailabilityLedger) {
    let service = whisper_wsdl::samples::student_management();
    let op = service
        .operation("StudentInformation")
        .expect("sample operation")
        .clone();
    let backends: Vec<Box<dyn ServiceBackend>> =
        (0..t.peers).map(|_| Box::new(EchoBackend) as _).collect();
    let mut wiring = ScenarioWiring::bare(
        service,
        whisper_ontology::samples::university_ontology(),
        vec![GroupSpec::from_operation("StudentInfoGroup", &op, backends)],
    );
    wiring.bpeer = BPeerConfig {
        heartbeat_period: SimDuration::from_millis(50),
        // Above the stall: a 200 ms outbound freeze must stay gray.
        failure_timeout: SimDuration::from_millis(400),
        bully: BullyConfig {
            answer_timeout: SimDuration::from_millis(200),
            coordinator_timeout: SimDuration::from_millis(400),
            cooldown: SimDuration::from_millis(200),
        },
        ..BPeerConfig::default()
    };
    wiring.proxy = ProxyConfig {
        request_timeout: SimDuration::from_millis(500),
        fail_slow_after: Some(t.fail_slow_after),
        // Longer than any soak: a demotion must stick to be observable.
        fail_slow_cooldown: SimDuration::from_secs(60),
        ..ProxyConfig::default()
    };
    let recorder = Recorder::new();
    let ledger = AvailabilityLedger::default();
    wiring.recorder = Some(recorder.clone());
    wiring.ledger = Some(ledger.clone());
    wiring.flight = Some(whisper_obs::flight::DEFAULT_RING_BYTES);
    (wiring, recorder, ledger)
}

/// Everything a soak or race leg needs besides the substrate itself: the
/// booted topology, the driver node and its shared stores, and the
/// observability planes the audit reads.
struct SoakRig {
    topo: Topology,
    driver: NodeId,
    responses: Responses,
    coordinators: Coordinators,
    recorder: Recorder,
    ledger: AvailabilityLedger,
}

/// Wires the scenario plus the chaos driver onto any spawner.
fn wire_with_driver<S: Spawner<WhisperMsg>>(spawner: &mut S, t: &ChaosTuning) -> SoakRig {
    let (wiring, recorder, ledger) = soak_wiring(t);
    let topo = wiring
        .wire(spawner)
        .expect("the chaos scenario is well-formed");
    let responses: Responses = Arc::new(Mutex::new(HashMap::new()));
    let coordinators: Coordinators = Arc::new(Mutex::new(HashMap::new()));
    let driver = spawner.add_boxed(Box::new(ChaosDriver {
        responses: Arc::clone(&responses),
        coordinators: Arc::clone(&coordinators),
    }));
    SoakRig {
        topo,
        driver,
        responses,
        coordinators,
        recorder,
        ledger,
    }
}

/// One uniquely marked request envelope.
fn marked_envelope(id: u64) -> String {
    let mut payload = Element::new("StudentInformation");
    payload.push_child(Element::with_text("StudentID", "u1000"));
    payload.push_child(Element::with_text("Marker", format!("req-{id:05}")));
    Envelope::request(payload).to_xml_string()
}

/// Waits (in the substrate's own time) until every b-peer names the same
/// coordinator. Polling via [`Substrate::advance`] keeps this loop
/// identical on virtual time and wall clock.
fn settle<N: Substrate<WhisperMsg>>(net: &mut N, rig: &SoakRig) {
    let peers = rig.topo.group_nodes[0].len();
    let mut scope_request = 10_000_000u64; // clear of the soak ids
    for _ in 0..600 {
        scope_request += 1;
        for &b in &rig.topo.group_nodes[0] {
            net.inject(
                rig.driver,
                b,
                WhisperMsg::ScopeRequest {
                    request_id: scope_request,
                },
            );
        }
        net.advance(SimDuration::from_millis(40));
        let polls = rig.coordinators.lock().expect("driver store poisoned");
        if let Some(claims) = polls.get(&scope_request) {
            if claims.len() == peers && claims.iter().all(|&c| c.is_some() && c == claims[0]) {
                return;
            }
        }
    }
    panic!("boot election did not settle on {}", net.name());
}

/// Arms the built-in gray schedule action by action as the stream
/// progresses, or replays a custom plan, then drains and audits the books.
/// Generic over [`Substrate`], so the sim, threadnet and tcp legs run
/// literally the same code.
fn run_soak<N: Substrate<WhisperMsg>>(net: &mut N, rig: &SoakRig, t: &ChaosTuning) -> SoakOutcome {
    settle(net, rig);
    let topo = &rig.topo;
    let driver = rig.driver;
    let bpeers = topo.group_nodes[0].clone();
    let coordinator = *bpeers.last().expect("at least one b-peer");

    if let Some(plan) = &t.plan {
        net.execute_plan(plan);
    }
    for id in 1..=t.requests {
        if t.plan.is_none() {
            if id == t.warmup_requests + 1 {
                // Arm the gray plane on every interior link.
                for &b in &bpeers {
                    net.apply_action(FaultAction::Degrade(topo.proxy, b, t.degrade));
                }
                for (i, &a) in bpeers.iter().enumerate() {
                    for &b in &bpeers[i + 1..] {
                        net.apply_action(FaultAction::Degrade(a, b, t.degrade));
                    }
                }
            }
            if id == t.requests / 3 {
                net.apply_action(FaultAction::Slow(coordinator, t.slow_factor));
            }
            if id == t.requests / 2 {
                net.apply_action(FaultAction::Stall(coordinator, t.stall));
            }
        }
        net.inject(
            driver,
            topo.proxy,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope: marked_envelope(id),
            },
        );
        net.advance(t.gap);
    }

    // Heal the network, then drain the retried tail.
    if t.plan.is_none() {
        for &b in &bpeers {
            net.apply_action(FaultAction::Restore(topo.proxy, b));
        }
        for (i, &a) in bpeers.iter().enumerate() {
            for &b in &bpeers[i + 1..] {
                net.apply_action(FaultAction::Restore(a, b));
            }
        }
        net.apply_action(FaultAction::Slow(coordinator, 100));
    }
    let mut waited = SimDuration::ZERO;
    let step = SimDuration::from_millis(20);
    while waited < t.drain {
        let got = rig.responses.lock().expect("driver store poisoned").len();
        if got as u64 >= t.requests {
            break;
        }
        net.advance(step);
        waited = SimDuration::from_micros(waited.as_micros() + step.as_micros());
    }
    // One more beat so straggling duplicate copies (if any) land before
    // the books are audited.
    net.advance(SimDuration::from_millis(100));

    let answered = rig.responses.lock().expect("driver store poisoned").clone();
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut faults = 0u64;
    for id in 1..=t.requests {
        match answered.get(&id) {
            None => lost += 1,
            Some((copies, envelope)) => {
                if *copies > 1 {
                    duplicated += 1;
                }
                let parsed = Envelope::parse(envelope).unwrap_or_else(|e| {
                    panic!("{}: request {id}: bad envelope: {e:?}", net.name())
                });
                if parsed.is_fault() {
                    faults += 1;
                } else {
                    let marker = format!("req-{id:05}");
                    assert!(
                        envelope.contains(&marker),
                        "{}: response for {id} does not carry {marker}",
                        net.name()
                    );
                }
            }
        }
    }
    let goodput = (t.requests - lost - faults) as f64 / t.requests as f64;

    let gray_faults_recorded = topo
        .flight
        .as_ref()
        .map(|plane| {
            plane
                .capture()
                .events()
                .iter()
                .filter(|e| match &e.kind {
                    FlightEventKind::Fault { action } => {
                        action.starts_with("degrade")
                            || action.starts_with("restore")
                            || action.starts_with("stall")
                            || action.starts_with("slow")
                            || action.starts_with("decode-error")
                    }
                    _ => false,
                })
                .count() as u64
        })
        .unwrap_or(0);
    let ledger_up = rig
        .ledger
        .service_report(topo.group_ids[0].value(), net.now())
        .map(|r| r.up)
        .unwrap_or(false);

    SoakOutcome {
        substrate: net.name(),
        requests: t.requests,
        answered: answered.len() as u64,
        lost,
        duplicated,
        faults,
        goodput,
        fail_slow_rebinds: rig.recorder.counter("proxy.fail_slow_rebinds"),
        surplus_replies: rig.recorder.counter("proxy.duplicate_responses"),
        decode_errors: net.metrics_snapshot().decode_errors,
        gray_faults_recorded,
        ledger_up,
    }
}

/// The soak on OS threads, chaos RNG seeded for reproducibility.
pub fn run_soak_threadnet(t: &ChaosTuning, seed: u64) -> SoakOutcome {
    let mut builder = ThreadNetBuilder::new();
    builder.set_chaos_seed(seed);
    let rig = wire_with_driver(&mut builder, t);
    let mut net = builder.start().expect("channels open");
    let out = run_soak(&mut net, &rig, t);
    net.shutdown();
    out
}

/// The soak on real TCP loopback sockets, chaos RNG seeded.
pub fn run_soak_tcp(t: &ChaosTuning, seed: u64) -> SoakOutcome {
    let mut builder = TcpNetBuilder::new();
    builder.set_chaos_seed(seed);
    let rig = wire_with_driver(&mut builder, t);
    let mut net = builder.start().expect("loopback sockets");
    let out = run_soak(&mut net, &rig, t);
    net.shutdown();
    out
}

/// The fault injected at the start of one race leg.
#[derive(Debug, Clone, Copy)]
enum RaceLeg {
    Crash,
    FailSlow(u32),
}

/// Runs one leg: prime the binding and the latency baseline, inject the
/// fault, then probe until a request completes *fast* again. The elapsed
/// fault→fast-answer time is the recovery the leg measures. The fast bar
/// sits well under both the slowed round trip and the retry timeout, so a
/// late or slowed answer cannot count as recovery.
fn race_leg<N: Substrate<WhisperMsg>>(net: &mut N, rig: &SoakRig, leg: RaceLeg) -> SimDuration {
    settle(net, rig);
    let topo = &rig.topo;
    let driver = rig.driver;
    let responses = &rig.responses;
    let coordinator = *topo.group_nodes[0].last().expect("at least one b-peer");
    let fast_bar = SimDuration::from_millis(80);
    let probe_window = SimDuration::from_millis(150);
    let step = SimDuration::from_millis(5);

    // Prime: bind the proxy and feed the fail-slow detector its healthy
    // baseline (PeerHealth needs min_samples before it may trip).
    for id in 1..=4u64 {
        net.inject(
            driver,
            topo.proxy,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope: marked_envelope(id),
            },
        );
        let sent = net.now();
        loop {
            net.advance(step);
            if responses
                .lock()
                .expect("driver store poisoned")
                .contains_key(&id)
            {
                break;
            }
            assert!(
                net.now().since(sent) < SimDuration::from_secs(10),
                "{}: prime request {id} never answered",
                net.name()
            );
        }
    }

    let t0 = net.now();
    match leg {
        RaceLeg::Crash => net.kill_node(coordinator),
        RaceLeg::FailSlow(factor) => net.apply_action(FaultAction::Slow(coordinator, factor)),
    }

    let mut id = 100u64;
    loop {
        id += 1;
        let sent = net.now();
        net.inject(
            driver,
            topo.proxy,
            WhisperMsg::SoapRequest {
                request_id: id,
                envelope: marked_envelope(id),
            },
        );
        while net.now().since(sent) < probe_window {
            net.advance(step);
            let answered = responses.lock().expect("driver store poisoned");
            if let Some((_, envelope)) = answered.get(&id) {
                let latency = net.now().since(sent);
                let ok = Envelope::parse(envelope)
                    .map(|e| !e.is_fault())
                    .unwrap_or(false);
                if ok && latency <= fast_bar {
                    return net.now().since(t0);
                }
                break; // answered, but late or a fault: probe again
            }
        }
        assert!(
            net.now().since(t0) < SimDuration::from_secs(30),
            "{}: service never recovered from {leg:?}",
            net.name()
        );
    }
}

/// Times crash recovery against fail-slow recovery on OS threads, each leg
/// on a fresh boot so the crash leg's re-election cannot contaminate the
/// gray leg.
pub fn race(t: &ChaosTuning) -> RaceOutcome {
    let crash_recovery = {
        let mut builder = ThreadNetBuilder::new();
        let rig = wire_with_driver(&mut builder, t);
        let mut net = builder.start().expect("channels open");
        let d = race_leg(&mut net, &rig, RaceLeg::Crash);
        net.shutdown();
        d
    };
    let fail_slow_recovery = {
        let mut builder = ThreadNetBuilder::new();
        let rig = wire_with_driver(&mut builder, t);
        let mut net = builder.start().expect("channels open");
        let d = race_leg(&mut net, &rig, RaceLeg::FailSlow(t.slow_factor));
        net.shutdown();
        d
    };
    RaceOutcome {
        substrate: "threadnet",
        crash_recovery,
        fail_slow_recovery,
    }
}

/// Renders the soak rows.
pub fn table(rows: &[SoakOutcome]) -> Table {
    let mut t = Table::new(
        "chaos_soak",
        &[
            "substrate",
            "requests",
            "answered",
            "lost",
            "dup",
            "faults",
            "goodput",
            "fail_slow_rebinds",
            "surplus_replies",
            "decode_errors",
            "gray_events",
            "ledger_up",
        ],
    );
    for r in rows {
        t.row([
            r.substrate.to_string(),
            r.requests.to_string(),
            r.answered.to_string(),
            r.lost.to_string(),
            r.duplicated.to_string(),
            r.faults.to_string(),
            format!("{:.4}", r.goodput),
            r.fail_slow_rebinds.to_string(),
            r.surplus_replies.to_string(),
            r.decode_errors.to_string(),
            r.gray_faults_recorded.to_string(),
            r.ledger_up.to_string(),
        ]);
    }
    t
}

/// Records worst-case-per-substrate soak stats and the rebind race into
/// the bench trajectory.
pub fn record(summary: &mut crate::BenchSummary, rows: &[SoakOutcome], races: &[RaceOutcome]) {
    let mut worst: HashMap<&'static str, (f64, u64, u64, u64)> = HashMap::new();
    for r in rows {
        let e = worst.entry(r.substrate).or_insert((f64::INFINITY, 0, 0, 0));
        e.0 = e.0.min(r.goodput);
        e.1 += r.lost;
        e.2 += r.duplicated;
        e.3 += r.fail_slow_rebinds;
    }
    for (substrate, (goodput, lost, dup, rebinds)) in worst {
        summary.record("chaos_soak", &format!("{substrate}_goodput_min"), goodput);
        summary.record("chaos_soak", &format!("{substrate}_lost"), lost as f64);
        summary.record("chaos_soak", &format!("{substrate}_duplicated"), dup as f64);
        summary.record(
            "chaos_soak",
            &format!("{substrate}_fail_slow_rebinds"),
            rebinds as f64,
        );
    }
    for r in races {
        summary.record(
            "chaos_soak",
            &format!("{}_crash_rebind_ms", r.substrate),
            r.crash_recovery.as_millis_f64(),
        );
        summary.record(
            "chaos_soak",
            &format!("{}_fail_slow_rebind_ms", r.substrate),
            r.fail_slow_recovery.as_millis_f64(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whisper_simnet::{SimNet, SwitchedLan};

    /// The full soak on the deterministic simulator: exactly-once at the
    /// edge, goodput above the floor, gray incidents on the books — all
    /// in virtual time, so this is the cheap CI anchor for E17.
    #[test]
    fn sim_soak_is_exactly_once_and_above_the_goodput_floor() {
        let t = ChaosTuning::default();
        let mut net: SimNet<WhisperMsg> = SimNet::with_link(17, SwitchedLan::paper_testbed());
        let rig = wire_with_driver(&mut net, &t);
        let out = run_soak(&mut net, &rig, &t);
        assert_eq!(out.lost, 0, "lost requests: {out:?}");
        assert_eq!(out.duplicated, 0, "duplicated answers: {out:?}");
        assert!(
            out.goodput >= t.goodput_floor,
            "goodput {} below floor {}: {out:?}",
            out.goodput,
            t.goodput_floor
        );
        assert!(out.gray_faults_recorded > 0, "no gray events: {out:?}");
        assert!(out.ledger_up, "gray chaos booked as downtime: {out:?}");
        assert!(out.accepted(&t), "acceptance bar: {out:?}");
    }

    /// One short threadnet soak — the wall-clock leg of the E17 bar (the
    /// tcp leg runs in the `whisper-chaos` bin to keep `cargo test` off
    /// the socket-heavy path).
    #[test]
    fn threadnet_soak_is_exactly_once_and_above_the_goodput_floor() {
        let t = ChaosTuning {
            requests: 24,
            ..ChaosTuning::default()
        };
        let out = run_soak_threadnet(&t, 7);
        assert_eq!(out.lost, 0, "lost requests: {out:?}");
        assert_eq!(out.duplicated, 0, "duplicated answers: {out:?}");
        assert!(
            out.goodput >= t.goodput_floor,
            "goodput {} below floor {}: {out:?}",
            out.goodput,
            t.goodput_floor
        );
        assert!(out.gray_faults_recorded > 0, "no gray events: {out:?}");
    }

    /// The point of the fail-slow detector: demoting a gray coordinator
    /// must beat waiting for the crash machinery.
    #[test]
    fn fail_slow_rebind_beats_crash_rebind() {
        let t = ChaosTuning::default();
        let r = race(&t);
        assert!(
            r.fail_slow_recovery < r.crash_recovery,
            "fail-slow {} should beat crash {}",
            r.fail_slow_recovery,
            r.crash_recovery
        );
    }
}
