//! One fault plan, two clocks: the same [`FaultPlan`] — coordinator
//! killed and restarted twice — replays against the same [`Deployment`]
//! on the virtual-time simulator and on OS threads, and the availability
//! ledger must tell the *same story* on both: the same ordered sequence
//! of service outages, the same hand-over count, the same per-peer
//! failure tally. Timestamps differ (one clock is virtual, one is the
//! wall), so the comparison is structural.
//!
//! [`Deployment`]: whisper::deploy::Deployment
//! [`FaultPlan`]: whisper_simnet::FaultPlan

use whisper::deploy::Booted;
use whisper::WhisperMsg;
use whisper_bench::experiments::substrate_matrix::{self, MatrixTuning};
use whisper_simnet::threadnet::ChannelTransport;
use whisper_simnet::{FaultPlan, SimTime, Substrate};

/// The schedule: kill the Bully winner after warmup, restart it, let it
/// bully its way back, then kill and restart it again. Two full outage /
/// recovery cycles — enough for ordering to matter.
fn two_outage_plan(booted: &Booted<impl Substrate<WhisperMsg>>, t: &MatrixTuning) -> FaultPlan {
    let victim = *booted.topology.group_nodes[0]
        .last()
        .expect("the group has b-peers");
    let kill1 = SimTime::ZERO + t.warmup;
    let restart1 = kill1 + t.outage;
    let kill2 = restart1 + t.settle; // the victim has re-claimed the group by now
    let restart2 = kill2 + t.outage;
    let mut plan = FaultPlan::new();
    plan.crash_at(victim, kill1)
        .restart_at(victim, restart1)
        .crash_at(victim, kill2)
        .restart_at(victim, restart2);
    plan
}

/// Replays the plan and flattens what the ledger recorded into an ordered,
/// timestamp-free event trace.
fn outage_trace<N: Substrate<WhisperMsg>>(booted: &mut Booted<N>, t: &MatrixTuning) -> Vec<String> {
    let plan = two_outage_plan(booted, t);
    booted.net.execute_plan(&plan);
    // Horizon: both cycles plus a settle tail for the final recovery.
    booted
        .net
        .advance(t.warmup + t.outage + t.settle + t.outage + t.settle);

    let now = booted.net.now();
    let ledger = booted.ledger.as_ref().expect("ledger wired");
    let mut trace = Vec::new();
    for service in ledger.services() {
        let r = ledger
            .service_report(service, now)
            .expect("listed service has a report");
        for (i, interval) in r.downtime_intervals.iter().enumerate() {
            trace.push(format!(
                "service {service} outage {i}: {}",
                if interval.end.is_some() {
                    "recovered"
                } else {
                    "open"
                }
            ));
        }
        trace.push(format!(
            "service {service}: up={} coordinator={:?} failures={} churn={}",
            r.up, r.coordinator, r.failures, r.churn
        ));
    }
    for peer in ledger.peers() {
        let r = ledger.peer_report(peer, now).expect("listed peer reports");
        if r.failures > 0 || !r.up {
            trace.push(format!("peer {peer}: up={} failures={}", r.up, r.failures));
        }
    }
    trace
}

#[test]
fn same_plan_same_outage_story_on_sim_and_threadnet() {
    let t = MatrixTuning::default();
    let dep = substrate_matrix::deployment(&t);

    let mut sim = dep.boot_sim(5).expect("well-formed scenario");
    let sim_trace = outage_trace(&mut sim, &t);

    let mut live = dep
        .boot_live::<ChannelTransport>()
        .expect("well-formed scenario");
    let live_trace = outage_trace(&mut live, &t);
    live.net.shutdown();

    // Both clocks must report two closed outages, the victim back in
    // charge, and the victim as the only peer that ever failed.
    assert!(
        sim_trace.iter().any(|e| e.contains("outage 1: recovered")),
        "the simulator saw both outages: {sim_trace:?}"
    );
    assert_eq!(
        sim_trace, live_trace,
        "virtual time and OS threads disagree on the outage story"
    );
}
