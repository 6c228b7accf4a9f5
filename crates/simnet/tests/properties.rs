//! Property-based tests of the discrete-event engine: causality, clock
//! monotonicity, message conservation and bit-for-bit determinism under
//! arbitrary workloads and fault schedules.

use proptest::prelude::*;
use whisper_simnet::{
    Actor, Context, FaultPlan, NodeId, PerfectLink, SimDuration, SimNet, SimTime, SwitchedLan, Wire,
};

#[derive(Debug, Clone)]
struct Msg {
    hops_left: u8,
    payload: u32,
}

impl Wire for Msg {
    fn wire_size(&self) -> usize {
        64 + self.payload as usize % 512
    }
    fn kind(&self) -> &'static str {
        "msg"
    }
}

/// Forwards messages around a ring until their hop budget runs out,
/// recording receive timestamps.
struct RingHopper {
    next: NodeId,
    received_at: Vec<SimTime>,
}

impl Actor<Msg> for RingHopper {
    fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
        self.received_at.push(ctx.now());
        if msg.hops_left > 0 {
            ctx.send(
                self.next,
                Msg {
                    hops_left: msg.hops_left - 1,
                    ..msg
                },
            );
        }
    }
}

fn build_ring(n: usize, seed: u64, lossy: bool) -> (SimNet<Msg>, Vec<NodeId>) {
    let mut net = if lossy {
        SimNet::with_link(seed, SwitchedLan::lossy(0.1))
    } else {
        SimNet::with_link(seed, SwitchedLan::paper_testbed())
    };
    let ids: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    for i in 0..n {
        let added = net.add_node(RingHopper {
            next: ids[(i + 1) % n],
            received_at: Vec::new(),
        });
        assert_eq!(added, ids[i]);
    }
    (net, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-node receive timestamps never decrease, and the global clock at
    /// quiescence bounds them all.
    #[test]
    fn clocks_are_monotone(
        n in 2usize..6,
        script in proptest::collection::vec((0usize..6, 0usize..6, 0u8..12, any::<u32>()), 1..12),
        seed in any::<u64>(),
    ) {
        let (mut net, ids) = build_ring(n, seed, false);
        for &(s, d, hops, payload) in &script {
            net.inject(ids[s % n], ids[d % n], Msg { hops_left: hops, payload });
        }
        let end = net.run_until_quiescent();
        for &id in &ids {
            let ts = &net.node::<RingHopper>(id).received_at;
            prop_assert!(ts.windows(2).all(|w| w[0] <= w[1]), "timestamps decrease: {ts:?}");
            prop_assert!(ts.iter().all(|&t| t <= end));
        }
    }

    /// sent = delivered + lost + to-down + partitioned, with every message
    /// accounted for exactly once.
    #[test]
    fn message_conservation_holds(
        n in 2usize..6,
        script in proptest::collection::vec((0usize..6, 0usize..6, 0u8..12, any::<u32>()), 1..12),
        seed in any::<u64>(),
        lossy in any::<bool>(),
    ) {
        let (mut net, ids) = build_ring(n, seed, lossy);
        for &(s, d, hops, payload) in &script {
            net.inject(ids[s % n], ids[d % n], Msg { hops_left: hops, payload });
        }
        net.run_until_quiescent();
        let m = net.metrics();
        prop_assert_eq!(
            m.messages_sent(),
            m.messages_delivered()
                + m.messages_lost()
                + m.messages_to_down_nodes()
                + m.messages_partitioned()
        );
        prop_assert!(m.bytes_sent() >= m.messages_sent() * 64);
    }

    /// The same seed and workload replay to identical metrics and final
    /// clock; the hop chain length is deterministic even under loss.
    #[test]
    fn replay_is_bit_for_bit(
        n in 2usize..5,
        script in proptest::collection::vec((0usize..5, 0usize..5, 0u8..8, any::<u32>()), 1..8),
        seed in any::<u64>(),
        lossy in any::<bool>(),
    ) {
        let run = || {
            let (mut net, ids) = build_ring(n, seed, lossy);
            for &(s, d, hops, payload) in &script {
                net.inject(ids[s % n], ids[d % n], Msg { hops_left: hops, payload });
            }
            let end = net.run_until_quiescent();
            let stamps: Vec<Vec<SimTime>> = ids
                .iter()
                .map(|&id| net.node::<RingHopper>(id).received_at.clone())
                .collect();
            (end, net.metrics().messages_sent(), net.metrics().bytes_sent(), stamps)
        };
        prop_assert_eq!(run(), run());
    }

    /// Crashing a node never deadlocks the run, and messages to it while
    /// down are counted as drops, not deliveries.
    #[test]
    fn crashes_account_for_drops(
        script in proptest::collection::vec((0usize..3, 0usize..3, 0u8..6, any::<u32>()), 1..8),
        seed in any::<u64>(),
        crash_victim in 0usize..3,
        crash_at_us in 0u64..5_000,
    ) {
        let (mut net, ids) = build_ring(3, seed, false);
        let mut plan = FaultPlan::new();
        plan.crash_at(ids[crash_victim], SimTime::from_micros(crash_at_us));
        net.apply_faults(&plan);
        for &(s, d, hops, payload) in &script {
            net.inject(ids[s % 3], ids[d % 3], Msg { hops_left: hops, payload });
        }
        net.run_until_quiescent();
        let m = net.metrics();
        prop_assert_eq!(
            m.messages_sent(),
            m.messages_delivered() + m.messages_to_down_nodes() + m.messages_lost()
                + m.messages_partitioned()
        );
        prop_assert!(!net.is_up(ids[crash_victim]));
    }
}

/// Timers armed with equal deadlines fire in arming order; cancellation is
/// exact.
#[test]
fn timer_order_and_cancellation_are_exact() {
    struct TimerScript {
        fired: Vec<u64>,
    }
    impl Actor<Msg> for TimerScript {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            let d = SimDuration::from_millis(1);
            let _t1 = ctx.set_timer(d, 1);
            let t2 = ctx.set_timer(d, 2);
            let _t3 = ctx.set_timer(d, 3);
            ctx.cancel_timer(t2);
        }
        fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Msg) {}
        fn on_timer(&mut self, _: &mut Context<'_, Msg>, token: u64) {
            self.fired.push(token);
        }
    }
    let mut net: SimNet<Msg> = SimNet::with_link(1, PerfectLink);
    let n = net.add_node(TimerScript { fired: Vec::new() });
    net.run_until_quiescent();
    assert_eq!(net.node::<TimerScript>(n).fired, vec![1, 3]);
}

/// The same actor wiring must exchange the same number of messages on the
/// deterministic simulator and the real threaded runtime — the property
/// that makes wall-clock Criterion numbers comparable to simulated runs.
#[test]
fn simnet_and_threadnet_agree_on_message_counts() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    struct Bouncer {
        seen: Arc<AtomicU64>,
    }
    impl Actor<Msg> for Bouncer {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            self.seen.fetch_add(1, Ordering::SeqCst);
            if msg.hops_left > 0 {
                ctx.send(
                    from,
                    Msg {
                        hops_left: msg.hops_left - 1,
                        ..msg
                    },
                );
            }
        }
    }

    const HOPS: u8 = 11;

    // Simulated run.
    let sim_seen = Arc::new(AtomicU64::new(0));
    let mut sim: SimNet<Msg> = SimNet::new(3);
    let a = sim.add_node(Bouncer {
        seen: sim_seen.clone(),
    });
    let b = sim.add_node(Bouncer {
        seen: sim_seen.clone(),
    });
    sim.inject(
        a,
        b,
        Msg {
            hops_left: HOPS,
            payload: 1,
        },
    );
    sim.run_until_quiescent();
    let sim_sent = sim.metrics().messages_sent();

    // Threaded run of the identical actors.
    let thr_seen = Arc::new(AtomicU64::new(0));
    let mut builder = whisper_simnet::threadnet::ThreadNetBuilder::new();
    let ta = builder.add_node(Bouncer {
        seen: thr_seen.clone(),
    });
    let tb = builder.add_node(Bouncer {
        seen: thr_seen.clone(),
    });
    let net = builder.start().expect("channels open");
    net.inject(
        ta,
        tb,
        Msg {
            hops_left: HOPS,
            payload: 1,
        },
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while thr_seen.load(Ordering::SeqCst) < (HOPS as u64 + 1) {
        assert!(
            std::time::Instant::now() < deadline,
            "threadnet volley stalled"
        );
        std::thread::yield_now();
    }
    let thr_sent = net.metrics_snapshot().messages_sent();
    net.shutdown();

    assert_eq!(
        sim_seen.load(Ordering::SeqCst),
        thr_seen.load(Ordering::SeqCst)
    );
    assert_eq!(sim_sent, thr_sent);
}
