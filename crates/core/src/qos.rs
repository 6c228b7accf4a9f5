//! QoS-aware selection policies and observed-QoS bookkeeping (the paper's
//! section 2.4: "this demands management of QoS metrics for peers").
//!
//! Advertisements carry *claimed* QoS; the proxy additionally *measures*
//! what each group actually delivers. [`SelectionPolicy::Adaptive`] prefers
//! the measurements once enough samples exist, so a group that oversells
//! itself loses traffic to an honestly better one.

use std::collections::HashMap;
use std::hash::Hash;
use whisper_p2p::{GroupId, PeerId};
use whisper_simnet::SimDuration;

/// How the SWS-proxy chooses among semantically acceptable b-peer groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Highest semantic match score; ties broken by advertised QoS utility.
    /// The default and the policy the paper's section 2.4 sketches.
    #[default]
    SemanticThenQos,
    /// Advertised QoS utility only (among semantically acceptable
    /// candidates).
    QosOnly,
    /// Observed QoS once enough measurements exist, advertised QoS before
    /// that — the adaptive extension of section 2.4's metric management.
    Adaptive,
    /// Uniformly random among acceptable candidates — the baseline the
    /// QoS-selection experiment compares against.
    Random,
    /// First acceptable candidate in advertisement order (JXTA's naive
    /// "first hit" behaviour).
    FirstFound,
}

/// EWMA smoothing factor for latency.
const ALPHA: f64 = 0.3;

/// One key's measurements.
#[derive(Debug, Clone, Copy, Default)]
struct Observation {
    /// Exponentially weighted moving average of response latency (µs).
    ewma_latency_us: f64,
    /// Total responses observed.
    responses: u64,
    /// Responses that were faults.
    faults: u64,
}

/// Response-latency EWMA (α = 0.3) and fault tally per key, trusted once
/// a key has `min_samples` responses. The proxy keeps one per b-peer
/// group ([`QosMonitor`]) and one per peer ([`PeerHealth`]).
#[derive(Debug, Clone)]
pub struct EwmaTable<K> {
    observations: HashMap<K, Observation>,
    /// Samples required before a key's measurements are trusted.
    min_samples: u64,
}

impl<K: Copy + Eq + Hash> EwmaTable<K> {
    /// Creates a table that trusts a key's measurements after
    /// `min_samples` responses.
    pub fn new(min_samples: u64) -> Self {
        EwmaTable {
            observations: HashMap::new(),
            min_samples,
        }
    }

    fn record(&mut self, key: K, latency: SimDuration, fault: bool) {
        let o = self.observations.entry(key).or_default();
        let l = latency.as_micros() as f64;
        o.ewma_latency_us = if o.responses == 0 {
            l
        } else {
            ALPHA * l + (1.0 - ALPHA) * o.ewma_latency_us
        };
        o.responses += 1;
        if fault {
            o.faults += 1;
        }
    }

    /// The key's measurements, once at least `min_samples` arrived.
    fn trusted(&self, key: K) -> Option<&Observation> {
        self.observations
            .get(&key)
            .filter(|o| o.responses >= self.min_samples)
    }

    /// Number of responses observed from `key` since the last reset.
    pub fn sample_count(&self, key: K) -> u64 {
        self.observations
            .get(&key)
            .map(|o| o.responses)
            .unwrap_or(0)
    }

    /// Observed fraction of non-fault responses, once any sample exists.
    pub fn observed_reliability(&self, key: K) -> Option<f64> {
        let o = self.observations.get(&key)?;
        Some(1.0 - o.faults as f64 / o.responses as f64)
    }

    /// Smoothed response latency of `key`, once any sample exists.
    pub fn ewma_latency(&self, key: K) -> Option<SimDuration> {
        let o = self.observations.get(&key)?;
        Some(SimDuration::from_micros(o.ewma_latency_us as u64))
    }

    /// Forgets `key`'s history, so that trust needs fresh evidence.
    pub fn reset(&mut self, key: K) {
        self.observations.remove(&key);
    }
}

/// Observed-QoS bookkeeping for the groups a proxy has used.
///
/// # Examples
///
/// ```
/// use whisper::QosMonitor;
/// use whisper_p2p::GroupId;
/// use whisper_simnet::SimDuration;
///
/// let mut m = QosMonitor::new(3);
/// let g = GroupId::new(1);
/// assert!(m.observed_utility(g).is_none()); // too few samples
/// for _ in 0..3 {
///     m.record_response(g, SimDuration::from_millis(2), false);
/// }
/// assert!(m.observed_utility(g).is_some());
/// ```
pub type QosMonitor = EwmaTable<GroupId>;

impl EwmaTable<GroupId> {
    /// Records one response from `group`: its latency and whether it was a
    /// fault.
    pub fn record_response(&mut self, group: GroupId, latency: SimDuration, fault: bool) {
        self.record(group, latency, fault);
    }

    /// A utility comparable to
    /// [`QosSpec::utility`](whisper_p2p::QosSpec::utility) (minus the cost
    /// term, which is not observable), computed from measurements; `None`
    /// until `min_samples` responses arrived.
    pub fn observed_utility(&self, group: GroupId) -> Option<f64> {
        let o = self.trusted(group)?;
        let reliability = 1.0 - o.faults as f64 / o.responses as f64;
        let speed = 5.0 / (1.0 + o.ewma_latency_us / 1_000.0);
        Some(reliability * 10.0 + speed)
    }
}

impl Default for EwmaTable<GroupId> {
    /// Trusts measurements after 5 samples.
    fn default() -> Self {
        EwmaTable::new(5)
    }
}

/// Per-*peer* response-latency EWMA — the fail-slow detector's evidence.
///
/// [`QosMonitor`] aggregates per *group* and cannot tell a slow coordinator
/// from a slow group; this tracker attributes each response to the peer
/// that produced it, so the proxy can demote one gray member while the
/// rest of its group keeps serving.
///
/// # Examples
///
/// ```
/// use whisper::PeerHealth;
/// use whisper_p2p::PeerId;
/// use whisper_simnet::SimDuration;
///
/// let mut h = PeerHealth::new(3);
/// let p = PeerId::new(7);
/// let slow = SimDuration::from_millis(50);
/// for _ in 0..3 {
///     h.record_response(p, slow);
/// }
/// assert!(h.is_fail_slow(p, SimDuration::from_millis(10)));
/// assert!(!h.is_fail_slow(p, SimDuration::from_millis(100)));
/// ```
pub type PeerHealth = EwmaTable<PeerId>;

impl EwmaTable<PeerId> {
    /// Records one response from `peer` with the observed latency.
    pub fn record_response(&mut self, peer: PeerId, latency: SimDuration) {
        self.record(peer, latency, false);
    }

    /// Whether `peer` looks fail-slow: at least `min_samples` responses
    /// observed and a smoothed latency above `threshold`. A peer that
    /// stops answering entirely never trips this — that is the crash
    /// detector's (timeout's) job, not the gray detector's. Callers
    /// [`reset`](EwmaTable::reset) a peer when its demotion's cooldown
    /// expires, so re-trip needs fresh evidence instead of the stale EWMA.
    pub fn is_fail_slow(&self, peer: PeerId, threshold: SimDuration) -> bool {
        self.trusted(peer)
            .is_some_and(|o| o.ewma_latency_us > threshold.as_micros() as f64)
    }
}

impl Default for EwmaTable<PeerId> {
    /// Flags a peer after 3 samples.
    fn default() -> Self {
        EwmaTable::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_semantic_then_qos() {
        assert_eq!(SelectionPolicy::default(), SelectionPolicy::SemanticThenQos);
    }

    #[test]
    fn utility_needs_min_samples() {
        let mut m = QosMonitor::new(3);
        let g = GroupId::new(1);
        m.record_response(g, SimDuration::from_millis(1), false);
        m.record_response(g, SimDuration::from_millis(1), false);
        assert_eq!(m.observed_utility(g), None);
        assert_eq!(m.sample_count(g), 2);
        m.record_response(g, SimDuration::from_millis(1), false);
        assert!(m.observed_utility(g).is_some());
    }

    #[test]
    fn faults_reduce_utility_latency_reduces_utility() {
        let mut fast = QosMonitor::new(1);
        let mut slow = QosMonitor::new(1);
        let mut flaky = QosMonitor::new(1);
        let g = GroupId::new(1);
        for _ in 0..10 {
            fast.record_response(g, SimDuration::from_micros(300), false);
            slow.record_response(g, SimDuration::from_millis(20), false);
            flaky.record_response(g, SimDuration::from_micros(300), true);
        }
        let (f, s, fl) = (
            fast.observed_utility(g).expect("samples"),
            slow.observed_utility(g).expect("samples"),
            flaky.observed_utility(g).expect("samples"),
        );
        assert!(f > s, "fast {f} should beat slow {s}");
        assert!(f > fl, "reliable {f} should beat flaky {fl}");
        assert!(s > fl, "reliability dominates speed: {s} vs {fl}");
    }

    #[test]
    fn ewma_tracks_recent_latency() {
        let mut m = QosMonitor::new(1);
        let g = GroupId::new(1);
        for _ in 0..20 {
            m.record_response(g, SimDuration::from_millis(1), false);
        }
        let before = m.observed_utility(g).expect("samples");
        for _ in 0..20 {
            m.record_response(g, SimDuration::from_millis(50), false);
        }
        let after = m.observed_utility(g).expect("samples");
        assert!(after < before, "degradation must show: {after} vs {before}");
    }

    #[test]
    fn peer_health_needs_min_samples_before_flagging() {
        let mut h = PeerHealth::new(3);
        let p = whisper_p2p::PeerId::new(1);
        let threshold = SimDuration::from_millis(5);
        h.record_response(p, SimDuration::from_millis(50));
        h.record_response(p, SimDuration::from_millis(50));
        assert!(!h.is_fail_slow(p, threshold), "2 samples < min 3");
        h.record_response(p, SimDuration::from_millis(50));
        assert!(h.is_fail_slow(p, threshold));
        assert_eq!(h.sample_count(p), 3);
        assert!(h.ewma_latency(p).expect("samples") >= SimDuration::from_millis(49));
    }

    #[test]
    fn peer_health_tracks_recovery_and_reset() {
        let mut h = PeerHealth::new(1);
        let p = whisper_p2p::PeerId::new(2);
        let threshold = SimDuration::from_millis(5);
        for _ in 0..5 {
            h.record_response(p, SimDuration::from_millis(50));
        }
        assert!(h.is_fail_slow(p, threshold));
        // enough fast samples drag the EWMA back under the threshold
        for _ in 0..20 {
            h.record_response(p, SimDuration::from_micros(300));
        }
        assert!(!h.is_fail_slow(p, threshold), "recovered peer un-flags");
        h.record_response(p, SimDuration::from_millis(50));
        h.reset(p);
        assert_eq!(h.sample_count(p), 0);
        assert!(!h.is_fail_slow(p, threshold), "reset forgets history");
    }

    #[test]
    fn reliability_accessor() {
        let mut m = QosMonitor::new(1);
        let g = GroupId::new(2);
        assert_eq!(m.observed_reliability(g), None);
        m.record_response(g, SimDuration::from_millis(1), false);
        m.record_response(g, SimDuration::from_millis(1), true);
        assert_eq!(m.observed_reliability(g), Some(0.5));
    }
}
