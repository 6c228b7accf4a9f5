//! Self-tests of the benchmark: tiny runs of every workload answer
//! correctly, a broken backend is caught, and the traced breakdowns add
//! up to the end-to-end numbers they explain.
//!
//! Each test boots real loopback deployments; they take a lock so only
//! one runs at a time on a small machine.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use whisper::{BackendError, ServiceBackend};
use whisper_livebench::{no_wrap, run_end_to_end, run_traced, Plan, Workload};
use whisper_xml::Element;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn plan(workload: Workload, seconds: f64) -> Plan {
    Plan {
        workload,
        seed: 42,
        window: Duration::from_secs_f64(seconds),
        wrap: no_wrap,
    }
}

fn metric(report: &whisper_livebench::Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} reported"))
        .value
}

#[test]
fn tiny_runs_of_every_workload_answer_correctly() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        // failover needs room for the 2 s proxy timeout inside each session
        let seconds = if w == Workload::Failover { 9.0 } else { 1.5 };
        let report = run_end_to_end(&plan(w, seconds)).expect("run completes");
        assert!(report.correct, "{}: {:?}", w.name(), report.lines);
        assert_eq!(report.failed, 0, "{}: {:?}", w.name(), report.lines);
        assert!(report.attempted > 0);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", w.name(), m.name, m.value);
        }
    }
}

/// Answers with the wrong student name once it is older than 700 ms,
/// so the wrong answers land in the measured window rather than in
/// set-up or warm-up (either place must fail the run).
struct Misspelling {
    inner: Box<dyn ServiceBackend>,
    born: Instant,
}

impl ServiceBackend for Misspelling {
    fn handle(&mut self, operation: &str, payload: &Element) -> Result<Element, BackendError> {
        let out = self.inner.handle(operation, payload)?;
        if self.born.elapsed() < Duration::from_millis(700) {
            return Ok(out);
        }
        let mut renamed = Element::new(out.name.clone());
        for child in out.child_elements() {
            if child.name.as_ref() == "Name" {
                renamed.push_child(Element::with_text("Name", "Somebody Else"));
            } else {
                renamed.push_child(child.clone());
            }
        }
        Ok(renamed)
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn replicate(&self) -> Option<Box<dyn ServiceBackend>> {
        Some(Box::new(Misspelling {
            inner: self.inner.replicate()?,
            born: self.born,
        }))
    }
}

fn misspell(inner: Box<dyn ServiceBackend>) -> Box<dyn ServiceBackend> {
    Box::new(Misspelling {
        inner,
        born: Instant::now(),
    })
}

#[test]
fn a_wrong_backend_fails_the_check() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut p = plan(Workload::Steady, 6.0);
    p.wrap = misspell;
    match run_end_to_end(&p) {
        Ok(report) => {
            assert!(!report.correct, "{:?}", report.lines);
            assert!(report.failed > 0, "{:?}", report.lines);
            assert!(report.json().starts_with("{\"correct\": false"));
        }
        Err(e) => assert!(e.contains("not correct"), "{e}"),
    }
}

#[test]
fn traced_steady_stages_add_up_to_the_traced_latency() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_traced(&plan(Workload::Steady, 4.0)).expect("run completes");
    assert!(report.correct, "{:?}", report.lines);
    // Hops + handler self times + backend along the path, per request,
    // against the traced p50 from the actual send. Worker-pool queueing
    // and send-side encoding are covered by no span, so the sum may fall
    // short of the p50 by up to 40%; it must never exceed it by more
    // than 15%.
    let ratio = metric(&report, "trace.stage_sum_ratio");
    assert!((0.6..=1.15).contains(&ratio), "stage sum / p50 = {ratio}");
    assert_eq!(metric(&report, "tcpnet.decode_errors"), 0.0);
    assert_eq!(metric(&report, "backend.calls_per_req"), 1.0);
}

#[test]
fn failover_detect_elect_rebind_add_up_to_the_gap() {
    let _one = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let report = run_traced(&plan(Workload::Failover, 12.0)).expect("run completes");
    assert!(report.correct, "{:?}", report.lines);
    let parts = metric(&report, "heartbeat.detect_ms")
        + metric(&report, "election.elect_ms")
        + metric(&report, "proxy.rebind_ms");
    let gap = metric(&report, "failover.gap_ms");
    assert!(parts > 0.0 && gap > 0.0, "{:?}", report.lines);
    // The gap runs from the last completion before the kill to the first
    // after the rebind; the parts start at the kill itself. Tolerance: 5%
    // of the gap or 25 ms, whichever is larger.
    let tolerance = (0.05 * gap).max(25.0);
    assert!(
        (parts - gap).abs() <= tolerance,
        "detect+elect+rebind {parts:.1} ms vs gap {gap:.1} ms"
    );
}
