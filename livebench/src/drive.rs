//! The one generator thread: offers requests on an open-loop schedule or
//! keeps a closed-loop window full, absorbs every answer, and judges it.
//!
//! The generator never spins. Open loop: it blocks on the answer channel
//! until the next slot is due (`recv_timeout`), and latency is measured
//! from the slot's *intended* time, so a stall anywhere shows in the
//! percentiles; how late the generator itself ran is kept separately.
//! Closed loop: it blocks until an answer arrives and refills the window
//! at once. Per-request records are kept compact (24 bytes) so the
//! benchmark's own memory stays small next to the deployment's.

use std::time::{Duration, Instant};

use whisper_simnet::NodeId;

use crate::check::{Oracle, Verdict};
use crate::cluster::{Completion, Live};
use crate::inputs::{Expect, RequestStream};

/// Completions per second a closed-loop window reserves records for (well
/// above the measured ceiling; beyond it the store grows by doubling).
const CLOSED_LOOP_RESERVE_RPS: f64 = 60_000.0;

/// How requests are offered.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// A fixed schedule of `rate` requests per second.
    Open {
        /// Requests per second.
        rate: f64,
    },
    /// `window` requests kept in flight.
    Closed {
        /// Requests in flight.
        window: usize,
    },
}

/// One offered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was due, in ns after the window start (closed loop: when
    /// it was sent).
    pub intended_ns: u64,
    /// How late the generator handed it to the proxy, in ns.
    pub late_ns: u32,
    /// Intended send → answer, in µs (meaningful once `verdict` is set).
    pub latency_us: f32,
    expect: Expect,
    /// How the answer was judged; `None` while unanswered.
    pub verdict: Option<Verdict>,
}

impl Sample {
    /// Latency in µs of a good answer; a failed or missing one counts as
    /// infinitely late.
    pub fn good_latency_us(&self) -> f64 {
        match self.verdict {
            Some(Verdict::Good) => f64::from(self.latency_us),
            _ => f64::INFINITY,
        }
    }

    /// When the answer arrived, in ns after the window start.
    pub fn done_ns(&self) -> f64 {
        self.intended_ns as f64 + f64::from(self.latency_us) * 1e3
    }
}

/// Everything one measured window produced.
pub struct Drive {
    /// Offered requests, in order.
    pub samples: Vec<Sample>,
    /// Start of the offered window.
    pub start: Instant,
    /// End of the offered window.
    pub end: Instant,
    /// When the last answer arrived (or the drain gave up).
    pub drained: Instant,
    /// When the coordinator was killed, if it was.
    pub killed: Option<Instant>,
    /// Answers to ids this window never issued, or repeated answers
    /// (must stay 0).
    pub strays: u64,
}

impl Drive {
    /// Arrival times of the good answers, in ns after the start, sorted.
    pub fn good_done_ns(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.verdict == Some(Verdict::Good))
            .map(Sample::done_ns)
            .collect();
        crate::stats::sort(&mut v);
        v
    }

    /// Offset in ns after the start of `t`.
    pub fn ns(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.start).as_nanos() as f64
    }
}

/// Drives `live` for `window`, then drains outstanding answers for up to
/// `drain`. `kill` crashes a node at an offset into the window.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    live: &Live,
    stream: &mut RequestStream,
    oracle: &Oracle,
    first_id: u64,
    shape: Shape,
    window: Duration,
    drain: Duration,
    kill: Option<(Duration, NodeId)>,
) -> Drive {
    crate::procstat::tighten_timer_slack();
    // Reserved up front, so the record store never reallocates mid-window
    // and only the pages actually filled count toward resident memory.
    let capacity = match shape {
        Shape::Open { rate } => rate * window.as_secs_f64(),
        Shape::Closed { .. } => CLOSED_LOOP_RESERVE_RPS * window.as_secs_f64(),
    } as usize
        + 1;
    let start = Instant::now();
    let mut d = Drive {
        samples: Vec::with_capacity(capacity),
        start,
        end: start + window,
        drained: start,
        killed: None,
        strays: 0,
    };
    let end = d.end;
    let mut outstanding = 0usize;
    let mut issue = |d: &mut Drive, intended: Instant, outstanding: &mut usize| {
        let (envelope, expect) = stream.next_request();
        let id = first_id + d.samples.len() as u64;
        let late = Instant::now().saturating_duration_since(intended);
        d.samples.push(Sample {
            intended_ns: intended.duration_since(start).as_nanos() as u64,
            late_ns: u32::try_from(late.as_nanos()).unwrap_or(u32::MAX),
            latency_us: 0.0,
            expect,
            verdict: None,
        });
        live.submit(id, envelope);
        *outstanding += 1;
    };
    let maybe_kill = |d: &mut Drive, now: Instant| {
        if let Some((at, node)) = kill {
            if d.killed.is_none() && now >= start + at {
                live.kill(node);
                d.killed = Some(Instant::now());
            }
        }
    };
    match shape {
        Shape::Open { rate } => {
            let interval = Duration::from_secs_f64(1.0 / rate);
            let mut slot = 0u32;
            loop {
                let intended = start + interval * slot;
                if intended >= end {
                    break;
                }
                loop {
                    let now = Instant::now();
                    maybe_kill(&mut d, now);
                    let Some(wait) = intended.checked_duration_since(now) else {
                        break;
                    };
                    if let Ok(c) = live.done.recv_timeout(wait) {
                        absorb(&mut d, c, first_id, oracle, &mut outstanding);
                    }
                }
                issue(&mut d, intended, &mut outstanding);
                slot += 1;
            }
        }
        Shape::Closed { window } => {
            for _ in 0..window {
                issue(&mut d, Instant::now(), &mut outstanding);
            }
            loop {
                let now = Instant::now();
                maybe_kill(&mut d, now);
                let Some(wait) = end.checked_duration_since(now) else {
                    break;
                };
                if let Ok(c) = live.done.recv_timeout(wait) {
                    if absorb(&mut d, c, first_id, oracle, &mut outstanding) {
                        let now = Instant::now();
                        if now < end {
                            issue(&mut d, now, &mut outstanding);
                        }
                    }
                }
            }
        }
    }
    let deadline = Instant::now() + drain;
    while outstanding > 0 {
        let Some(wait) = deadline.checked_duration_since(Instant::now()) else {
            break;
        };
        if let Ok(c) = live.done.recv_timeout(wait) {
            absorb(&mut d, c, first_id, oracle, &mut outstanding);
        }
    }
    d.drained = Instant::now();
    d
}

/// Records one answer; `true` when it completed an outstanding request
/// of this window.
fn absorb(
    d: &mut Drive,
    c: Completion,
    first_id: u64,
    oracle: &Oracle,
    outstanding: &mut usize,
) -> bool {
    let start = d.start;
    let sample =
        c.id.checked_sub(first_id)
            .and_then(|i| d.samples.get_mut(usize::try_from(i).ok()?))
            .filter(|s| s.verdict.is_none());
    let Some(sample) = sample else {
        d.strays += 1;
        return false;
    };
    let intended = start + Duration::from_nanos(sample.intended_ns);
    sample.latency_us = (c.at.saturating_duration_since(intended).as_secs_f64() * 1e6) as f32;
    sample.verdict = Some(oracle.judge(&c.envelope, sample.expect));
    *outstanding -= 1;
    true
}

/// Sends `n` requests with at most `window` in flight and waits for their
/// answers: traffic outside any measured window. Returns how many answers
/// were not good (a missing answer counts).
pub fn warm(
    live: &Live,
    stream: &mut RequestStream,
    oracle: &Oracle,
    first_id: u64,
    n: usize,
    window: usize,
) -> usize {
    let mut bad = 0;
    let mut expects = Vec::with_capacity(n);
    let mut inflight = 0;
    let mut answered = 0;
    while answered < n {
        while inflight < window && expects.len() < n {
            let (envelope, expect) = stream.next_request();
            live.submit(first_id + expects.len() as u64, envelope);
            expects.push(expect);
            inflight += 1;
        }
        let Ok(c) = live.done.recv_timeout(Duration::from_secs(10)) else {
            return bad + n - answered;
        };
        let Some(&expect) =
            c.id.checked_sub(first_id)
                .and_then(|i| expects.get(usize::try_from(i).ok()?))
        else {
            continue;
        };
        if oracle.judge(&c.envelope, expect) != Verdict::Good {
            bad += 1;
        }
        inflight -= 1;
        answered += 1;
    }
    bad
}
