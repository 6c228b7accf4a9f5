//! A live-TCP benchmark of one Whisper deployment.
//!
//! One command boots the paper's deployment (an SWS-proxy in front of one
//! semantic group of three b-peers, operational-database and
//! data-warehouse replicas alternating) on real TCP loopback, drives one
//! of four seeded workloads from one generator thread, checks every
//! answer, and prints the end-to-end metrics — or, with `--trace 1`, the
//! per-layer breakdown taken from outside the program. See `README.md`
//! next to this crate for the workloads, the metrics and how they map.

pub mod alloc;
pub mod check;
pub mod cluster;
pub mod drive;
pub mod inputs;
pub mod layers;
pub mod procstat;
pub mod stats;
pub mod trace;

use std::sync::Arc;
use std::time::{Duration, Instant};

use whisper_simnet::{MetricsSnapshot, NodeId};

use crate::check::{Oracle, Verdict};
use crate::cluster::{BackendWrap, Live, Service, REQUEST_TIMEOUT};
use crate::drive::{Drive, Shape};
use crate::inputs::RequestStream;
use crate::trace::Tracer;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 2 reads in flight: the warm path well below the knee.
    Steady,
    /// Closed loop, 32 reads in flight: the throughput ceiling.
    Saturate,
    /// Closed loop, 4 purchase-order writes of tens of KiB in flight.
    Orders,
    /// Closed loop, 4 reads in flight, the coordinator killed once.
    Failover,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Steady,
        Workload::Saturate,
        Workload::Orders,
        Workload::Failover,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Saturate => "saturate",
            Workload::Orders => "orders",
            Workload::Failover => "failover",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How requests are offered.
    pub fn shape(self) -> Shape {
        match self {
            // Closed, not open loops: an open loop at 1k or 2k reads/s
            // leaves the virtual CPUs idle between requests, and its p50
            // and CPU per request then follow how fast the host wakes them,
            // not the program (see README.md, "Why no workload is an open
            // loop").
            Workload::Steady => Shape::Closed { window: 2 },
            Workload::Saturate => Shape::Closed { window: 32 },
            Workload::Orders => Shape::Closed { window: 4 },
            Workload::Failover => Shape::Closed { window: 4 },
        }
    }

    fn is_orders(self) -> bool {
        self == Workload::Orders
    }
}

/// One run's settings.
#[derive(Clone, Copy)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every input.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Rewraps every replica's backend (the identity outside self-tests).
    pub wrap: BackendWrap,
}

/// The identity [`BackendWrap`].
pub fn no_wrap(b: Box<dyn whisper::ServiceBackend>) -> Box<dyn whisper::ServiceBackend> {
    b
}

/// Request-id ranges, so answers to set-up and warm-up traffic can never
/// be mistaken for measured ones.
const SETUP_IDS: u64 = 1 << 40;
const WARM_IDS: u64 = 2 << 40;
const RUN_IDS: u64 = 3 << 40;

/// One boot of the deployment, warmed up and driven for one window.
pub struct Session {
    /// Seconds from boot to the first correct answer.
    pub setup_s: f64,
    /// The measured window.
    pub drive: Drive,
    /// Process CPU over the window and its drain, generator excluded.
    pub cpu_s: f64,
    /// Allocations over the window and its drain.
    pub allocs: u64,
    /// Transport counters at the start and end of the window.
    pub net: (MetricsSnapshot, MetricsSnapshot),
    /// Threads the process ran during the window.
    pub threads: f64,
    /// Node ids of the deployment's roles.
    pub nodes: Nodes,
    /// Semantic advertisements of the deployment.
    pub advs: Vec<whisper_p2p::SemanticAdv>,
}

/// Where the deployment's roles landed.
#[derive(Debug, Clone)]
pub struct Nodes {
    /// The b-peers.
    pub bpeers: Vec<NodeId>,
    /// The SWS-proxy.
    pub proxy: NodeId,
    /// The benchmark's client.
    pub client: NodeId,
}

/// The service a plan's deployment serves and the oracle that checks
/// its answers.
pub fn service_of(plan: &Plan) -> (Service, Oracle) {
    if plan.workload.is_orders() {
        (Service::Orders, Oracle::Orders { seed: plan.seed })
    } else {
        let students = Arc::new(inputs::students(plan.seed));
        (
            Service::Students(Arc::clone(&students)),
            Oracle::Students(students),
        )
    }
}

fn stream_of(plan: &Plan, oracle: &Oracle, purpose: u64) -> RequestStream {
    match oracle {
        Oracle::Orders { .. } => RequestStream::orders(plan.seed, purpose),
        Oracle::Students(table) => RequestStream::students(plan.seed, purpose, table),
    }
}

/// Boots session `index`'s deployment, waits until every b-peer agrees on
/// a coordinator and the first request is answered correctly (that span
/// is its set-up time), warms it up, then drives one measured `window`.
///
/// # Errors
///
/// A deployment that never becomes ready, or set-up or warm-up answers
/// that are not correct.
pub fn session(
    plan: &Plan,
    index: u64,
    window: Duration,
    tracer: Option<Arc<Tracer>>,
) -> Result<Session, String> {
    let (service, oracle) = service_of(plan);
    let purpose = |p: u64| 100 * index + p;

    let t0 = Instant::now();
    let live = Live::boot(&service, plan.wrap, tracer.clone()).map_err(|e| format!("boot: {e}"))?;
    let coordinator = loop {
        if let Some(c) = live.agreed_coordinator(Duration::from_millis(500)) {
            break c;
        }
        if t0.elapsed() > Duration::from_secs(30) {
            live.shutdown();
            return Err("the b-peers never agreed on a coordinator".into());
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let mut first = stream_of(plan, &oracle, purpose(1));
    let bad = drive::warm(&live, &mut first, &oracle, SETUP_IDS, 1, 1);
    let setup_s = t0.elapsed().as_secs_f64();
    let (warm_n, warm_window) = if plan.workload.is_orders() {
        (64, 4)
    } else {
        (512, 8)
    };
    let mut warm_stream = stream_of(plan, &oracle, purpose(2));
    let bad = bad
        + drive::warm(
            &live,
            &mut warm_stream,
            &oracle,
            WARM_IDS,
            warm_n,
            warm_window,
        );
    if bad > 0 {
        live.shutdown();
        return Err(format!("{bad} set-up or warm-up answers were not correct"));
    }
    if let Some(t) = &tracer {
        t.clear();
    }

    let kill = (plan.workload == Workload::Failover).then(|| {
        let offset = inputs::kill_offset(plan.seed ^ (index << 32), window);
        (offset, coordinator)
    });
    let drain = if kill.is_some() {
        REQUEST_TIMEOUT * 4
    } else {
        REQUEST_TIMEOUT * 2
    };
    let mut stream = stream_of(plan, &oracle, purpose(3));
    let net0 = live.metrics();
    let cpu0 = procstat::process_cpu_s();
    let gen0 = procstat::thread_cpu_s();
    let allocs0 = alloc::allocations();
    let d = drive::drive(
        &live,
        &mut stream,
        &oracle,
        RUN_IDS,
        plan.workload.shape(),
        window,
        drain,
        kill,
    );
    let allocs = alloc::allocations() - allocs0;
    let gen = procstat::thread_cpu_s() - gen0;
    let cpu = procstat::process_cpu_s() - cpu0;
    let net1 = live.metrics();
    let threads = procstat::threads();
    let nodes = Nodes {
        bpeers: live.bpeers.clone(),
        proxy: live.proxy,
        client: live.client,
    };
    let advs = live.advs.clone();
    live.shutdown();
    Ok(Session {
        setup_s,
        drive: d,
        cpu_s: (cpu - gen).max(0.0),
        allocs,
        net: (net0, net1),
        threads,
        nodes,
        advs,
    })
}

/// Target length of one slice of the window. Throughput and latency
/// percentiles are taken per slice and reported as the median over slices,
/// so a burst of outside noise moves one slice, not the result.
pub const SLICE: Duration = Duration::from_secs(1);

/// Statistics of one slice of a window.
#[derive(Debug, Clone, Copy)]
struct SliceStats {
    rps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    gap_ms: f64,
}

/// The end-to-end view of a run, accumulated one session at a time so
/// per-request records can be dropped as soon as a session is summarized.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    /// Requests offered.
    pub attempted: u64,
    /// Correct answers.
    pub good: u64,
    /// `<soap:Fault>` answers.
    pub faults: u64,
    /// Non-fault answers that were not the expected ones.
    pub wrong: u64,
    /// Requests never answered.
    pub unanswered: u64,
    /// Answers to ids no session issued, or repeated answers.
    pub strays: u64,
    cpu_s: f64,
    /// ≈[`SLICE`]-long slices: throughput and p50.
    slices: Vec<SliceStats>,
    /// The slices tail statistics (p90, p99, longest gap) are taken over.
    tails: Vec<SliceStats>,
    /// Per session: p99.9 latency, generator lateness p99, p50 from the
    /// actual send.
    sessions: Vec<[f64; 3]>,
}

/// Statistics of the requests offered in `[from, to)` ns and of the good
/// answers that arrived in `[from, done_by]`.
fn slice_stats(d: &Drive, good_done: &[f64], from: f64, to: f64, done_by: f64) -> SliceStats {
    let mut v: Vec<f64> = d
        .samples
        .iter()
        .filter(|s| (from..to).contains(&(s.intended_ns as f64)))
        .map(drive::Sample::good_latency_us)
        .collect();
    stats::sort(&mut v);
    let lo = good_done.partition_point(|t| *t < from);
    let hi = good_done.partition_point(|t| *t <= done_by);
    let done = &good_done[lo..hi];
    let rps = match done {
        [first, .., last] if last > first => (done.len() - 1) as f64 * 1e9 / (last - first),
        _ => 0.0,
    };
    SliceStats {
        rps,
        p50_us: stats::rank(&v, 0.50),
        p90_us: stats::rank(&v, 0.90),
        p99_us: stats::rank(&v, 0.99),
        gap_ms: done
            .windows(2)
            .map(|w| (w[1] - w[0]) / 1e6)
            .fold(0.0, f64::max),
    }
}

impl EndToEnd {
    /// Adds one session. With `tail_per_session` (on `failover`) the tail
    /// statistics are taken over the whole session, drain included, so the
    /// outage stays inside one slice; otherwise over the ≈[`SLICE`] slices.
    pub fn add(&mut self, m: &Session, tail_per_session: bool) {
        let d = &m.drive;
        self.attempted += d.samples.len() as u64;
        self.strays += d.strays;
        self.cpu_s += m.cpu_s;
        for s in &d.samples {
            match s.verdict {
                Some(Verdict::Good) => self.good += 1,
                Some(Verdict::Fault) => self.faults += 1,
                Some(Verdict::Wrong) => self.wrong += 1,
                None => self.unanswered += 1,
            }
        }
        let good_done = d.good_done_ns();
        let window_ns = d.ns(d.end);
        // The window splits into equal slices as close to SLICE as fit.
        let n = (window_ns / SLICE.as_nanos() as f64).round().max(1.0) as u32;
        let step = window_ns / f64::from(n);
        for i in 0..n {
            let (from, to) = (f64::from(i) * step, f64::from(i + 1) * step);
            let slice = slice_stats(d, &good_done, from, to, to);
            self.slices.push(slice);
            if !tail_per_session {
                self.tails.push(slice);
            }
        }
        if tail_per_session {
            let drained = d.ns(d.drained);
            self.tails
                .push(slice_stats(d, &good_done, 0.0, window_ns, drained));
        }
        let mut all: Vec<f64> = d
            .samples
            .iter()
            .map(drive::Sample::good_latency_us)
            .collect();
        let mut sent: Vec<f64> = d
            .samples
            .iter()
            .map(|s| s.good_latency_us() - f64::from(s.late_ns) / 1e3)
            .collect();
        let mut late: Vec<f64> = d
            .samples
            .iter()
            .map(|s| f64::from(s.late_ns) / 1e3)
            .collect();
        stats::sort(&mut all);
        stats::sort(&mut sent);
        stats::sort(&mut late);
        self.sessions.push([
            stats::rank(&all, 0.999),
            stats::rank(&late, 0.99),
            stats::rank(&sent, 0.50),
        ]);
    }

    /// One session, summarized on its own.
    pub fn of(m: &Session, tail_per_session: bool) -> EndToEnd {
        let mut e = EndToEnd::default();
        e.add(m, tail_per_session);
        e
    }

    fn slice_median(&self, f: impl Fn(&SliceStats) -> f64) -> f64 {
        stats::median(&self.slices.iter().map(f).collect::<Vec<_>>())
    }

    fn tail_median(&self, f: impl Fn(&SliceStats) -> f64) -> f64 {
        stats::median(&self.tails.iter().map(f).collect::<Vec<_>>())
    }

    fn session_median(&self, i: usize) -> f64 {
        stats::median(&self.sessions.iter().map(|s| s[i]).collect::<Vec<_>>())
    }

    /// Good completions per second over the span from a slice's first to
    /// its last good completion, median over slices.
    pub fn throughput_rps(&self) -> f64 {
        self.slice_median(|s| s.rps)
    }

    /// Latency p50 in µs (open loop: from the intended send time), median
    /// over slices; a failed request counts as infinitely late.
    pub fn p50_us(&self) -> f64 {
        self.slice_median(|s| s.p50_us)
    }

    /// Latency p90 in µs, median over tail slices.
    pub fn p90_us(&self) -> f64 {
        self.tail_median(|s| s.p90_us)
    }

    /// Latency p99 in µs, median over tail slices.
    pub fn p99_us(&self) -> f64 {
        self.tail_median(|s| s.p99_us)
    }

    /// Longest interval between consecutive good completions, in ms,
    /// median over tail slices.
    pub fn gap_ms(&self) -> f64 {
        self.tail_median(|s| s.gap_ms)
    }

    /// Latency p99.9 in µs over each whole session, median over sessions.
    pub fn p999_us(&self) -> f64 {
        self.session_median(0)
    }

    /// Generator lateness p99 in µs, median over sessions.
    pub fn late_p99_us(&self) -> f64 {
        self.session_median(1)
    }

    /// Latency p50 in µs from the actual send, median over sessions.
    pub fn p50_sent_us(&self) -> f64 {
        self.session_median(2)
    }

    /// Process CPU per good request in µs, generator excluded.
    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_s * 1e6 / self.good.max(1) as f64
    }

    /// Slices the medians were taken over.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Failed requests: faults, wrong answers and unanswered ones.
    pub fn failed(&self) -> u64 {
        self.faults + self.wrong + self.unanswered
    }

    /// (faults + wrong + unanswered) / attempted.
    pub fn error_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }
}

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Everything a run prints.
pub struct Report {
    /// Every answer was the expected one (faults aside).
    pub correct: bool,
    /// Requests offered in the measured window(s).
    pub attempted: u64,
    /// Failed requests among them.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    stats::json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sessions (boots) per untraced run; `setup_s` is their median.
pub const SESSIONS: usize = 3;

/// The untraced run: every end-to-end metric. Each of [`SESSIONS`] boots
/// is timed for `setup_s`. The window is split over all of them, except on
/// `failover`, where only the last boot is driven, for the whole window,
/// so its one outage and the retries after it stay a small share of the
/// slices the median is taken over.
///
/// # Errors
///
/// See [`session`].
pub fn run_end_to_end(plan: &Plan) -> Result<Report, String> {
    let failover = plan.workload == Workload::Failover;
    let window = if failover {
        plan.window
    } else {
        plan.window / SESSIONS as u32
    };
    let mut e = EndToEnd::default();
    let (mut setup, mut per) = (Vec::new(), Vec::new());
    for i in 0..SESSIONS as u64 {
        let driven = !failover || i + 1 == SESSIONS as u64;
        let s = session(plan, i, if driven { window } else { Duration::ZERO }, None)?;
        setup.push(s.setup_s);
        if driven {
            e.add(&s, failover);
            per.push(EndToEnd::of(&s, failover));
        }
    }
    let metrics = vec![
        metric("setup_s", "s", stats::median(&setup)),
        metric("throughput_rps", "1/s", e.throughput_rps()),
        metric("latency_p50_us", "us", e.p50_us()),
        metric("cpu_us_per_req", "us", e.cpu_us_per_req()),
        metric("rss_mb", "MiB", procstat::peak_rss_mb()),
    ];
    let mut lines = vec![format!(
        "workload {} seed {}: {} driven sessions x {:.1}s, {} slices; attempted {} good {} faults {} wrong {} unanswered {} strays {}",
        plan.workload.name(),
        plan.seed,
        per.len(),
        window.as_secs_f64(),
        e.slice_count(),
        e.attempted,
        e.good,
        e.faults,
        e.wrong,
        e.unanswered,
        e.strays,
    )];
    for mt in &metrics {
        lines.push(format!("  {:<18} {:>14.3} {}", mt.name, mt.value, mt.unit));
    }
    for (name, unit, v) in [
        ("latency_p90_us", "us", e.p90_us()),
        ("latency_p99_us", "us", e.p99_us()),
        ("latency_p999_us", "us", e.p999_us()),
        ("failover_gap_ms", "ms", e.gap_ms()),
        ("error_ratio", "ratio", e.error_ratio()),
        ("gen.late_p99_us", "us", e.late_p99_us()),
    ] {
        lines.push(format!(
            "  {name:<18} {v:>14.3} {unit}   (printed, not gated)"
        ));
    }
    lines.push(format!("  setup_s per session: {setup:.3?}"));
    lines.push(format!(
        "  per session: p50 {:.1?} us, cpu {:.1?} us/req",
        per.iter().map(EndToEnd::p50_us).collect::<Vec<_>>(),
        per.iter().map(EndToEnd::cpu_us_per_req).collect::<Vec<_>>()
    ));
    Ok(Report {
        correct: e.wrong == 0 && e.strays == 0,
        attempted: e.attempted,
        failed: e.failed(),
        metrics,
        lines,
    })
}

/// Where the traced run writes its spans, relative to the working
/// directory (the checkout root).
pub const TRACE_DIR: &str = ".livebench";

/// The traced run: an untraced session (allocation counting on) and a
/// traced one, each half the window, then every per-layer metric.
///
/// # Errors
///
/// See [`session`].
pub fn run_traced(plan: &Plan) -> Result<Report, String> {
    let window = plan.window / 2;
    alloc::set_counting(true);
    let plain = session(plan, 0, window, None);
    alloc::set_counting(false);
    let plain = plain?;
    let tracer = Tracer::new();
    let traced = session(plan, 1, window, Some(Arc::clone(&tracer)))?;
    let trace = tracer.take();
    let (service, _) = service_of(plan);
    let layers = layers::analyze(&service, &plain, &traced, &trace);

    let mut lines = Vec::new();
    let path = std::path::Path::new(TRACE_DIR).join(format!(
        "trace-{}-{}.jsonl",
        plan.workload.name(),
        plan.seed
    ));
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            trace.write_jsonl(traced.drive.start, &mut out)?;
            std::io::Write::flush(&mut out)
        });
    lines.push(match written {
        Ok(()) => format!(
            "traced run of {} seed {}: {} spans in {} ({} past the in-memory cap)",
            plan.workload.name(),
            plan.seed,
            trace.spans.len(),
            path.display(),
            trace.dropped_spans
        ),
        Err(e) => format!("traced run: spans not written to {}: {e}", path.display()),
    });
    for (name, unit, v) in &layers.metrics {
        lines.push(format!("  {name:<28} {v:>14.3} {unit}"));
    }
    lines.extend(layers.lines.iter().cloned());
    lines.push(format!(
        "  stage sum {:.1} us vs traced p50 (from send) {:.1} us: ratio {:.3}",
        layers.stage_sum_us,
        layers.traced_p50_us,
        layers.get("trace.stage_sum_ratio")
    ));
    let f = &layers.failover;
    if traced.drive.killed.is_some() {
        let parts = [
            ("detect", f.detect_ms),
            ("elect", f.elect_ms),
            ("rebind", f.rebind_ms),
        ];
        let top = parts
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three parts");
        lines.push(format!(
            "  failover: detect {:.1} + elect {:.1} + rebind {:.1} = {:.1} ms vs gap {:.1} ms; {} dominates",
            f.detect_ms,
            f.elect_ms,
            f.rebind_ms,
            f.detect_ms + f.elect_ms + f.rebind_ms,
            f.gap_ms,
            top.0
        ));
    }
    let e = [EndToEnd::of(&plain, true), EndToEnd::of(&traced, true)];
    let metrics = layers
        .metrics
        .iter()
        .map(|(name, unit, value)| metric(name, unit, *value))
        .collect();
    Ok(Report {
        correct: e.iter().all(|e| e.wrong == 0 && e.strays == 0)
            && layers.get("tcpnet.decode_errors") == 0.0,
        attempted: e.iter().map(|e| e.attempted).sum(),
        failed: e.iter().map(EndToEnd::failed).sum(),
        metrics,
        lines,
    })
}
