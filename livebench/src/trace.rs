//! Tracing from outside the program, for the traced run only.
//!
//! Nothing inside the Whisper crates is instrumented. Instead the
//! benchmark wraps what the public API lets it wrap:
//!
//! - [`TracingSpawner`] boxes every actor the scenario wiring registers in
//!   a [`TimedActor`], which times `on_message`/`on_timer` per message kind
//!   and correlation id;
//! - [`TimedBackend`] times every `ServiceBackend::handle`;
//! - a `NetHook` stamps every send, and the receiving [`TimedActor`] closes
//!   the hop when `on_message` is entered (links are FIFO, so the n-th
//!   send on a link is the n-th receive).
//!
//! Spans stay in memory (bounded) and are written out when the run ends.

use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use whisper::{ServiceBackend, WhisperMsg};
use whisper_simnet::{
    Actor, Context, DynActor, FlightHook, NetHook, NodeId, SimTime, Spawner, TraceOutcome, Wire,
};
use whisper_xml::Element;

thread_local! {
    /// The node whose handler runs on this thread right now, so a backend
    /// call can tell whether it ran inline on an actor loop or on a worker.
    static IN_HANDLER: Cell<Option<NodeId>> = const { Cell::new(None) };
}

/// Spans kept per traced run. Once full, the store stops recording spans
/// and data-plane sends and notes when, so per-request figures are taken
/// over the part of the window it covers. Control-plane sends (a few dozen
/// a second) are still recorded, so a kill after the store filled keeps
/// its heartbeat and election timeline.
const MAX_SPANS: usize = 1_000_000;
/// Message samples kept per kind for the codec timings.
const SAMPLES_PER_KIND: usize = 32;

/// One message send seen by the net hook.
#[derive(Debug, Clone, Copy)]
pub struct SendRec {
    /// When the transport accepted it.
    pub at: Instant,
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message kind.
    pub kind: &'static str,
    /// Encoded size.
    pub bytes: usize,
}

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Send stamp → the receiving actor's `on_message` entry.
    Hop,
    /// An actor's `on_message`.
    Handle,
    /// An actor's `on_timer`.
    Timer,
    /// A `ServiceBackend::handle` call.
    Backend,
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub what: SpanKind,
    /// Where it ran (hops: the receiver; backends: the actor whose
    /// handler called it inline, `None` on a worker thread).
    pub node: Option<NodeId>,
    /// What caused it: the sending node of a hop or of a handled message.
    pub cause: Option<NodeId>,
    /// Message kind (or operation name for backends, `timer` for timers).
    pub kind: &'static str,
    /// Correlation id of the message, when it has one.
    pub corr: Option<u64>,
    /// Start.
    pub start: Instant,
    /// End.
    pub end: Instant,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e6
    }
}

/// Everything a traced run recorded.
#[derive(Default)]
pub struct Trace {
    /// Every send until the store filled, control-plane sends after it,
    /// in stamp order.
    pub sends: Vec<SendRec>,
    /// Every span that fit in memory.
    pub spans: Vec<Span>,
    /// Spans that did not fit in memory.
    pub dropped_spans: u64,
    /// When the store filled up, if it did.
    pub full_at: Option<Instant>,
    /// The first messages of each kind, for the codec timings.
    pub samples: HashMap<&'static str, Vec<WhisperMsg>>,
}

impl Trace {
    /// Writes every span as one JSON line, times in µs after `origin`.
    ///
    /// # Errors
    ///
    /// I/O errors of `out`.
    pub fn write_jsonl(&self, origin: Instant, out: &mut impl Write) -> std::io::Result<()> {
        let us = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e6;
        let id = |n: Option<u64>| n.map_or("null".to_string(), |n| n.to_string());
        for s in &self.spans {
            writeln!(
                out,
                "{{\"span\":\"{:?}\",\"node\":{},\"cause\":{},\"kind\":\"{}\",\"corr\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.what,
                id(s.node.map(|n| n.index() as u64)),
                id(s.cause.map(|n| n.index() as u64)),
                s.kind,
                id(s.corr),
                us(s.start),
                us(s.end),
            )?;
        }
        Ok(())
    }
}

#[derive(Default)]
struct State {
    /// Send stamps not yet received, FIFO per directed link.
    pending: HashMap<(NodeId, NodeId), VecDeque<Instant>>,
    trace: Trace,
}

/// The traced run's in-memory span store.
pub struct Tracer {
    state: Mutex<State>,
}

impl Tracer {
    /// An empty store.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            state: Mutex::new(State::default()),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer poisoned")
    }

    fn push(t: &mut Trace, span: Span) {
        if t.spans.len() < MAX_SPANS {
            t.spans.push(span);
        } else {
            t.full_at.get_or_insert_with(Instant::now);
            t.dropped_spans += 1;
        }
    }

    /// Forgets every send and span so far (the warm-up before the
    /// measured window); message samples are kept.
    pub fn clear(&self) {
        let t = &mut self.lock().trace;
        t.sends.clear();
        t.spans.clear();
        t.dropped_spans = 0;
        t.full_at = None;
    }

    /// Takes everything recorded so far.
    pub fn take(&self) -> Trace {
        std::mem::take(&mut self.lock().trace)
    }

    fn on_send(&self, rec: SendRec) {
        let mut st = self.lock();
        st.pending
            .entry((rec.from, rec.to))
            .or_default()
            .push_back(rec.at);
        if st.trace.full_at.is_none() || crate::layers::CONTROL_KINDS.contains(&rec.kind) {
            st.trace.sends.push(rec);
        }
    }

    fn on_drop(&self, from: NodeId, to: NodeId) {
        // The hook reports a drop right after the send it cancels.
        if let Some(q) = self.lock().pending.get_mut(&(from, to)) {
            q.pop_back();
        }
    }

    fn on_receive(&self, node: NodeId, from: NodeId, msg: &WhisperMsg, at: Instant) {
        let mut st = self.lock();
        let kind = msg.kind();
        let samples = st.trace.samples.entry(kind).or_default();
        if samples.len() < SAMPLES_PER_KIND {
            samples.push(msg.clone());
        }
        if let Some(sent) = st
            .pending
            .get_mut(&(from, node))
            .and_then(|q| q.pop_front())
        {
            Self::push(
                &mut st.trace,
                Span {
                    what: SpanKind::Hop,
                    node: Some(node),
                    cause: Some(from),
                    kind,
                    corr: msg.correlation(),
                    start: sent,
                    end: at,
                },
            );
        }
    }

    fn record(&self, span: Span) {
        Self::push(&mut self.lock().trace, span);
    }
}

/// A net hook that stamps every send into a [`Tracer`].
pub struct SendStamp(pub Arc<Tracer>);

impl NetHook for SendStamp {
    fn on_send(&mut self, _: SimTime, from: NodeId, to: NodeId, kind: &'static str, bytes: usize) {
        self.0.on_send(SendRec {
            at: Instant::now(),
            from,
            to,
            kind,
            bytes,
        });
    }

    fn on_drop(&mut self, _: SimTime, from: NodeId, to: NodeId, _: &'static str, _: TraceOutcome) {
        self.0.on_drop(from, to);
    }
}

/// An actor wrapped so its handlers are timed.
pub struct TimedActor {
    inner: Box<dyn DynActor<WhisperMsg>>,
    node: NodeId,
    tracer: Arc<Tracer>,
}

impl Actor<WhisperMsg> for TimedActor {
    fn on_start(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, WhisperMsg>, from: NodeId, msg: WhisperMsg) {
        let start = Instant::now();
        self.tracer.on_receive(self.node, from, &msg, start);
        let (kind, corr) = (msg.kind(), msg.correlation());
        // The tracer's bookkeeping above is excluded from the handler span.
        let start = Instant::now();
        IN_HANDLER.set(Some(self.node));
        self.inner.on_message(ctx, from, msg);
        IN_HANDLER.set(None);
        self.tracer.record(Span {
            what: SpanKind::Handle,
            node: Some(self.node),
            cause: Some(from),
            kind,
            corr,
            start,
            end: Instant::now(),
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, WhisperMsg>, token: u64) {
        let start = Instant::now();
        self.inner.on_timer(ctx, token);
        self.tracer.record(Span {
            what: SpanKind::Timer,
            node: Some(self.node),
            cause: None,
            kind: "timer",
            corr: None,
            start,
            end: Instant::now(),
        });
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, WhisperMsg>) {
        self.inner.on_restart(ctx);
    }
}

/// A [`Spawner`] that wraps every actor in a [`TimedActor`] and installs
/// the send-stamping net hook on the substrate underneath.
pub struct TracingSpawner<'a, S> {
    inner: &'a mut S,
    tracer: Arc<Tracer>,
    next: usize,
}

impl<'a, S: Spawner<WhisperMsg>> TracingSpawner<'a, S> {
    /// Wraps `inner`, a substrate with no nodes yet.
    pub fn new(inner: &'a mut S, tracer: Arc<Tracer>) -> Self {
        inner.set_net_hook(Box::new(SendStamp(Arc::clone(&tracer))));
        TracingSpawner {
            inner,
            tracer,
            next: 0,
        }
    }
}

impl<S: Spawner<WhisperMsg>> Spawner<WhisperMsg> for TracingSpawner<'_, S> {
    fn add_boxed(&mut self, actor: Box<dyn DynActor<WhisperMsg>>) -> NodeId {
        let node = NodeId::from_index(self.next);
        self.next += 1;
        let id = self.inner.add_boxed(Box::new(TimedActor {
            inner: actor,
            node,
            tracer: Arc::clone(&self.tracer),
        }));
        assert_eq!(id, node, "node ids follow registration order");
        id
    }

    fn set_net_hook(&mut self, _hook: Box<dyn NetHook + Send>) {
        panic!("the traced run owns the net hook");
    }

    fn set_flight_hook(&mut self, node: NodeId, hook: Box<dyn FlightHook + Send>) {
        self.inner.set_flight_hook(node, hook);
    }
}

/// A backend wrapped so every `handle` is timed (worker replicas too).
pub struct TimedBackend {
    inner: Box<dyn ServiceBackend>,
    tracer: Arc<Tracer>,
}

impl TimedBackend {
    /// Wraps `inner`.
    pub fn boxed(inner: Box<dyn ServiceBackend>, tracer: &Arc<Tracer>) -> Box<dyn ServiceBackend> {
        Box::new(TimedBackend {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl ServiceBackend for TimedBackend {
    fn handle(
        &mut self,
        operation: &str,
        payload: &Element,
    ) -> Result<Element, whisper::BackendError> {
        let start = Instant::now();
        let out = self.inner.handle(operation, payload);
        self.tracer.record(Span {
            what: SpanKind::Backend,
            node: IN_HANDLER.get(),
            cause: None,
            kind: "backend",
            corr: None,
            start,
            end: Instant::now(),
        });
        out
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn replicate(&self) -> Option<Box<dyn ServiceBackend>> {
        let inner = self.inner.replicate()?;
        Some(TimedBackend::boxed(inner, &self.tracer))
    }
}
