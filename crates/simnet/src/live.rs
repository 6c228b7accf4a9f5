//! One real-time runtime for [`Actor`]s over a pluggable [`Transport`].
//!
//! [`LiveNet`] runs each actor on its own OS thread with wall-clock
//! timers — the same protocol code the deterministic
//! [`SimNet`](crate::SimNet) exercises in tests. Everything but the wire
//! is shared by its two runtimes: the builder, the node loop, the send
//! path with its fault gates and chaos decision, the fault controller,
//! metrics, the [`NetHook`] and the per-node flight stamps. A
//! [`Transport`] only decides how a message that passed the gates reaches
//! another node — an in-process channel
//! ([`threadnet`](crate::threadnet)) or a real TCP loopback socket
//! ([`tcpnet`](crate::tcpnet)) — and what a kill, restart or shutdown
//! does to the wire.
//!
//! Faults are first-class, as on the simulator: a node can be killed and
//! later restarted (its `on_restart` hook fires, its timers and queued
//! messages from the down period are gone), link pairs can be blocked to
//! emulate partitions, and gray failures degrade links or slow nodes.
//! Sends to a down node or across a blocked pair are dropped sender-side
//! and accounted exactly like the engine's [`Metrics`] do, so a
//! [`FaultPlan`] replayed by [`LiveNet::execute_plan`] produces comparable
//! counters on every substrate.

use crate::chaos::{ChaosDecision, ChaosState, DelayPump};
use crate::engine::{
    Actor, Context, FlightHook, NetHook, NodeId, Op, SelfInjector, TimerId, TraceOutcome,
};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::substrate::FaultDriver;
use crate::time::SimTime;
use crate::{DynActor, FaultAction, FaultPlan, Wire};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::Any;
use std::collections::{BinaryHeap, HashSet};
use std::io;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`LiveNet`] moves a message that passed the send path's fault
/// gates to another node: the one part of the live runtime that differs
/// between [`ChannelTransport`](crate::threadnet::ChannelTransport) and
/// [`TcpTransport`](crate::tcpnet::TcpTransport), its only two
/// implementations.
///
/// The send path accounts every send and takes its flight stamp before it
/// calls a transport, and delivers self-sends through the node's
/// in-process mailbox on both, so a transport never sees `from == to`.
pub trait Transport<M: Wire>: Sized + Send + Sync + 'static {
    /// The label [`Substrate::name`](crate::Substrate::name) reports.
    const NAME: &'static str;

    /// Sets up the wire for `n` nodes. Spawns no thread, so an error
    /// leaves nothing behind.
    fn open(n: usize) -> io::Result<Self>;

    /// Starts the transport's own threads once the network's shared core
    /// exists.
    fn start(&self, _core: &Arc<Core<M>>) {}

    /// Delivers `msg` cleanly. `clock` is the sender's Lamport stamp,
    /// `None` when the sender records no flight data.
    fn send(&self, core: &Core<M>, from: NodeId, to: NodeId, msg: M, clock: Option<u64>);

    /// Delivers `msg` damaged, so that the receiver counts a decode error.
    fn corrupt(&self, core: &Core<M>, from: NodeId, to: NodeId, msg: M, clock: Option<u64>);

    /// Tears down the wire of a killed node.
    fn kill(&self, _node: NodeId) {}

    /// Rebuilds the wire of a restarting node, before it is marked up.
    fn restart(&self, _core: &Core<M>, _node: NodeId) {}

    /// Releases the wire once every node thread has stopped.
    fn shutdown(&self) {}
}

/// Per-node flight recorders shared between sender threads (which stamp
/// outgoing messages with a Lamport clock) and node loops (which merge the
/// incoming stamp). Slots without a hook cost one `Option` check — the
/// always-on recorder is cheap and uninstalled nodes are free.
pub(crate) struct FlightTable {
    hooks: Vec<Option<Mutex<Box<dyn FlightHook + Send>>>>,
}

impl FlightTable {
    fn new(n: usize, installed: Vec<(NodeId, Box<dyn FlightHook + Send>)>) -> Self {
        let mut hooks: Vec<Option<Mutex<Box<dyn FlightHook + Send>>>> =
            (0..n).map(|_| None).collect();
        for (node, hook) in installed {
            if let Some(slot) = hooks.get_mut(node.index()) {
                *slot = Some(Mutex::new(hook));
            }
        }
        FlightTable { hooks }
    }

    /// `node`'s recorder, if installed. Callers check this before paying
    /// for the hook's arguments (a wall-clock read, the correlation
    /// lookup, the trailing clock varint on TCP frames), so an unhooked
    /// hot path costs exactly one slot load.
    fn get(&self, node: NodeId) -> Option<&Mutex<Box<dyn FlightHook + Send>>> {
        self.hooks.get(node.index()).and_then(Option::as_ref)
    }

    pub(crate) fn on_fault(&self, node: NodeId, now: SimTime, action: &str) {
        if let Some(h) = self.get(node) {
            h.lock().on_fault(now, action);
        }
    }
}

/// What a node's mailbox carries.
pub(crate) enum Ctl<M> {
    /// A delivered message: sender, payload, and the sender's Lamport stamp
    /// (0 when the sender records no flight data).
    Msg(NodeId, M, u64),
    /// Crash the node: it drops messages and timers until restarted.
    Crash,
    /// Bring a crashed node back; its `on_restart` hook runs.
    Restart,
    /// Tear the node down for good; the thread exits and returns the actor.
    Shutdown,
}

/// Which nodes are up, and which unordered link pairs are blocked.
///
/// Checked sender-side on every send, mirroring how the simulator's engine
/// drops at the send event — a message to a down node or across a blocked
/// pair never reaches the destination's queue.
pub(crate) struct FaultState {
    up: Vec<AtomicBool>,
    /// Unordered blocked pairs, stored as (min, max).
    blocked: Mutex<HashSet<(u32, u32)>>,
    /// Cheap emptiness gate so the unblocked hot path never takes the lock.
    blocked_count: AtomicUsize,
}

impl FaultState {
    fn new(n: usize) -> Self {
        FaultState {
            up: (0..n).map(|_| AtomicBool::new(true)).collect(),
            blocked: Mutex::new(HashSet::new()),
            blocked_count: AtomicUsize::new(0),
        }
    }

    pub(crate) fn is_up(&self, node: NodeId) -> bool {
        self.up
            .get(node.index())
            .is_some_and(|b| b.load(Ordering::Acquire))
    }

    fn set_up(&self, node: NodeId, up: bool) {
        if let Some(b) = self.up.get(node.index()) {
            b.store(up, Ordering::Release);
        }
    }

    fn pair(a: NodeId, b: NodeId) -> (u32, u32) {
        (a.0.min(b.0), a.0.max(b.0))
    }

    fn is_blocked(&self, a: NodeId, b: NodeId) -> bool {
        self.blocked_count.load(Ordering::Acquire) != 0
            && self.blocked.lock().contains(&Self::pair(a, b))
    }

    fn set_blocked(&self, a: NodeId, b: NodeId, blocked: bool) {
        let mut set = self.blocked.lock();
        let changed = if blocked {
            set.insert(Self::pair(a, b))
        } else {
            set.remove(&Self::pair(a, b))
        };
        if changed {
            self.blocked_count.store(set.len(), Ordering::Release);
        }
    }
}

/// The transport-independent state of one running [`LiveNet`]: mailboxes,
/// metrics, fault and chaos state, hooks, and the wall-clock origin.
/// Transports reach it through their [`Transport`] methods.
pub struct Core<M> {
    pub(crate) inboxes: Vec<Sender<Ctl<M>>>,
    pub(crate) metrics: Mutex<Metrics>,
    pub(crate) faults: FaultState,
    flights: FlightTable,
    hook: Option<Mutex<Box<dyn NetHook + Send>>>,
    chaos: ChaosState,
    pump: Arc<DelayPump>,
    pump_seq: AtomicU64,
    epoch: Instant,
}

impl<M: Wire> Core<M> {
    pub(crate) fn new(
        inboxes: Vec<Sender<Ctl<M>>>,
        hook: Option<Box<dyn NetHook + Send>>,
        flights: Vec<(NodeId, Box<dyn FlightHook + Send>)>,
        chaos_seed: u64,
    ) -> Self {
        let n = inboxes.len();
        Core {
            inboxes,
            metrics: Mutex::new(Metrics::new()),
            faults: FaultState::new(n),
            flights: FlightTable::new(n, flights),
            hook: hook.map(Mutex::new),
            chaos: ChaosState::new(chaos_seed),
            pump: DelayPump::start(),
            pump_seq: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Wall-clock time since the network started, on the axis the node
    /// loops report to actors.
    pub(crate) fn now(&self) -> SimTime {
        SimTime::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Counts one send and shows it to the net hook.
    fn account(&self, from: NodeId, to: NodeId, kind: &'static str, bytes: usize) {
        self.metrics.lock().on_send(kind, bytes);
        if let Some(hook) = &self.hook {
            hook.lock().on_send(self.now(), from, to, kind, bytes);
        }
    }

    /// Shows a dropped send to the net hook.
    pub(crate) fn notify_drop(
        &self,
        from: NodeId,
        to: NodeId,
        kind: &'static str,
        why: TraceOutcome,
    ) {
        if let Some(hook) = &self.hook {
            hook.lock().on_drop(self.now(), from, to, kind, why);
        }
    }

    /// Hands `msg` to `to`'s mailbox; the in-process delivery every
    /// self-send, every injection and the channel transport use.
    pub(crate) fn deliver(&self, from: NodeId, to: NodeId, msg: M, clock: u64) {
        if let Some(tx) = self.inboxes.get(to.index()) {
            if tx.send(Ctl::Msg(from, msg, clock)).is_ok() {
                self.metrics.lock().on_deliver();
            }
        }
    }

    /// Records a message from `from` that `to` could not decode: a
    /// counted, flight-recorded link fault, never a teardown.
    pub(crate) fn decode_error(&self, from: NodeId, to: NodeId) {
        self.metrics.lock().on_decode_error();
        self.flights
            .on_fault(to, self.now(), &format!("decode-error {from} {to}"));
    }

    fn control(&self, node: NodeId, ctl: Ctl<M>) {
        if let Some(tx) = self.inboxes.get(node.index()) {
            let _ = tx.send(ctl);
        }
    }
}

/// A network's core plus its transport: the send path and the fault
/// controller, shared by node threads, fault drivers and the handle.
pub(crate) struct Plane<M, T> {
    pub(crate) core: Arc<Core<M>>,
    pub(crate) transport: T,
}

impl<M: Wire, T: Transport<M>> Plane<M, T> {
    /// The one send path, in the engine's order: account the send and take
    /// the flight stamp, then the block gate, the down gate and the chaos
    /// decision. Self-sends take it too, so a worker completion racing a
    /// crash is dropped and a slowed node's completions are delayed.
    pub(crate) fn send(self: &Arc<Self>, from: NodeId, to: NodeId, msg: M) {
        let core = &*self.core;
        let (kind, size) = (msg.kind(), msg.wire_size());
        core.account(from, to, kind, size);
        // Stamp before the gates: the send happened even if the message
        // then dies, matching the engine. An unhooked sender skips the
        // stamp and the wall-clock read it needs.
        let clock = core.flights.get(from).map(|h| {
            h.lock()
                .on_send_msg(core.now(), to, kind, size, msg.correlation())
        });
        let dropped = if core.faults.is_blocked(from, to) {
            core.metrics.lock().on_drop_partition();
            TraceOutcome::Partitioned
        } else if !core.faults.is_up(to) {
            core.metrics.lock().on_drop_down();
            TraceOutcome::DestinationDown
        } else {
            // Gray degradation, decided sender-side like the engine's
            // chaos arm. The idle path costs one atomic load in `decide`.
            match core.chaos.decide(from.0, to.0) {
                ChaosDecision::Clean => return self.deliver(from, to, msg, clock),
                ChaosDecision::Deliver { delay, duplicate } => {
                    if duplicate {
                        let beat = delay + Duration::from_micros(200);
                        self.deliver_after(beat, from, to, msg.clone(), clock);
                    }
                    return self.deliver_after(delay, from, to, msg, clock);
                }
                ChaosDecision::Drop => {
                    core.metrics.lock().on_lost();
                    TraceOutcome::Lost
                }
                ChaosDecision::Corrupt => {
                    if from == to {
                        core.decode_error(from, to);
                    } else {
                        self.transport.corrupt(core, from, to, msg, clock);
                    }
                    TraceOutcome::Lost
                }
            }
        };
        core.notify_drop(from, to, kind, dropped);
    }

    fn deliver(&self, from: NodeId, to: NodeId, msg: M, clock: Option<u64>) {
        if from == to {
            self.core.deliver(from, to, msg, clock.unwrap_or(0));
        } else {
            self.transport.send(&self.core, from, to, msg, clock);
        }
    }

    /// Parks a delivery on the chaos pump; pending ones die with the
    /// network, like in-flight bytes on a torn-down socket.
    fn deliver_after(
        self: &Arc<Self>,
        delay: Duration,
        from: NodeId,
        to: NodeId,
        msg: M,
        clock: Option<u64>,
    ) {
        let plane = Arc::clone(self);
        let seq = self.core.pump_seq.fetch_add(1, Ordering::Relaxed);
        self.core.pump.after(
            delay,
            seq,
            Box::new(move || plane.deliver(from, to, msg, clock)),
        );
    }

    /// The one fault controller: applies `action` to the live network.
    pub(crate) fn apply(&self, action: FaultAction) {
        let core = &*self.core;
        // Flip the sender-side gates first, so in-flight sends start
        // dropping before the node even processes its crash marker.
        let (label, a, b) = match action {
            FaultAction::Crash(n) => {
                core.faults.set_up(n, false);
                ("kill", n, None)
            }
            FaultAction::Restart(n) => {
                // The wire comes back before the node is marked up.
                self.transport.restart(core, n);
                core.faults.set_up(n, true);
                ("restart", n, None)
            }
            FaultAction::Block(a, b) => {
                core.faults.set_blocked(a, b, true);
                ("block", a, Some(b))
            }
            FaultAction::Unblock(a, b) => {
                core.faults.set_blocked(a, b, false);
                ("unblock", a, Some(b))
            }
            FaultAction::Degrade(a, b, _) => {
                core.chaos.apply(action);
                ("degrade", a, Some(b))
            }
            FaultAction::Restore(a, b) => {
                core.chaos.apply(action);
                ("restore", a, Some(b))
            }
            FaultAction::Stall(n, _) => {
                core.chaos.apply(action);
                ("stall", n, None)
            }
            FaultAction::Slow(n, _) => {
                core.chaos.apply(action);
                ("slow", n, None)
            }
        };
        let event = match b {
            Some(b) => format!("{label} {a} {b}"),
            None => format!("{label} {a}"),
        };
        for node in std::iter::once(a).chain(b) {
            core.flights.on_fault(node, core.now(), &event);
        }
        match action {
            FaultAction::Crash(n) => {
                core.control(n, Ctl::Crash);
                self.transport.kill(n);
            }
            FaultAction::Restart(n) => core.control(n, Ctl::Restart),
            _ => {}
        }
    }
}

struct PendingTimer {
    deadline: Instant,
    id: TimerId,
    token: u64,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.id == other.id
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // invert: BinaryHeap is a max-heap, we want the earliest deadline
        other.deadline.cmp(&self.deadline)
    }
}

enum Hook<M> {
    Start,
    Restart,
    Message(NodeId, M),
    Timer(u64),
}

/// One node's thread-local state: its RNG, its timers, and the injector
/// its off-loop work uses to re-enter the mailbox.
struct NodeLoop<M, T> {
    id: NodeId,
    plane: Arc<Plane<M, T>>,
    injector: SelfInjector<M>,
    rng: SmallRng,
    next_timer: u64,
    timers: BinaryHeap<PendingTimer>,
    cancelled: HashSet<TimerId>,
}

impl<M: Wire, T: Transport<M>> NodeLoop<M, T> {
    fn new(id: NodeId, plane: Arc<Plane<M, T>>) -> Self {
        // Off-loop work (worker pools) re-enters the node as a self-send,
        // which takes the full send path like any other message.
        let injector = SelfInjector::new(id, {
            let plane = Arc::clone(&plane);
            Arc::new(move |msg| plane.send(id, id, msg))
        });
        NodeLoop {
            id,
            plane,
            injector,
            rng: SmallRng::seed_from_u64(0x5157_0000 + id.index() as u64),
            next_timer: 0,
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
        }
    }

    fn run_hook(&mut self, actor: &mut dyn Actor<M>, hook: Hook<M>) {
        let now = self.plane.core.now();
        let mut ctx = Context::detached(
            now,
            self.id,
            &mut self.next_timer,
            &mut self.rng,
            Some(&self.injector),
        );
        match hook {
            Hook::Start => actor.on_start(&mut ctx),
            Hook::Restart => actor.on_restart(&mut ctx),
            Hook::Message(from, m) => actor.on_message(&mut ctx, from, m),
            Hook::Timer(token) => actor.on_timer(&mut ctx, token),
        }
        let ops = ctx.take_ops();
        let now_i = Instant::now();
        for op in ops {
            match op {
                Op::Send { to, msg } => self.plane.send(self.id, to, msg),
                Op::SetTimer { id, delay, token } => self.timers.push(PendingTimer {
                    deadline: now_i + Duration::from_micros(delay.as_micros()),
                    id,
                    token,
                }),
                Op::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    fn run(mut self, actor: &mut dyn Actor<M>, rx: Receiver<Ctl<M>>) {
        self.run_hook(actor, Hook::Start);
        // Crash-stop state: while down the node drops messages and timers,
        // the same observable behavior as the engine's crashed nodes.
        let mut up = true;
        loop {
            // Fire all due timers (none are pending while down: a crash
            // clears the heap and no hooks run to arm new ones).
            while self
                .timers
                .peek()
                .is_some_and(|t| t.deadline <= Instant::now())
            {
                let due = self.timers.pop().expect("peeked");
                if !self.cancelled.remove(&due.id) {
                    self.run_hook(actor, Hook::Timer(due.token));
                }
            }
            let timeout = self
                .timers
                .peek()
                .map(|t| t.deadline.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_millis(50));
            match rx.recv_timeout(timeout) {
                Ok(Ctl::Msg(from, m, clock)) if up => {
                    let core = &self.plane.core;
                    if let Some(h) = core.flights.get(self.id) {
                        h.lock().on_recv_msg(
                            core.now(),
                            from,
                            m.kind(),
                            m.wire_size(),
                            m.correlation(),
                            clock,
                        );
                    }
                    self.run_hook(actor, Hook::Message(from, m));
                }
                // The message raced the crash; a down node hears nothing.
                Ok(Ctl::Msg(..)) => {}
                Ok(Ctl::Crash) => {
                    up = false;
                    self.timers.clear();
                    self.cancelled.clear();
                }
                Ok(Ctl::Restart) if !up => {
                    up = true;
                    self.run_hook(actor, Hook::Restart);
                }
                Ok(Ctl::Restart) | Err(RecvTimeoutError::Timeout) => {}
                Ok(Ctl::Shutdown) | Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }
}

/// Collects actors before spawning threads.
///
/// Node ids are assigned in registration order, matching
/// [`SimNet::add_node`](crate::SimNet::add_node), so the same wiring code
/// can target any runtime.
pub struct LiveNetBuilder<M: Wire, T> {
    actors: Vec<Box<dyn DynActor<M>>>,
    hook: Option<Box<dyn NetHook + Send>>,
    flights: Vec<(NodeId, Box<dyn FlightHook + Send>)>,
    chaos_seed: u64,
    transport: PhantomData<fn() -> T>,
}

impl<M: Wire, T: Transport<M>> Default for LiveNetBuilder<M, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Wire, T: Transport<M>> LiveNetBuilder<M, T> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        LiveNetBuilder {
            actors: Vec::new(),
            hook: None,
            flights: Vec::new(),
            chaos_seed: 0,
            transport: PhantomData,
        }
    }

    /// Seeds the gray-failure RNG, making chaos soaks reproducible: the
    /// same seed and plan produce the same per-message loss/dup/corrupt
    /// decisions (thread and kernel scheduling still vary, as on any live
    /// substrate).
    pub fn set_chaos_seed(&mut self, seed: u64) {
        self.chaos_seed = seed;
    }

    /// Registers an actor and returns its future node id.
    pub fn add_node(&mut self, actor: impl Actor<M> + Any) -> NodeId {
        self.add_boxed(Box::new(actor))
    }

    /// Registers an already-boxed actor (the deployment-layer path; see
    /// [`Spawner`](crate::Spawner)). [`LiveNet::shutdown`] returns the
    /// concrete type inside the box, so downcasts keep working.
    pub fn add_boxed(&mut self, actor: Box<dyn DynActor<M>>) -> NodeId {
        self.actors.push(actor);
        NodeId::from_index(self.actors.len() - 1)
    }

    /// Installs a network hook observing every send, injection and fault
    /// drop, with the same callbacks the in-process engine uses. The hook
    /// is shared across sender threads behind a mutex; keep it cheap.
    pub fn set_net_hook(&mut self, hook: Box<dyn NetHook + Send>) {
        self.hook = Some(hook);
    }

    /// Installs `node`'s flight recorder (see [`FlightHook`]): senders ask
    /// it to stamp every outgoing message with a Lamport clock (on TCP a
    /// trailing varint after the payload, so frames without one decode
    /// with clock 0), and the node's loop hands it every delivery.
    pub fn set_flight_hook(&mut self, node: NodeId, hook: Box<dyn FlightHook + Send>) {
        self.flights.push((node, hook));
    }

    /// Opens the transport, spawns every registered actor on its own
    /// thread, and returns the running network. Each actor's `on_start`
    /// runs before its first message is processed.
    ///
    /// # Errors
    ///
    /// Any I/O error while opening the transport (the TCP socket mesh);
    /// no thread has been spawned when an error is returned.
    pub fn start(self) -> io::Result<LiveNet<M, T>> {
        let transport = T::open(self.actors.len())?;
        let (inboxes, receivers): (Vec<_>, Vec<_>) =
            self.actors.iter().map(|_| unbounded()).unzip();
        let core = Arc::new(Core::new(inboxes, self.hook, self.flights, self.chaos_seed));
        transport.start(&core);
        let plane = Arc::new(Plane { core, transport });
        let handles = self
            .actors
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(i, (mut actor, rx))| {
                let node = NodeLoop::new(NodeId::from_index(i), Arc::clone(&plane));
                std::thread::spawn(move || {
                    node.run(&mut *actor, rx);
                    actor.into_any()
                })
            })
            .collect();
        Ok(LiveNet {
            plane,
            handles,
            drivers: Vec::new(),
        })
    }
}

/// A running real-time network of actors over transport `T`; see the
/// [`ThreadNet`](crate::threadnet::ThreadNet) and
/// [`TcpNet`](crate::tcpnet::TcpNet) aliases for examples.
pub struct LiveNet<M: Wire, T: Transport<M>> {
    pub(crate) plane: Arc<Plane<M, T>>,
    handles: Vec<JoinHandle<Box<dyn Any + Send>>>,
    drivers: Vec<FaultDriver>,
}

impl<M: Wire, T: Transport<M>> LiveNet<M, T> {
    /// Sends `msg` to `to` as if it came from `from`, straight into the
    /// mailbox: a driver convenience that is accounted and shown to the
    /// net hook, but crosses no gate and no wire.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: M) {
        let core = &self.plane.core;
        core.account(from, to, msg.kind(), msg.wire_size());
        core.deliver(from, to, msg, 0);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.plane.core.inboxes.len()
    }

    /// Wall-clock time since the network started, on the same axis the
    /// node loops report to actors.
    pub fn now(&self) -> SimTime {
        self.plane.core.now()
    }

    /// A detached snapshot of the transport metrics so far (a plain-data
    /// copy, not a clone of the live registry).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.plane.core.metrics.lock().snapshot()
    }

    /// Kills one node, as a crash: sends to it start dropping immediately,
    /// its pending timers die, and it stays deaf until
    /// [`LiveNet::restart_node`]. On TCP both halves of every socket
    /// touching it are shut down, so a peer writer blocked on its dead
    /// receive buffer errors out instead of hanging.
    pub fn kill_node(&self, node: NodeId) {
        self.plane.apply(FaultAction::Crash(node));
    }

    /// Restarts a killed node: on TCP fresh socket pairs are dialed to
    /// every live peer first, then sends resume reaching it and its
    /// `on_restart` hook runs.
    pub fn restart_node(&self, node: NodeId) {
        self.plane.apply(FaultAction::Restart(node));
    }

    /// Blocks all traffic between `a` and `b` (both directions), as a
    /// partition: such sends are dropped sender-side and counted as
    /// partitioned.
    pub fn block_link(&self, a: NodeId, b: NodeId) {
        self.plane.apply(FaultAction::Block(a, b));
    }

    /// Unblocks traffic between `a` and `b`.
    pub fn unblock_link(&self, a: NodeId, b: NodeId) {
        self.plane.apply(FaultAction::Unblock(a, b));
    }

    /// Applies any [`FaultAction`] — including the gray kinds
    /// (degrade/restore/stall/slow) — immediately.
    pub fn apply_action(&self, action: FaultAction) {
        self.plane.apply(action);
    }

    /// Replays `plan` against the live network in real time: a fault-driver
    /// thread sleeps until each action's wall-clock offset (measured from
    /// network start) and applies it. Multiple plans may be in flight; all
    /// drivers are stopped and joined by [`LiveNet::shutdown`].
    pub fn execute_plan(&mut self, plan: &FaultPlan) {
        let plane = Arc::clone(&self.plane);
        self.drivers.push(FaultDriver::spawn(
            plan,
            self.plane.core.epoch,
            Box::new(move |action| plane.apply(action)),
        ));
    }

    /// Stops all node threads, draining queued messages first (the stop
    /// marker queues behind them), releases the transport, and returns
    /// each actor in node order for inspection via `Box<dyn Any>`. Fault
    /// drivers are stopped first, so no action fires into a half-torn-down
    /// network.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any node or transport thread.
    pub fn shutdown(self) -> Vec<Box<dyn Any + Send>> {
        for d in self.drivers {
            d.stop();
        }
        let core = &self.plane.core;
        core.pump.shutdown();
        for tx in &core.inboxes {
            let _ = tx.send(Ctl::Shutdown);
        }
        let actors = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        self.plane.transport.shutdown();
        actors
    }
}

/// Test bodies shared by both transports: each runs once per transport
/// from the `threadnet` and `tcpnet` test modules.
#[cfg(test)]
pub(crate) mod suite {
    use super::*;
    use crate::{DegradeSpec, SimDuration};
    use std::sync::atomic::AtomicU32;
    use whisper_wire::{Decode, Encode, Reader, WireError};

    #[derive(Clone, Debug, PartialEq)]
    pub(crate) enum M {
        Ping(u32),
    }
    impl Wire for M {
        fn wire_size(&self) -> usize {
            self.encoded_len()
        }
        fn kind(&self) -> &'static str {
            "ping"
        }
    }
    impl Encode for M {
        fn encode_into(&self, out: &mut Vec<u8>) {
            let M::Ping(n) = self;
            n.encode_into(out);
        }
    }
    impl Decode for M {
        fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
            Ok(M::Ping(u32::decode_from(r)?))
        }
    }

    /// Counts every message and answers `Ping(n)` with `Ping(n - 1)`.
    pub(crate) struct Echo {
        pub(crate) bounces: Arc<AtomicU32>,
    }
    impl Actor<M> for Echo {
        fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: M) {
            let M::Ping(n) = msg;
            self.bounces.fetch_add(1, Ordering::SeqCst);
            if n > 0 {
                ctx.send(from, M::Ping(n - 1));
            }
        }
    }

    pub(crate) fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn count(hits: &Arc<AtomicU32>) -> u32 {
        hits.load(Ordering::SeqCst)
    }

    /// Two echo nodes, with their hit counters.
    fn pair<T: Transport<M>>(
        seed: u64,
    ) -> (
        LiveNet<M, T>,
        NodeId,
        NodeId,
        Arc<AtomicU32>,
        Arc<AtomicU32>,
    ) {
        let (a_hits, b_hits) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
        let mut b = LiveNetBuilder::<M, T>::new();
        b.set_chaos_seed(seed);
        let na = b.add_node(Echo {
            bounces: a_hits.clone(),
        });
        let nb = b.add_node(Echo {
            bounces: b_hits.clone(),
        });
        (b.start().unwrap(), na, nb, a_hits, b_hits)
    }

    fn degrade(a: NodeId, b: NodeId, spec: DegradeSpec) -> FaultAction {
        FaultAction::Degrade(a, b, spec)
    }

    pub(crate) fn ping_pong<T: Transport<M>>() {
        let (net, na, nb, a, b) = pair::<T>(0);
        net.inject(na, nb, M::Ping(9));
        wait_until("ping-pong did not complete", || count(&a) + count(&b) >= 10);
        let m = net.metrics_snapshot();
        net.shutdown();
        assert_eq!(count(&a) + count(&b), 10);
        assert_eq!(m.sent_of_kind("ping"), 10);
        // Byte accounting is the real encoded size: 1 varint byte per
        // ping here, not a hand-estimated constant.
        assert_eq!(m.bytes_sent(), 10);
    }

    pub(crate) fn relay_chain<T: Transport<M>>() {
        struct Relay {
            next: NodeId,
            seen: Arc<AtomicU32>,
        }
        impl Actor<M> for Relay {
            fn on_message(&mut self, ctx: &mut Context<'_, M>, _: NodeId, msg: M) {
                self.seen.fetch_add(1, Ordering::SeqCst);
                let M::Ping(n) = msg;
                if n > 0 {
                    ctx.send(self.next, M::Ping(n - 1));
                }
            }
        }
        let seen = Arc::new(AtomicU32::new(0));
        let mut b = LiveNetBuilder::<M, T>::new();
        for next in [1, 2, 0] {
            b.add_node(Relay {
                next: NodeId::from_index(next),
                seen: seen.clone(),
            });
        }
        let net = b.start().unwrap();
        let n0 = NodeId::from_index(0);
        net.inject(n0, n0, M::Ping(8));
        wait_until("relay chain did not complete", || count(&seen) >= 9);
        net.shutdown();
        assert_eq!(count(&seen), 9);
    }

    pub(crate) fn timers_fire<T: Transport<M>>() {
        struct Beeper {
            beeps: Arc<AtomicU32>,
        }
        impl Actor<M> for Beeper {
            fn on_start(&mut self, ctx: &mut Context<'_, M>) {
                ctx.set_timer(SimDuration::from_millis(5), 7);
                ctx.set_timer(SimDuration::from_millis(10), 7);
            }
            fn on_message(&mut self, _: &mut Context<'_, M>, _: NodeId, _: M) {}
            fn on_timer(&mut self, _: &mut Context<'_, M>, token: u64) {
                assert_eq!(token, 7);
                self.beeps.fetch_add(1, Ordering::SeqCst);
            }
        }
        let beeps = Arc::new(AtomicU32::new(0));
        let mut b = LiveNetBuilder::<M, T>::new();
        b.add_node(Beeper {
            beeps: beeps.clone(),
        });
        let net = b.start().unwrap();
        wait_until("timers did not fire", || count(&beeps) >= 2);
        net.shutdown();
        assert_eq!(count(&beeps), 2);
    }

    pub(crate) fn shutdown_returns_actors<T: Transport<M>>() {
        let mut b = LiveNetBuilder::<M, T>::new();
        for _ in 0..3 {
            b.add_node(Echo {
                bounces: Arc::new(AtomicU32::new(0)),
            });
        }
        let net = b.start().unwrap();
        assert_eq!(net.node_count(), 3);
        let actors = net.shutdown();
        assert_eq!(actors.len(), 3);
        assert!(actors.iter().all(|a| a.downcast_ref::<Echo>().is_some()));
    }

    pub(crate) fn chaos_loss_then_restore<T: Transport<M>>() {
        let (net, na, nb, _, b) = pair::<T>(42);
        let lossy = DegradeSpec {
            loss_pct: 100,
            ..DegradeSpec::default()
        };
        net.apply_action(degrade(na, nb, lossy));
        // Injection bypasses the gates; na's *reply* crosses the degraded
        // link and dies there.
        net.inject(nb, na, M::Ping(3));
        wait_until("chaos loss never counted", || {
            net.metrics_snapshot().lost >= 1
        });
        assert_eq!(count(&b), 0);
        net.apply_action(FaultAction::Restore(na, nb));
        net.inject(nb, na, M::Ping(3));
        wait_until("restored link never delivered", || count(&b) >= 1);
        net.shutdown();
    }

    pub(crate) fn chaos_dup<T: Transport<M>>() {
        let (net, na, nb, _, b) = pair::<T>(42);
        let dup = DegradeSpec {
            dup_pct: 100,
            ..DegradeSpec::default()
        };
        net.apply_action(degrade(na, nb, dup));
        // na's reply Ping(0) is duplicated: nb hears it twice.
        net.inject(nb, na, M::Ping(1));
        wait_until("duplicate never delivered", || count(&b) >= 2);
        net.shutdown();
    }

    pub(crate) fn chaos_corrupt<T: Transport<M>>() {
        let (net, na, nb, _, b) = pair::<T>(42);
        let corrupt = DegradeSpec {
            corrupt_pct: 100,
            ..DegradeSpec::default()
        };
        net.apply_action(degrade(na, nb, corrupt));
        // na's reply is damaged on the degraded link and fails to decode
        // at nb — counted, not fatal.
        net.inject(nb, na, M::Ping(1));
        wait_until("decode error never counted", || {
            net.metrics_snapshot().decode_errors >= 1
        });
        assert_eq!(count(&b), 0);
        // The link keeps working once the degradation lifts (on TCP the
        // length prefix resynchronized the stream past the bad payload).
        net.apply_action(FaultAction::Restore(na, nb));
        net.inject(nb, na, M::Ping(1));
        wait_until("link did not survive the corrupted message", || {
            count(&b) >= 1
        });
        net.shutdown();
    }

    pub(crate) fn kill_and_restart<T: Transport<M>>() {
        struct Marker {
            seen: Arc<AtomicU32>,
            restarts: Arc<AtomicU32>,
        }
        impl Actor<M> for Marker {
            fn on_message(&mut self, _: &mut Context<'_, M>, _: NodeId, _: M) {
                self.seen.fetch_add(1, Ordering::SeqCst);
            }
            fn on_restart(&mut self, _: &mut Context<'_, M>) {
                self.restarts.fetch_add(1, Ordering::SeqCst);
            }
        }
        let seen = Arc::new(AtomicU32::new(0));
        let restarts = Arc::new(AtomicU32::new(0));
        let mut b = LiveNetBuilder::<M, T>::new();
        let src = b.add_node(Echo {
            bounces: Arc::new(AtomicU32::new(0)),
        });
        let dst = b.add_node(Marker {
            seen: seen.clone(),
            restarts: restarts.clone(),
        });
        let net = b.start().unwrap();
        // src's reply to Ping(1) crosses the transport to dst.
        net.inject(dst, src, M::Ping(1));
        wait_until("first ping not seen", || count(&seen) >= 1);

        net.kill_node(dst);
        // Give the crash marker time to land, then send into the void:
        // straight into the mailbox, and over the transport, where the
        // reply is dropped sender-side and counted.
        std::thread::sleep(Duration::from_millis(20));
        net.inject(src, dst, M::Ping(0));
        net.inject(dst, src, M::Ping(1));
        wait_until("send to the down node not counted", || {
            net.metrics_snapshot().to_down >= 1
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count(&seen), 1, "down node heard a message");

        net.restart_node(dst);
        wait_until("on_restart did not fire", || count(&restarts) >= 1);
        net.inject(dst, src, M::Ping(1));
        wait_until("revived node deaf", || count(&seen) >= 2);
        net.shutdown();
    }

    pub(crate) fn blocked_pair<T: Transport<M>>() {
        let (net, na, nb, a, _) = pair::<T>(0);
        net.block_link(na, nb);
        // The injected message reaches nb (inject bypasses the gates), but
        // nb's reply crosses the blocked pair and is dropped.
        net.inject(na, nb, M::Ping(5));
        wait_until("no partitioned drop recorded", || {
            net.metrics_snapshot().partitioned >= 1
        });
        assert_eq!(count(&a), 0);
        net.unblock_link(na, nb);
        net.inject(nb, na, M::Ping(0));
        wait_until("unblocked pair still dropping", || count(&a) >= 1);
        net.shutdown();
    }

    pub(crate) fn inject_reaches_net_hook<T: Transport<M>>() {
        struct Sends(Arc<AtomicU32>);
        impl NetHook for Sends {
            fn on_send(&mut self, _: SimTime, _: NodeId, _: NodeId, _: &'static str, _: usize) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let sends = Arc::new(AtomicU32::new(0));
        let hits = Arc::new(AtomicU32::new(0));
        let mut b = LiveNetBuilder::<M, T>::new();
        b.set_net_hook(Box::new(Sends(sends.clone())));
        let node = b.add_node(Echo {
            bounces: hits.clone(),
        });
        let net = b.start().unwrap();
        net.inject(node, node, M::Ping(0));
        wait_until("injected ping not delivered", || count(&hits) >= 1);
        net.shutdown();
        assert_eq!(count(&sends), 1, "the hook must see the injection");
    }

    /// When a [`Worker`] heard its first message.
    type Heard = Arc<Mutex<Option<Instant>>>;

    /// An actor that hands its [`SelfInjector`] out, standing in for a
    /// worker pool, and stamps when its first message arrives.
    struct Worker {
        injector: Arc<Mutex<Option<SelfInjector<M>>>>,
        heard: Heard,
    }
    impl Actor<M> for Worker {
        fn on_start(&mut self, ctx: &mut Context<'_, M>) {
            *self.injector.lock() = ctx.self_injector();
        }
        fn on_message(&mut self, _: &mut Context<'_, M>, _: NodeId, _: M) {
            self.heard.lock().get_or_insert_with(Instant::now);
        }
    }

    fn worker<T: Transport<M>>() -> (LiveNet<M, T>, SelfInjector<M>, Heard) {
        let injector = Arc::new(Mutex::new(None));
        let heard = Arc::new(Mutex::new(None));
        let mut b = LiveNetBuilder::<M, T>::new();
        b.add_node(Worker {
            injector: injector.clone(),
            heard: heard.clone(),
        });
        let net = b.start().unwrap();
        wait_until("on_start never ran", || injector.lock().is_some());
        let injector = injector.lock().take().expect("set");
        (net, injector, heard)
    }

    pub(crate) fn self_send_from_killed_node_counts_to_down<T: Transport<M>>() {
        let (net, injector, heard) = worker::<T>();
        net.kill_node(injector.node());
        injector.inject(M::Ping(0));
        let m = net.metrics_snapshot();
        net.shutdown();
        assert_eq!(m.to_down, 1, "a completion racing a crash is dropped");
        assert!(heard.lock().is_none());
    }

    pub(crate) fn self_send_from_slowed_node_is_delayed<T: Transport<M>>() {
        let (net, injector, heard) = worker::<T>();
        // Factor 51.00x holds each message of the node for 50 ms.
        net.apply_action(FaultAction::Slow(injector.node(), 5_100));
        let sent = Instant::now();
        injector.inject(M::Ping(0));
        wait_until("slowed self-send never arrived", || heard.lock().is_some());
        let waited = heard.lock().expect("heard").duration_since(sent);
        net.shutdown();
        assert!(
            waited >= Duration::from_millis(50),
            "self-send skipped the slowdown: {waited:?}"
        );
    }
}
