//! The live runtime over in-process channels.
//!
//! [`ThreadNet`] is a [`LiveNet`] whose [`ChannelTransport`] hands every
//! message straight to the destination's unbounded crossbeam mailbox: no
//! encoding, no socket. It gives wall-clock numbers for Criterion benches
//! from exactly the protocol code that the deterministic
//! [`SimNet`](crate::SimNet) exercises in tests, and needs no
//! `whisper-wire` codec for the message type.

use crate::live::{Core, LiveNet, LiveNetBuilder, Transport};
use crate::{NodeId, Wire};
use std::io;

/// The channel transport: a delivery is one mailbox send, and a corrupted
/// message — there is no byte stage to damage — is a counted decode error
/// at the receiver, the same observable as tcpnet's real bit-flip.
#[derive(Debug)]
pub struct ChannelTransport;

impl<M: Wire> Transport<M> for ChannelTransport {
    const NAME: &'static str = "threadnet";

    fn open(_n: usize) -> io::Result<Self> {
        Ok(ChannelTransport)
    }

    fn send(&self, core: &Core<M>, from: NodeId, to: NodeId, msg: M, clock: Option<u64>) {
        core.deliver(from, to, msg, clock.unwrap_or(0));
    }

    fn corrupt(&self, core: &Core<M>, from: NodeId, to: NodeId, _msg: M, _clock: Option<u64>) {
        core.decode_error(from, to);
    }
}

/// Collects actors before spawning their threads; see [`LiveNetBuilder`].
pub type ThreadNetBuilder<M> = LiveNetBuilder<M, ChannelTransport>;

/// A running real-time network of actors connected by channels.
///
/// # Examples
///
/// ```
/// use whisper_simnet::threadnet::ThreadNetBuilder;
/// use whisper_simnet::{Actor, Context, NodeId, Wire};
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// #[derive(Clone, Debug)]
/// struct Hit;
/// impl Wire for Hit { fn wire_size(&self) -> usize { 8 } }
///
/// struct Counter(Arc<AtomicU32>);
/// impl Actor<Hit> for Counter {
///     fn on_message(&mut self, _: &mut Context<'_, Hit>, _: NodeId, _: Hit) {
///         self.0.fetch_add(1, Ordering::SeqCst);
///     }
/// }
///
/// let hits = Arc::new(AtomicU32::new(0));
/// let mut b = ThreadNetBuilder::new();
/// let counter = b.add_node(Counter(hits.clone()));
/// let net = b.start().expect("channels never fail to open");
/// net.inject(counter, counter, Hit);
/// let actors = net.shutdown();
/// assert_eq!(hits.load(Ordering::SeqCst), 1);
/// assert_eq!(actors.len(), 1);
/// ```
pub type ThreadNet<M> = LiveNet<M, ChannelTransport>;

#[cfg(test)]
mod tests {
    use super::ChannelTransport as T;
    use crate::live::suite;

    #[test]
    fn ping_pong_over_threads() {
        suite::ping_pong::<T>();
    }

    #[test]
    fn three_node_relay_chain() {
        suite::relay_chain::<T>();
    }

    #[test]
    fn timers_fire_in_real_time() {
        suite::timers_fire::<T>();
    }

    #[test]
    fn shutdown_returns_actors_in_order() {
        suite::shutdown_returns_actors::<T>();
    }

    #[test]
    fn chaos_degrade_drops_then_restore_heals() {
        suite::chaos_loss_then_restore::<T>();
    }

    #[test]
    fn chaos_dup_delivers_twice_and_corrupt_counts_decode_error() {
        suite::chaos_dup::<T>();
        suite::chaos_corrupt::<T>();
    }

    #[test]
    fn kill_drops_messages_and_restart_revives() {
        suite::kill_and_restart::<T>();
    }

    #[test]
    fn blocked_pair_drops_sender_side() {
        suite::blocked_pair::<T>();
    }

    #[test]
    fn inject_reaches_net_hook() {
        suite::inject_reaches_net_hook::<T>();
    }

    #[test]
    fn self_send_from_killed_node_counts_to_down() {
        suite::self_send_from_killed_node_counts_to_down::<T>();
    }

    #[test]
    fn self_send_from_slowed_node_is_delayed() {
        suite::self_send_from_slowed_node_is_delayed::<T>();
    }
}
