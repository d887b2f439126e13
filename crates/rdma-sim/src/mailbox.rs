//! Two-sided messaging (SEND/RECV) between simulation participants.
//!
//! Compute nodes use mailboxes for everything the paper says needs the
//! remote CPU: software cache-coherence traffic (§4 Challenge 4, Approach
//! #2), 2PC coordination between compute nodes (§4 Challenge 5), and
//! function-offload RPCs to memory nodes (§3, §6).
//!
//! A mailbox is only ever polled, like a real receiver polls its
//! completion queue: [`crate::Endpoint::try_recv`] is the one way to take
//! a message off it, and no thread blocks on one.
//!
//! Virtual-time semantics: a message carries its *delivery time* —
//! `sender_clock + send_latency`. On receive, the receiver's clock is
//! advanced to at least that instant, so causality is respected across
//! per-thread clocks.

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use parking_lot::RwLock;

use crate::error::{RdmaError, RdmaResult};
use crate::hash::U64Map;

/// Address of a mailbox. Participants pick their own ids; the convention in
/// this workspace is `compute node id` for compute nodes and
/// `0x1000_0000 | node` for memory-node RPC queues.
pub type MailboxId = u64;

/// A delivered message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender's mailbox id (0 if the sender has none).
    pub from: MailboxId,
    /// Opaque payload; layers above define their own encodings.
    pub payload: Vec<u8>,
    /// Virtual instant at which the message reaches the receiver.
    pub deliver_at_ns: u64,
}

/// The cluster-wide mailbox registry. One per [`crate::Fabric`].
#[derive(Default)]
pub struct MailboxRegistry {
    inner: RwLock<U64Map<Sender<Message>>>,
}

impl MailboxRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create and register a mailbox, returning its receiving half.
    ///
    /// Re-registering an id replaces the previous mailbox (its receiver
    /// starts seeing a disconnected channel), which models a node restart.
    pub fn register(&self, id: MailboxId) -> Mailbox {
        let (tx, rx) = unbounded();
        self.inner.write().insert(id, tx);
        Mailbox { id, rx }
    }

    /// Remove a mailbox (node shutdown): later posts to `id` fail with
    /// [`RdmaError::NoReceiver`], and its receiver reads what was queued,
    /// then a disconnected channel.
    pub fn unregister(&self, id: MailboxId) {
        self.inner.write().remove(&id);
    }

    /// Deliver `msg` to mailbox `to`.
    pub fn post(&self, to: MailboxId, msg: Message) -> RdmaResult<()> {
        let guard = self.inner.read();
        let tx = guard.get(&to).ok_or(RdmaError::NoReceiver(to))?;
        tx.send(msg).map_err(|_| RdmaError::NoReceiver(to))
    }
}

/// The receiving half of a registered mailbox, polled through
/// [`crate::Endpoint::try_recv`].
pub struct Mailbox {
    id: MailboxId,
    rx: Receiver<Message>,
}

impl Mailbox {
    /// This mailbox's address.
    pub fn id(&self) -> MailboxId {
        self.id
    }

    /// Take the oldest queued message, if any; the endpoint that polls
    /// charges the RECV.
    pub(crate) fn try_recv(&self) -> RdmaResult<Message> {
        match self.rx.try_recv() {
            Ok(m) => Ok(m),
            Err(TryRecvError::Empty) => Err(RdmaError::WouldBlock),
            Err(TryRecvError::Disconnected) => Err(RdmaError::NoReceiver(self.id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_receive() {
        let reg = MailboxRegistry::new();
        let mb = reg.register(7);
        reg.post(
            7,
            Message {
                from: 1,
                payload: vec![1, 2, 3],
                deliver_at_ns: 500,
            },
        )
        .unwrap();
        let m = mb.try_recv().unwrap();
        assert_eq!(m.from, 1);
        assert_eq!(m.payload, vec![1, 2, 3]);
        assert_eq!(m.deliver_at_ns, 500);
        assert_eq!(mb.try_recv().unwrap_err(), RdmaError::WouldBlock);
    }

    #[test]
    fn post_to_missing_mailbox_fails() {
        let reg = MailboxRegistry::new();
        let err = reg
            .post(
                99,
                Message {
                    from: 0,
                    payload: vec![],
                    deliver_at_ns: 0,
                },
            )
            .unwrap_err();
        assert_eq!(err, RdmaError::NoReceiver(99));
    }

    #[test]
    fn reregister_replaces_mailbox() {
        let reg = MailboxRegistry::new();
        let old = reg.register(3);
        let new = reg.register(3);
        reg.post(
            3,
            Message {
                from: 0,
                payload: vec![9],
                deliver_at_ns: 0,
            },
        )
        .unwrap();
        assert!(new.try_recv().is_ok());
        // Old mailbox's sender was dropped by the replacement.
        assert!(matches!(
            old.try_recv(),
            Err(RdmaError::WouldBlock) | Err(RdmaError::NoReceiver(_))
        ));
    }

    #[test]
    fn drain_collects_in_order() {
        let reg = MailboxRegistry::new();
        let mb = reg.register(1);
        for i in 0..5u8 {
            reg.post(
                1,
                Message {
                    from: 0,
                    payload: vec![i],
                    deliver_at_ns: i as u64,
                },
            )
            .unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(mb.try_recv().unwrap().payload, vec![i]);
        }
        assert_eq!(mb.try_recv().unwrap_err(), RdmaError::WouldBlock);
    }
}
