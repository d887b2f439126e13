//! Vendored stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel` is provided — an unbounded MPMC channel
//! (std's mpsc receiver is neither `Sync` nor cloneable, so a
//! `Mutex<VecDeque>` + `Condvar` queue stands in). See the
//! `parking_lot` shim for why external deps are vendored.
//!
//! A send is free of system calls when no receiver is blocked in
//! [`channel::Receiver::recv`]: the channel counts the threads blocked
//! there and a send that finds none wakes nobody. A mailbox that is only
//! polled with `try_recv` never pays for a wake.

pub mod channel {
    //! Unbounded multi-producer multi-consumer FIFO channel.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        /// Receivers blocked in [`Receiver::recv`]; changed only under
        /// `queue`'s mutex.
        waiting: AtomicUsize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            waiting: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone;
    /// carries the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty
    /// and every sender is gone.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Empty and all senders dropped.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "channel empty"),
                TryRecvError::Disconnected => write!(f, "channel disconnected"),
            }
        }
    }

    impl<T> Shared<T> {
        /// Wake blocked receivers, if any: one, or all. Called after the
        /// state they wait on changed under `queue`'s mutex, so a
        /// receiver that checked it before the change is counted.
        fn wake(&self, all: bool) {
            if self.waiting.load(Ordering::Relaxed) == 0 {
                return;
            }
            if all {
                self.ready.notify_all();
            } else {
                self.ready.notify_one();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueue a message, waking one blocked receiver if there is one.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(msg));
            }
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(msg);
            self.shared.wake(false);
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::Relaxed);
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender: wake blocked receivers so they observe
                // the disconnect. Passing through the mutex orders the
                // count after any receiver that saw a live sender.
                drop(self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner));
                self.shared.wake(true);
            }
        }
    }

    impl<T> Receiver<T> {
        /// Non-blocking pop.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match q.pop_front() {
                Some(v) => Ok(v),
                None if self.shared.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocking pop; errors once the channel is empty and sender-less.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                self.shared.waiting.fetch_add(1, Ordering::Relaxed);
                q = self
                    .shared
                    .ready
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
                self.shared.waiting.fetch_sub(1, Ordering::Relaxed);
            }
        }

        /// Messages currently queued.
        pub fn len(&self) -> usize {
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_order_and_len() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.len(), 2);
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_detected() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        /// A receiver blocked in `recv` is woken by a send, and by the
        /// last sender going.
        #[test]
        fn a_blocked_recv_is_woken_by_a_send_or_the_disconnect() {
            for send in [true, false] {
                let (tx, rx) = unbounded::<u32>();
                let shared = rx.shared.clone();
                let receiver = std::thread::spawn(move || rx.recv());
                while shared.waiting.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                if send {
                    tx.send(7).unwrap();
                } else {
                    drop(tx);
                }
                let want = if send { Ok(7) } else { Err(RecvError) };
                assert_eq!(receiver.join().unwrap(), want);
                assert_eq!(shared.waiting.load(Ordering::Relaxed), 0);
            }
        }

        #[test]
        fn mpmc_across_threads() {
            let (tx, rx) = unbounded::<usize>();
            let consumers: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = 0usize;
                        while rx.recv().is_ok() {
                            got += 1;
                        }
                        got
                    })
                })
                .collect();
            for i in 0..1000 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let total: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(total, 1000);
        }
    }
}
