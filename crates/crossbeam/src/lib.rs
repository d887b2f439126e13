//! Vendored stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel` is provided, and of it only what a polled
//! mailbox needs: an unbounded FIFO channel whose receiver is taken with
//! [`channel::Receiver::try_recv`] and never blocks (std's mpsc receiver
//! is not `Sync`, so a `Mutex<VecDeque>` stands in). No thread waits on
//! the channel, so a send wakes nobody and makes no system call. See the
//! `parking_lot` shim for why external deps are vendored.

pub mod channel {
    //! Unbounded FIFO channel, polled by its receiver.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, PoisonError};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Each flag is stored (`Release`) by its half's drop and loaded
        /// (`Acquire`) by the other half.
        sender_gone: AtomicBool,
        receiver_gone: AtomicBool,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            sender_gone: AtomicBool::new(false),
            receiver_gone: AtomicBool::new(false),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    /// Sending half; shared by reference between threads.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; shared by reference between threads.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when the receiver is gone;
    /// carries the unsent message.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Channel currently empty.
        Empty,
        /// Empty and the sender dropped.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
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

    impl<T> Sender<T> {
        /// Enqueue a message; fails once the receiver is dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.shared.receiver_gone.load(Ordering::Acquire) {
                return Err(SendError(msg));
            }
            self.shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(msg);
            Ok(())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.shared.sender_gone.store(true, Ordering::Release);
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
                None if self.shared.sender_gone.load(Ordering::Acquire) => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receiver_gone.store(true, Ordering::Release);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_order() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.try_recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_detected() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert_eq!(tx.send(1), Err(SendError(1)));
        }

        /// Four producers and four polling consumers share one channel by
        /// reference: every message is taken exactly once.
        #[test]
        fn mpmc_across_threads() {
            let (tx, rx) = unbounded::<usize>();
            let rx = &rx;
            let total: usize = std::thread::scope(|sc| {
                let consumers: Vec<_> = (0..4)
                    .map(|_| {
                        sc.spawn(move || {
                            let mut got = 0usize;
                            loop {
                                match rx.try_recv() {
                                    Ok(_) => got += 1,
                                    Err(TryRecvError::Empty) => std::thread::yield_now(),
                                    Err(TryRecvError::Disconnected) => return got,
                                }
                            }
                        })
                    })
                    .collect();
                std::thread::scope(|producers| {
                    for p in 0..4 {
                        let tx = &tx;
                        producers
                            .spawn(move || (0..250).for_each(|i| tx.send(p * 250 + i).unwrap()));
                    }
                });
                drop(tx);
                consumers.into_iter().map(|c| c.join().unwrap()).sum()
            });
            assert_eq!(total, 1000);
        }
    }
}
