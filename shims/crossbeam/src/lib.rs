//! Offline stand-in for `crossbeam`.
//!
//! Provides the two pieces the workspace uses: multi-producer channels
//! with clonable senders (`channel::{bounded, unbounded}`) and a
//! concurrent FIFO queue (`queue::SegQueue`). Built on `std::sync`
//! rather than lock-free internals; the semantics — clonable senders,
//! `Err` on disconnected ends — match the real crate.

/// MPMC channels with clonable `Sender`s and genuinely blocking bounded
/// variants (Mutex + Condvar backed).
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct State<T> {
        queue: VecDeque<T>,
        /// `None` = unbounded.
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Chan<T> {
        fn new(cap: Option<usize>) -> Arc<Self> {
            Arc::new(Chan {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    cap,
                    senders: 1,
                    receivers: 1,
                }),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            })
        }
    }

    /// Sending half; clonable.
    pub struct Sender<T>(Arc<Chan<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            st.senders -= 1;
            if st.senders == 0 {
                // Wake receivers blocked on an empty queue so they can
                // observe the disconnect.
                self.0.not_empty.notify_all();
            }
        }
    }

    /// Error returned when the receiving side has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is at capacity.
        /// Errors if all receivers are gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if st.receivers == 0 {
                    return Err(SendError(value));
                }
                match st.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st = self.0.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                    _ => break,
                }
            }
            st.queue.push_back(value);
            drop(st);
            self.0.not_empty.notify_one();
            Ok(())
        }
    }

    /// Error returned when the sending side has hung up.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on a disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Receiving half; clonable (MPMC, like the real crossbeam receiver).
    pub struct Receiver<T>(Arc<Chan<T>>);

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            st.receivers -= 1;
            if st.receivers == 0 {
                // Wake senders blocked on a full queue so they can observe
                // the disconnect.
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a value arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.not_empty.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Non-blocking receive; `None` when empty or disconnected.
        pub fn try_recv(&self) -> Option<T> {
            let mut st = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            let v = st.queue.pop_front();
            if v.is_some() {
                drop(st);
                self.0.not_full.notify_one();
            }
            v
        }
    }

    /// An unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Chan::new(None);
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    /// A channel holding at most `cap` queued values: `send` blocks while
    /// the queue is full, which is what gives the streaming pipeline its
    /// back-pressure. `bounded(0)` is treated as capacity 1 (the shim has
    /// no rendezvous mode).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Chan::new(Some(cap.max(1)));
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }
}

/// Lock-guarded queues mirroring `crossbeam::queue`.
pub mod queue {
    use std::collections::VecDeque;
    use std::sync::Mutex;

    /// An unbounded MPMC FIFO queue.
    #[derive(Debug)]
    pub struct SegQueue<T> {
        inner: Mutex<VecDeque<T>>,
    }

    impl<T> Default for SegQueue<T> {
        fn default() -> Self {
            SegQueue::new()
        }
    }

    impl<T> SegQueue<T> {
        /// An empty queue.
        pub fn new() -> Self {
            SegQueue {
                inner: Mutex::new(VecDeque::new()),
            }
        }

        /// Appends `value` at the back.
        pub fn push(&self, value: T) {
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(value);
        }

        /// Removes the front element, if any.
        pub fn pop(&self) -> Option<T> {
            self.inner
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()
        }

        /// Number of queued elements.
        pub fn len(&self) -> usize {
            self.inner.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        /// Whether the queue is empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_channel_roundtrips() {
        let (tx, rx) = channel::unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        drop((tx, tx2));
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn bounded_channel_applies_back_pressure() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use std::time::Duration;

        let (tx, rx) = channel::bounded(2);
        let sent = Arc::new(AtomicUsize::new(0));
        let sent2 = Arc::clone(&sent);
        let handle = std::thread::spawn(move || {
            for i in 0..5 {
                tx.send(i).unwrap();
                sent2.fetch_add(1, Ordering::SeqCst);
            }
        });
        // With capacity 2 the sender must stall until we drain; give it
        // time to fill the queue and block.
        std::thread::sleep(Duration::from_millis(50));
        assert!(sent.load(Ordering::SeqCst) <= 3, "sender ran past capacity");
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(rx.recv().unwrap());
        }
        handle.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn dropping_receiver_unblocks_sender() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let handle = std::thread::spawn(move || tx.send(2));
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert_eq!(handle.join().unwrap(), Err(channel::SendError(2)));
    }

    #[test]
    fn segqueue_is_fifo() {
        let q = queue::SegQueue::new();
        q.push(1);
        q.push(2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
