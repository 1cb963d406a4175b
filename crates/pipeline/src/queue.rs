use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

/// A fixed-capacity multi-producer multi-consumer queue built on shared
/// counters, mirroring the paper's §III-E synchronisation:
///
/// * producers reserve the next position with a fetch-add on the tail
///   counter (the paper's `srv` / `prd`), deposit the item, and flip that
///   slot's ready flag;
/// * consumers claim a *queuing id* with a fetch-add on the head counter
///   (`cns` / `wrt`) and then wait for exactly that slot to become ready.
///
/// Because a consumer's id is fixed at claim time, arrival order is
/// consumption order — the property the paper uses to "fix the consuming
/// order of different processors". Capacity bounds the number of items
/// that will ever flow (the partition count, known up front); [`finish`]
/// ends a stream that turned out shorter and [`close`] releases
/// consumers early when a run aborts.
///
/// [`finish`]: SharedCounterQueue::finish
/// [`close`]: SharedCounterQueue::close
///
/// # Examples
///
/// ```
/// use pipeline::SharedCounterQueue;
///
/// let q = SharedCounterQueue::new(3);
/// q.push("a");
/// q.push("b");
/// assert_eq!(q.pop(), Some("a"));
/// assert_eq!(q.pop(), Some("b"));
/// q.push("c");
/// assert_eq!(q.pop(), Some("c"));
/// assert_eq!(q.pop(), None); // capacity exhausted: stream complete
/// ```
#[derive(Debug)]
pub struct SharedCounterQueue<T> {
    slots: Box<[Mutex<Option<T>>]>,
    ready: Box<[AtomicBool]>,
    /// Paper's `srv`/`prd`: number of reserved (being-produced) positions.
    tail: AtomicUsize,
    /// Paper's `cns`/`wrt`: next queuing id to hand to a consumer.
    head: AtomicUsize,
    closed: AtomicBool,
    /// Graceful end-of-stream: no further pushes will arrive, but items
    /// already published must still drain (unlike [`close`], which
    /// abandons them).
    ///
    /// [`close`]: SharedCounterQueue::close
    finished: AtomicBool,
    wait_lock: Mutex<()>,
    wait_cv: Condvar,
}

impl<T> SharedCounterQueue<T> {
    /// A queue for exactly `capacity` items.
    pub fn new(capacity: usize) -> SharedCounterQueue<T> {
        SharedCounterQueue {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            ready: (0..capacity).map(|_| AtomicBool::new(false)).collect(),
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            wait_lock: Mutex::new(()),
            wait_cv: Condvar::new(),
        }
    }

    /// A queue that already holds all of `items` and is
    /// [`finish`](SharedCounterQueue::finish)ed: the feed of a batch run,
    /// whose whole work list is known before the pipeline starts.
    pub fn filled(items: impl IntoIterator<Item = T>) -> SharedCounterQueue<T> {
        let items: Vec<T> = items.into_iter().collect();
        let queue = SharedCounterQueue::new(items.len());
        for item in items {
            queue.push(item);
        }
        queue.finish();
        queue
    }

    /// Total items the queue will carry.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Items published so far (the paper's `srv`/`prd` value).
    pub fn produced(&self) -> usize {
        self.tail.load(Ordering::Acquire).min(self.capacity())
    }

    /// Queuing ids handed out so far (the paper's `cns`/`wrt` value).
    pub fn claimed(&self) -> usize {
        self.head.load(Ordering::Acquire).min(self.capacity())
    }

    /// Publishes one item, returning its position.
    ///
    /// # Panics
    ///
    /// Panics if more than `capacity` items are pushed.
    pub fn push(&self, item: T) -> usize {
        let pos = self.tail.fetch_add(1, Ordering::AcqRel);
        assert!(pos < self.capacity(), "queue over-produced: capacity {}", self.capacity());
        *self.slots[pos].lock() = Some(item);
        self.ready[pos].store(true, Ordering::Release);
        let _guard = self.wait_lock.lock();
        self.wait_cv.notify_all();
        pos
    }

    /// Claims the next queuing id and blocks until that item is published.
    /// Returns `None` once all `capacity` items have been claimed, when
    /// the queue is closed and the claimed slot will never be filled, or
    /// when the stream [`finish`](SharedCounterQueue::finish)ed before the
    /// claimed slot was produced.
    pub fn pop(&self) -> Option<T> {
        let pos = self.head.fetch_add(1, Ordering::AcqRel);
        if pos >= self.capacity() {
            return None;
        }
        loop {
            if self.ready[pos].load(Ordering::Acquire) {
                let item = self.slots[pos].lock().take();
                debug_assert!(item.is_some(), "ready slot must hold an item");
                return item;
            }
            if self.closed.load(Ordering::Acquire) {
                return None;
            }
            // Graceful end-of-stream. Order matters: `finished` is read
            // *before* `tail`, and the producer publishes (tail AcqRel)
            // before storing `finished` (Release) — so observing
            // `finished` guarantees every push's tail increment is
            // visible. `pos < tail` with the slot not yet ready means a
            // producer is mid-publish: keep waiting for the ready flag.
            if self.finished.load(Ordering::Acquire) && pos >= self.tail.load(Ordering::Acquire) {
                return None;
            }
            let mut guard = self.wait_lock.lock();
            // Re-check under the lock to avoid missing a notify.
            if self.ready[pos].load(Ordering::Acquire)
                || self.closed.load(Ordering::Acquire)
                || (self.finished.load(Ordering::Acquire)
                    && pos >= self.tail.load(Ordering::Acquire))
            {
                continue;
            }
            self.wait_cv.wait(&mut guard);
        }
    }

    /// Marks the stream as aborted: consumers blocked on unpublished slots
    /// return `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        let _guard = self.wait_lock.lock();
        self.wait_cv.notify_all();
    }

    /// Whether [`close`](SharedCounterQueue::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Declares the stream complete: no further [`push`]es will arrive.
    /// Items already published still drain normally; consumers blocked on
    /// (or later claiming) a slot beyond the last push return `None`.
    ///
    /// This is the streaming pipeline's graceful counterpart to
    /// [`close`]: `capacity` becomes an upper bound instead of an exact
    /// item count, so a producer that discovers the stream is shorter
    /// than `capacity` (e.g. fewer sealed partitions than planned) can
    /// release its consumers without abandoning in-flight items.
    ///
    /// [`push`]: SharedCounterQueue::push
    /// [`close`]: SharedCounterQueue::close
    pub fn finish(&self) {
        self.finished.store(true, Ordering::Release);
        let _guard = self.wait_lock.lock();
        self.wait_cv.notify_all();
    }

    /// Whether [`finish`](SharedCounterQueue::finish) has been called.
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let q = SharedCounterQueue::new(4);
        for i in 0..4 {
            assert_eq!(q.push(i), i);
        }
        assert_eq!(q.produced(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.claimed(), 4);
    }

    #[test]
    #[should_panic(expected = "over-produced")]
    fn over_production_panics() {
        let q = SharedCounterQueue::new(1);
        q.push(1);
        q.push(2);
    }

    #[test]
    fn consumers_block_until_producer_arrives() {
        let q = Arc::new(SharedCounterQueue::new(1));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.push(42);
        assert_eq!(h.join().unwrap(), Some(42));
    }

    #[test]
    fn close_releases_blocked_consumers() {
        let q = Arc::new(SharedCounterQueue::<u32>::new(5));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.push(1); // one consumer gets an item
        q.close();
        assert!(q.is_closed());
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.iter().filter(|r| r.is_some()).count(), 1);
        assert_eq!(results.iter().filter(|r| r.is_none()).count(), 2);
    }

    #[test]
    fn mpmc_no_item_lost_or_duplicated() {
        let n = 500;
        let q = Arc::new(SharedCounterQueue::new(n));
        let got = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            // Two producers (like two devices filling the output queue).
            for p in 0..2 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..n / 2 {
                        q.push(p * (n / 2) + i);
                    }
                });
            }
            // Three consumers.
            for _ in 0..3 {
                let q = Arc::clone(&q);
                let got = Arc::clone(&got);
                s.spawn(move || {
                    while let Some(v) = q.pop() {
                        got.lock().push(v);
                    }
                });
            }
        });
        let mut all = got.lock().clone();
        all.sort();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn finish_drains_published_items_then_ends() {
        let q = SharedCounterQueue::new(8);
        q.push(1);
        q.push(2);
        q.finish();
        assert!(q.is_finished());
        // Published items still drain in order …
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // … and the short stream then ends despite spare capacity.
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn filled_queue_drains_in_order_then_ends() {
        let q = SharedCounterQueue::filled(["a", "b", "c"]);
        assert_eq!((q.capacity(), q.produced()), (3, 3));
        assert!(q.is_finished());
        assert_eq!([q.pop(), q.pop(), q.pop(), q.pop()], [Some("a"), Some("b"), Some("c"), None]);
        assert_eq!(SharedCounterQueue::<u8>::filled([]).pop(), None);
    }

    #[test]
    fn finish_releases_blocked_consumers() {
        let q = Arc::new(SharedCounterQueue::<u32>::new(10));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        q.push(9); // exactly one blocked consumer is satisfied
        q.finish();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.iter().filter(|r| **r == Some(9)).count(), 1);
        assert_eq!(results.iter().filter(|r| r.is_none()).count(), 2);
    }

    #[test]
    fn finish_under_contention_loses_nothing() {
        for _ in 0..50 {
            let n = 64;
            let q = Arc::new(SharedCounterQueue::new(n));
            let got = Arc::new(Mutex::new(Vec::new()));
            std::thread::scope(|s| {
                let prod = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..n / 2 {
                        prod.push(i); // short stream: half the capacity
                    }
                    prod.finish();
                });
                for _ in 0..3 {
                    let q = Arc::clone(&q);
                    let got = Arc::clone(&got);
                    s.spawn(move || {
                        while let Some(v) = q.pop() {
                            got.lock().push(v);
                        }
                    });
                }
            });
            let mut all = got.lock().clone();
            all.sort();
            assert_eq!(all, (0..n / 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_capacity_queue() {
        let q = SharedCounterQueue::<u8>::new(0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.capacity(), 0);
    }
}
