//! The event queue: time-ordered, deterministically tie-broken.

use crate::node::NodeId;
use polite_wifi_frame::Frame;
use polite_wifi_phy::rate::BitRate;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Something that happens at a point in simulated time.
#[derive(Debug, Clone)]
pub enum Event {
    /// Run a station's timer work (`Station::poll`), `copies` times
    /// over. Duplicate poll chains of one node that fall due at the same
    /// instant travel as one counted run instead of `copies` entries;
    /// the run holds `copies` consecutive sequence numbers.
    Poll {
        /// Which node.
        node: NodeId,
        /// How many poll chains this entry stands for (at least 1).
        copies: u64,
    },
    /// A node attempts to start a queued (CSMA) transmission.
    TxAttempt {
        /// Which node.
        node: NodeId,
    },
    /// A node starts a scheduled response (SIFS-timed, bypasses CSMA).
    ResponseTx {
        /// Which node.
        node: NodeId,
        /// The response frame (ACK/CTS/...).
        frame: Frame,
        /// Transmit rate.
        rate: BitRate,
        /// Causal trace of the frame this responds to, if sampled.
        trace: Option<u64>,
    },
    /// A transmission ends: at its transmitter, then at each of its
    /// `arrivals` receivers in turn. The entry stands for those 1 +
    /// `arrivals` events and holds as many consecutive sequence numbers;
    /// the receivers and the frame wait in the simulator's fan-out slab.
    TxEnd {
        /// The transmitting node.
        node: NodeId,
        /// Slot of the transmission's fan-out in that slab.
        fanout: u32,
        /// Receivers the frame finishes arriving at.
        arrivals: u64,
    },
    /// The transmitter gave up waiting for an ACK.
    AckTimeout {
        /// The waiting node.
        node: NodeId,
        /// Token matching the transmission being timed.
        token: u64,
    },
    /// Fault injection: a device stall begins (the node freezes).
    StallStart {
        /// The stalling node.
        node: NodeId,
    },
    /// Fault injection: a device stall ends, optionally via cold boot.
    StallEnd {
        /// The recovering node.
        node: NodeId,
        /// Whether recovery is a cold boot (station state rebuilt).
        reboot: bool,
    },
    /// External injection: hand a frame to a node's transmit queue.
    Inject {
        /// The transmitting node.
        node: NodeId,
        /// The frame to send.
        frame: Frame,
        /// Rate to send at.
        rate: BitRate,
    },
}

impl Event {
    /// Stable event-kind name, the scheduler self-profiler's attribution
    /// key (and the leaf frame in collapsed-stack exports).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::Poll { .. } => "poll",
            Event::TxAttempt { .. } => "tx_attempt",
            Event::ResponseTx { .. } => "response_tx",
            Event::TxEnd { .. } => "tx_end",
            Event::AckTimeout { .. } => "ack_timeout",
            Event::StallStart { .. } => "stall_start",
            Event::StallEnd { .. } => "stall_end",
            Event::Inject { .. } => "inject",
        }
    }

    /// Events the entry stands for, each holding one sequence number.
    pub fn events(&self) -> u64 {
        match *self {
            Event::Poll { copies, .. } => {
                debug_assert!(copies > 0, "an empty poll run");
                copies
            }
            Event::TxEnd { arrivals, .. } => 1 + arrivals,
            _ => 1,
        }
    }
}

/// The receiving end of one transmission: the frame and what every
/// receiver needs to evaluate it, in the order the arrivals run.
#[derive(Debug)]
pub(crate) struct Fanout {
    /// The frame.
    pub frame: Frame,
    /// Rate it was sent at.
    pub rate: BitRate,
    /// Time the frame started on the air (for overlap checks).
    pub start_us: u64,
    /// Band/channel the frame rode on.
    pub tune: crate::medium::Tune,
    /// Causal trace riding the transmission, if sampled.
    pub trace: Option<u64>,
    /// Receivers in ascending `NodeId` order.
    pub receivers: Vec<NodeId>,
}

/// Recycling store of the [`Fanout`]s of transmissions whose `TxEnd`
/// is pending. Slots and receiver lists are reused, so a steady stream
/// of transmissions allocates nothing here.
#[derive(Debug, Default)]
pub(crate) struct FanoutSlab {
    slots: Vec<Option<Fanout>>,
    free: Vec<u32>,
    spare_receivers: Vec<Vec<NodeId>>,
}

impl FanoutSlab {
    /// An empty receiver list, recycled when one is spare.
    pub fn receiver_list(&mut self) -> Vec<NodeId> {
        self.spare_receivers.pop().unwrap_or_default()
    }

    /// Stores a fan-out; returns its slot.
    pub fn insert(&mut self, fanout: Fanout) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(fanout);
                slot
            }
            None => {
                self.slots.push(Some(fanout));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// Removes the fan-out in `slot`, freeing the slot.
    pub fn take(&mut self, slot: u32) -> Fanout {
        self.free.push(slot);
        self.slots[slot as usize].take().expect("live fan-out slot")
    }

    /// Keeps a handled fan-out's receiver list for reuse.
    pub fn recycle(&mut self, fanout: Fanout) {
        let mut receivers = fanout.receivers;
        receivers.clear();
        self.spare_receivers.push(receivers);
    }
}

/// An event bound to a time, ordered for the queue (earliest first; FIFO
/// among equal times via the sequence number).
#[derive(Debug, Clone)]
pub struct ScheduledEvent {
    /// When the event fires, in microseconds.
    pub at_us: u64,
    /// Monotonic tie-breaker (the first of the entry's sequence numbers
    /// when it stands for several events, see [`Event::events`]).
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

impl PartialEq for ScheduledEvent {
    fn eq(&self, other: &Self) -> bool {
        self.at_us == other.at_us && self.seq == other.seq
    }
}

impl Eq for ScheduledEvent {}

impl PartialOrd for ScheduledEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ScheduledEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .at_us
            .cmp(&self.at_us)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Which scheduler backend the simulator's event queue runs on. Both
/// dispatch in the identical (time, seq) total order; the calendar
/// queue is O(1) amortised per operation at city scale, the binary
/// heap is kept as the pre-refactor reference path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Calendar queue with a sorted overflow level (the default).
    #[default]
    Calendar,
    /// The original global binary heap.
    Heap,
}

/// Width of one calendar bucket in microseconds. Most MAC timescales
/// (SIFS, slot times, CSMA defers, ACK timeouts) land within a few
/// buckets of `now`.
const BUCKET_WIDTH_US: u64 = 256;
/// Number of rotating buckets: the calendar's horizon is
/// `BUCKET_WIDTH_US * BUCKET_COUNT` ≈ 262 ms; anything scheduled
/// further out waits in the sorted overflow level.
const BUCKET_COUNT: usize = 1024;

/// The calendar level: rotating unsorted buckets over absolute time,
/// a sorted drain buffer for the window currently being dispatched,
/// and a heap-ordered overflow level beyond the calendar horizon.
#[derive(Debug)]
struct Calendar {
    /// Rotating buckets; index for `at_us` is
    /// `(at_us / BUCKET_WIDTH_US) % BUCKET_COUNT`. Unsorted.
    buckets: Vec<Vec<ScheduledEvent>>,
    /// Events in `buckets` (not counting `drain` or `overflow`).
    in_buckets: usize,
    /// Start of the bucket window currently being drained. Invariant:
    /// every pending event with `at_us < window_start + BUCKET_WIDTH_US`
    /// sits in `drain`.
    window_start: u64,
    /// Current window's events, sorted descending by (at_us, seq) so
    /// the earliest pops from the back.
    drain: Vec<ScheduledEvent>,
    /// Events beyond the calendar horizon at push time.
    overflow: BinaryHeap<ScheduledEvent>,
}

impl Calendar {
    fn new() -> Calendar {
        Calendar {
            buckets: (0..BUCKET_COUNT).map(|_| Vec::new()).collect(),
            in_buckets: 0,
            window_start: 0,
            drain: Vec::new(),
            overflow: BinaryHeap::new(),
        }
    }

    fn horizon(&self) -> u64 {
        self.window_start + BUCKET_WIDTH_US * BUCKET_COUNT as u64
    }

    fn push(&mut self, ev: ScheduledEvent) {
        if ev.at_us < self.window_start + BUCKET_WIDTH_US {
            // Due within the current window (including pushes at `now`
            // mid-dispatch): insert into the sorted drain directly.
            let key = (ev.at_us, ev.seq);
            let pos = self.drain.partition_point(|e| (e.at_us, e.seq) > key);
            self.drain.insert(pos, ev);
        } else if ev.at_us < self.horizon() {
            let b = ((ev.at_us / BUCKET_WIDTH_US) as usize) % BUCKET_COUNT;
            self.buckets[b].push(ev);
            self.in_buckets += 1;
        } else {
            self.overflow.push(ev);
        }
    }

    /// Refills `drain` from the next non-empty window. Caller
    /// guarantees at least one event is pending somewhere.
    fn advance(&mut self) {
        debug_assert!(self.drain.is_empty());
        let mut scanned = 0usize;
        loop {
            self.window_start += BUCKET_WIDTH_US;
            if self.in_buckets == 0 {
                // Everything pending waits in the overflow: jump
                // straight to its head's window.
                let head_at = self.overflow.peek().expect("queue is non-empty").at_us;
                self.window_start = self
                    .window_start
                    .max(head_at / BUCKET_WIDTH_US * BUCKET_WIDTH_US);
            } else if scanned >= BUCKET_COUNT {
                // A full rotation of empty windows: every bucketed
                // event is at least one horizon out (it aliased into a
                // bucket ahead of its window). Jump to the earliest
                // pending time instead of scanning years of silence.
                let mut min_at = self.overflow.peek().map_or(u64::MAX, |e| e.at_us);
                for bucket in &self.buckets {
                    for e in bucket {
                        min_at = min_at.min(e.at_us);
                    }
                }
                self.window_start = self
                    .window_start
                    .max(min_at / BUCKET_WIDTH_US * BUCKET_WIDTH_US);
                scanned = 0;
            }
            let end = self.window_start + BUCKET_WIDTH_US;
            let b = ((self.window_start / BUCKET_WIDTH_US) as usize) % BUCKET_COUNT;
            let bucket = &mut self.buckets[b];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].at_us < end {
                    self.drain.push(bucket.swap_remove(i));
                    self.in_buckets -= 1;
                } else {
                    i += 1;
                }
            }
            while self.overflow.peek().is_some_and(|e| e.at_us < end) {
                self.drain.push(self.overflow.pop().expect("peeked"));
            }
            if !self.drain.is_empty() {
                self.drain
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at_us, e.seq)));
                return;
            }
            scanned += 1;
        }
    }
}

#[derive(Debug)]
enum Backend {
    Heap(BinaryHeap<ScheduledEvent>),
    Calendar(Calendar),
}

/// A deterministic time-ordered event queue: earliest first, FIFO among
/// equal times via the monotonic sequence number — the total order both
/// backends dispatch in.
#[derive(Debug)]
pub struct EventQueue {
    backend: Backend,
    next_seq: u64,
    len: usize,
}

impl Default for EventQueue {
    fn default() -> EventQueue {
        EventQueue::new()
    }
}

impl EventQueue {
    /// An empty calendar-queue-backed queue (the default backend).
    pub fn new() -> EventQueue {
        EventQueue::with_scheduler(SchedulerKind::Calendar)
    }

    /// An empty queue on the chosen backend.
    pub fn with_scheduler(kind: SchedulerKind) -> EventQueue {
        let backend = match kind {
            SchedulerKind::Calendar => Backend::Calendar(Calendar::new()),
            SchedulerKind::Heap => Backend::Heap(BinaryHeap::new()),
        };
        EventQueue {
            backend,
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` at `at_us`. Sequence numbers are assigned at
    /// push regardless of backend, so the dispatch order — and every
    /// RNG draw downstream of it — is backend-invariant. An entry that
    /// stands for several events (a poll run, a transmission's end and
    /// its arrivals) reserves one consecutive sequence number each, so
    /// every other event keeps the `(time, seq)` position it would
    /// have if each were pushed on its own.
    pub fn push(&mut self, at_us: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += event.events();
        self.len += 1;
        let ev = ScheduledEvent { at_us, seq, event };
        match &mut self.backend {
            Backend::Heap(heap) => heap.push(ev),
            Backend::Calendar(cal) => cal.push(ev),
        }
    }

    /// Pops the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.pop(),
            Backend::Calendar(cal) => {
                if cal.drain.is_empty() {
                    cal.advance();
                }
                cal.drain.pop()
            }
        }
    }

    /// Pops the next entry if it is a poll run of `node` due at `at_us`
    /// — i.e. if it directly follows, in `(time, seq)` order, a poll of
    /// `node` just popped at `at_us` — and returns its copies.
    pub fn pop_poll_run(&mut self, at_us: u64, node: NodeId) -> Option<u64> {
        let next = match &self.backend {
            Backend::Heap(heap) => heap.peek(),
            // An event due at `at_us` lies in the window being drained,
            // so it sits in `drain` if it exists at all.
            Backend::Calendar(cal) => cal.drain.last(),
        }?;
        let copies = match next.event {
            Event::Poll { node: n, copies } if n == node && next.at_us == at_us => copies,
            _ => return None,
        };
        self.len -= 1;
        match &mut self.backend {
            Backend::Heap(heap) => heap.pop(),
            Backend::Calendar(cal) => cal.drain.pop(),
        };
        Some(copies)
    }

    /// Time of the next event without removing it. `&mut` because the
    /// calendar backend may need to roll its window forward to find it.
    pub fn peek_time(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        match &mut self.backend {
            Backend::Heap(heap) => heap.peek().map(|e| e.at_us),
            Backend::Calendar(cal) => {
                if cal.drain.is_empty() {
                    cal.advance();
                }
                cal.drain.last().map(|e| e.at_us)
            }
        }
    }

    /// Number of pending queue entries. An entry counts once however
    /// many events it stands for.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poll(node: usize) -> Event {
        Event::Poll {
            node: NodeId(node),
            copies: 1,
        }
    }

    #[test]
    fn earliest_first() {
        let mut q = EventQueue::new();
        q.push(30, poll(0));
        q.push(10, poll(1));
        q.push(20, poll(2));
        assert_eq!(q.pop().unwrap().at_us, 10);
        assert_eq!(q.pop().unwrap().at_us, 20);
        assert_eq!(q.pop().unwrap().at_us, 30);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(100, poll(i));
        }
        let mut order = Vec::new();
        while let Some(e) = q.pop() {
            if let Event::Poll { node, .. } = e.event {
                order.push(node.0);
            }
        }
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(5, poll(0));
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_events_ride_the_overflow_level() {
        let mut q = EventQueue::new();
        // Well beyond the calendar horizon (~262 ms), plus a near event.
        q.push(10_000_000_000, poll(0));
        q.push(3_600_000_000, poll(1));
        q.push(100, poll(2));
        assert_eq!(q.pop().unwrap().at_us, 100);
        assert_eq!(q.pop().unwrap().at_us, 3_600_000_000);
        assert_eq!(q.pop().unwrap().at_us, 10_000_000_000);
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_into_current_window_mid_drain_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(10, poll(0));
        q.push(20, poll(1));
        assert_eq!(q.pop().unwrap().at_us, 10);
        // The drain now holds {20}; a push due sooner must cut the line.
        q.push(15, poll(2));
        q.push(20, poll(3));
        assert_eq!(q.pop().unwrap().at_us, 15);
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        // FIFO among the two t=20 events.
        assert!((a.at_us, a.seq) < (b.at_us, b.seq));
        assert!(matches!(a.event, Event::Poll { node, .. } if node.0 == 1));
        assert!(matches!(b.event, Event::Poll { node, .. } if node.0 == 3));
    }

    #[test]
    fn a_poll_run_reserves_one_seq_per_copy() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let mut q = EventQueue::with_scheduler(kind);
            q.push(
                50,
                Event::Poll {
                    node: NodeId(0),
                    copies: 5,
                },
            );
            q.push(50, poll(1));
            let run = q.pop().unwrap();
            let next = q.pop().unwrap();
            assert_eq!(next.seq, run.seq + 5, "{kind:?}");
            assert!(matches!(run.event, Event::Poll { copies: 5, .. }));
        }
    }

    #[test]
    fn a_tx_end_reserves_one_seq_per_arrival() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let mut q = EventQueue::with_scheduler(kind);
            q.push(
                60,
                Event::TxEnd {
                    node: NodeId(0),
                    fanout: 0,
                    arrivals: 3,
                },
            );
            q.push(60, poll(1));
            let end = q.pop().unwrap();
            assert_eq!(q.pop().unwrap().seq, end.seq + 4, "{kind:?}");
        }
    }

    #[test]
    fn pop_poll_run_takes_only_the_directly_following_same_node_run() {
        for kind in [SchedulerKind::Calendar, SchedulerKind::Heap] {
            let mut q = EventQueue::with_scheduler(kind);
            let run = |node, copies| Event::Poll {
                node: NodeId(node),
                copies,
            };
            q.push(70, run(0, 1));
            q.push(70, run(0, 2));
            q.push(70, run(0, 3));
            q.push(70, run(1, 1));
            q.push(70, run(0, 4));
            q.push(80, run(0, 5));
            let first = q.pop().unwrap();
            assert_eq!(q.pop_poll_run(70, NodeId(0)), Some(2), "{kind:?}");
            assert_eq!(q.pop_poll_run(70, NodeId(0)), Some(3), "{kind:?}");
            // Node 1's poll sits in between: node 0's last run at 70
            // must wait its turn, and nothing of node 1 is taken.
            assert_eq!(q.pop_poll_run(70, NodeId(0)), None, "{kind:?}");
            assert_eq!(q.len(), 3);
            let second = q.pop().unwrap();
            assert!(matches!(second.event, Event::Poll { node, .. } if node.0 == 1));
            assert_eq!(second.seq, first.seq + 6);
            assert_eq!(q.pop_poll_run(70, NodeId(0)), Some(4), "{kind:?}");
            // A later-time run of the same node is not part of this instant.
            assert_eq!(q.pop_poll_run(70, NodeId(0)), None, "{kind:?}");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop().unwrap().at_us, 80);
        }
    }

    /// The contract the whole determinism story rests on: both backends
    /// dispatch any interleaving of pushes and pops in the identical
    /// (time, seq) total order.
    #[test]
    fn calendar_matches_heap_on_random_interleavings() {
        // Deterministic LCG so the test needs no external RNG.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut cal = EventQueue::with_scheduler(SchedulerKind::Calendar);
        let mut heap = EventQueue::with_scheduler(SchedulerKind::Heap);
        let mut now = 0u64;
        for round in 0..5_000u64 {
            let r = next();
            if r % 3 != 0 || cal.is_empty() {
                // Push: mostly near-future, occasionally far beyond the
                // horizon, with plenty of exact ties.
                let dt = match r % 7 {
                    0 => 0,
                    1..=4 => next() % 2_000,
                    5 => next() % 50_000,
                    _ => 300_000 + next() % 2_000_000_000,
                };
                cal.push(now + dt, poll(round as usize));
                heap.push(now + dt, poll(round as usize));
            } else {
                let (a, b) = (cal.pop(), heap.pop());
                match (&a, &b) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.at_us, x.seq), (y.at_us, y.seq), "round {round}");
                        assert!(x.at_us >= now, "time went backwards");
                        now = x.at_us;
                    }
                    (None, None) => {}
                    _ => panic!("one backend drained before the other"),
                }
            }
            assert_eq!(cal.len(), heap.len());
            assert_eq!(cal.peek_time(), heap.peek_time(), "round {round}");
        }
        while let Some(x) = cal.pop() {
            let y = heap.pop().expect("same length");
            assert_eq!((x.at_us, x.seq), (y.at_us, y.seq));
        }
        assert!(heap.pop().is_none());
    }
}
