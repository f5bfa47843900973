//! The single-core drive loop's event feed: trace decode and prefetcher
//! training, one block ahead of the caches, on a helper thread.
//!
//! Both stages depend on the trace's address stream alone. Decode never
//! reads a write epoch, and the prefetcher trains on every demand
//! address whatever the caches answer. So a [`Feed`] may compute a
//! block of events and their prefetch targets on a helper thread while
//! the calling thread runs the caches, DRAM and the core model over the
//! block before it, and the results are bit-identical to computing them
//! inline. Whether a run gets a helper depends on a [`CorePool`]: only
//! when a core is free and the run is long enough to repay the thread.
//! A run without one decodes and trains one event at a time, as it did
//! before feeds: filling blocks on the loop's own thread measured 5-9%
//! slower than that.

use crate::prefetch::StreamPrefetcher;
use bv_trace::{TraceDecoder, TraceEvent, TraceGenerator};
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Events per block.
pub(crate) const BLOCK_EVENTS: usize = 256;

/// Blocks a helper and its drive loop pass between them, the one the
/// loop is consuming included.
const BLOCKS: usize = 4;

/// The shortest run, warmup included, in instructions, that takes a
/// helper: the length from which the overlap repaid a helper's fixed
/// cost on a 2-vCPU VM when it was measured (DESIGN.md §13).
const HELPER_MIN_INSTS: u64 = 100_000;

/// Counts the threads that run a drive loop or a feed helper, against
/// the cores the process may use.
pub(crate) struct CorePool {
    busy: AtomicUsize,
    /// The cores; 0 until first asked, then `available_parallelism`.
    cores: AtomicUsize,
    /// The shortest run that takes a helper.
    min_insts: u64,
}

/// The process's pool: every drive loop and helper counts itself here.
pub(crate) static PROCESS_CORES: CorePool = CorePool::new(0, HELPER_MIN_INSTS);

impl CorePool {
    /// A pool of `cores` cores, or of the host's when `cores` is 0, whose
    /// runs take a helper from `min_insts` instructions on.
    const fn new(cores: usize, min_insts: u64) -> CorePool {
        CorePool {
            busy: AtomicUsize::new(0),
            cores: AtomicUsize::new(cores),
            min_insts,
        }
    }

    fn cores(&self) -> usize {
        match self.cores.load(Ordering::Relaxed) {
            0 => {
                let n = thread::available_parallelism().map_or(1, NonZeroUsize::get);
                self.cores.store(n, Ordering::Relaxed);
                n
            }
            n => n,
        }
    }

    /// Counts the calling thread as busy until the guard drops. A thread
    /// that is counted already, because its caller holds a guard, is not
    /// counted twice.
    pub(crate) fn enter(&self) -> Busy<'_> {
        let this = std::ptr::from_ref(self) as usize;
        let outer = COUNTED_IN.with(|c| c.replace(this));
        let counted = outer != this;
        if counted {
            self.busy.fetch_add(1, Ordering::AcqRel);
        }
        Busy {
            pool: self,
            counted,
            outer,
        }
    }

    /// Counts a helper thread busy for a run of `insts` instructions if
    /// the run is long enough, the calling thread allows a helper, and a
    /// core is free.
    fn try_enter(&self, insts: u64) -> Option<HelperSlot<'_>> {
        if insts < self.min_insts || INLINE.with(Cell::get) {
            return None;
        }
        let cores = self.cores();
        self.busy
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < cores).then_some(n + 1)
            })
            .ok()
            .map(|_| HelperSlot(self))
    }
}

thread_local! {
    /// The address of the pool this thread is counted busy in, or 0.
    static COUNTED_IN: Cell<usize> = const { Cell::new(0) };
    /// Whether this thread's runs decode inline, on no helper.
    static INLINE: Cell<bool> = const { Cell::new(false) };
}

/// The calling thread's share of a [`CorePool`], released on drop.
pub(crate) struct Busy<'a> {
    pool: &'a CorePool,
    /// Whether this guard counted the thread (an outer one did not).
    counted: bool,
    /// The pool the thread was counted in before, restored on drop.
    outer: usize,
}

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        if self.counted {
            self.pool.busy.fetch_sub(1, Ordering::AcqRel);
        }
        COUNTED_IN.with(|c| c.set(self.outer));
    }
}

/// A helper thread's share of a [`CorePool`], released on drop (on the
/// helper, when it ends).
struct HelperSlot<'a>(&'a CorePool);

impl Drop for HelperSlot<'_> {
    fn drop(&mut self) {
        self.0.busy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Counts the calling thread busy in the process-wide count of threads
/// that run simulations, until the returned guard drops. A single-core
/// [`System`](crate::System) run takes a helper thread only while that
/// count is below the host's cores, and counts its own thread there for
/// the run; a thread that holds this guard is not counted again. A job
/// engine holds it across a whole job, bookkeeping included, so another
/// worker's run does not read the gap between this worker's runs as a
/// free core.
#[must_use]
pub fn hold_core() -> CoreHold {
    CoreHold {
        _busy: PROCESS_CORES.enter(),
    }
}

/// The guard of [`hold_core`].
pub struct CoreHold {
    _busy: Busy<'static>,
}

/// Makes every single-core [`System`](crate::System) run on the calling
/// thread decode and train its prefetcher inline, on no helper thread,
/// until the returned guard drops. Results are the same either way; the
/// guard fixes the cost, for timings that compare runs while other
/// threads start and end theirs, and so would otherwise find a core free
/// for some runs and not for others.
#[must_use]
pub fn inline_feed() -> InlineFeed {
    InlineFeed {
        outer: INLINE.with(|c| c.replace(true)),
        _thread: PhantomData,
    }
}

/// The guard of [`inline_feed`].
pub struct InlineFeed {
    /// The calling thread's setting before, restored on drop.
    outer: bool,
    /// The setting is the calling thread's: the guard stays on it.
    _thread: PhantomData<*const ()>,
}

impl Drop for InlineFeed {
    fn drop(&mut self) {
        INLINE.with(|c| c.set(self.outer));
    }
}

/// Decoded events and the prefetch targets each one trained.
struct Block {
    events: Vec<TraceEvent>,
    /// `ends[i]` is where event `i`'s targets end in `targets`; they
    /// start where event `i - 1`'s end (event 0's at 0).
    ends: Vec<usize>,
    targets: Vec<u64>,
}

impl Block {
    /// An empty block that fills without reallocating: training issues
    /// at most `degree` targets per event.
    fn new(degree: u32) -> Block {
        Block {
            events: Vec::with_capacity(BLOCK_EVENTS),
            ends: Vec::with_capacity(BLOCK_EVENTS),
            targets: Vec::with_capacity(BLOCK_EVENTS * degree as usize),
        }
    }
}

/// What fills blocks: the decode half of a run's generator and the
/// core's prefetcher.
struct Source {
    decoder: TraceDecoder,
    prefetcher: StreamPrefetcher,
}

impl Source {
    fn new(gen: &TraceGenerator, degree: u32) -> Source {
        Source {
            decoder: gen.decoder(),
            prefetcher: StreamPrefetcher::new(degree),
        }
    }

    /// Replaces `block`'s contents with the next [`BLOCK_EVENTS`] events.
    fn fill(&mut self, block: &mut Block) {
        block.events.clear();
        block.ends.clear();
        block.targets.clear();
        for _ in 0..BLOCK_EVENTS {
            let ev = self.decoder.next_event();
            self.prefetcher.observe_into(ev.addr, &mut block.targets);
            block.events.push(ev);
            block.ends.push(block.targets.len());
        }
    }
}

/// The blocks in flight between a helper and its drive loop.
struct Ring {
    state: Mutex<RingState>,
    /// Signalled when a filled block arrives or the helper stops.
    filled: Condvar,
    /// Signalled when a consumed block comes back or the loop stops.
    freed: Condvar,
}

struct RingState {
    /// Filled blocks, in decode order.
    full: VecDeque<Block>,
    /// Consumed blocks, to refill.
    free: Vec<Block>,
    /// The drive loop has stopped: it returned or is unwinding.
    closed: bool,
    /// The helper has stopped: no more blocks will be filled.
    stopped: bool,
    loop_waits: bool,
    helper_waits: bool,
}

impl Ring {
    /// A ring whose free list holds `BLOCKS - 1` blocks; the drive loop
    /// holds the last one.
    fn new(degree: u32) -> Ring {
        let mut free = Vec::with_capacity(BLOCKS);
        free.extend((1..BLOCKS).map(|_| Block::new(degree)));
        Ring {
            state: Mutex::new(RingState {
                full: VecDeque::with_capacity(BLOCKS),
                free,
                closed: false,
                stopped: false,
                loop_waits: false,
                helper_waits: false,
            }),
            filled: Condvar::new(),
            freed: Condvar::new(),
        }
    }

    /// Every critical section only moves blocks and flags, so a panic
    /// elsewhere leaves the state whole: a poisoned lock is used as is.
    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The helper's loop: fill free blocks in order until the drive loop
    /// closes the ring. It allocates nothing.
    fn produce(&self, source: &mut Source) {
        let _stop = StopOnDrop(self);
        let mut filled = None;
        loop {
            let mut block = {
                let mut st = self.lock();
                if let Some(block) = filled.take() {
                    st.full.push_back(block);
                    if st.loop_waits {
                        self.filled.notify_one();
                    }
                }
                loop {
                    if st.closed {
                        return;
                    }
                    if let Some(block) = st.free.pop() {
                        break block;
                    }
                    st.helper_waits = true;
                    st = self.freed.wait(st).unwrap_or_else(PoisonError::into_inner);
                    st.helper_waits = false;
                }
            };
            source.fill(&mut block);
            filled = Some(block);
        }
    }

    /// Hands the consumed `block` back and replaces it with the next
    /// filled one, waiting for it if need be.
    ///
    /// # Panics
    ///
    /// Panics if the helper stopped (it panicked) before filling it.
    fn swap(&self, block: &mut Block) {
        let mut st = self.lock();
        let next = loop {
            if let Some(next) = st.full.pop_front() {
                break next;
            }
            assert!(!st.stopped, "the feed's helper thread stopped");
            st.loop_waits = true;
            st = self.filled.wait(st).unwrap_or_else(PoisonError::into_inner);
            st.loop_waits = false;
        };
        st.free.push(std::mem::replace(block, next));
        if st.helper_waits {
            self.freed.notify_one();
        }
    }

    /// Stops the helper: the drive loop takes no more blocks.
    fn close(&self) {
        self.lock().closed = true;
        self.freed.notify_one();
    }
}

/// Marks the ring stopped when the helper's loop ends, by return or by
/// panic, so a drive loop waiting on it wakes instead of hanging.
struct StopOnDrop<'a>(&'a Ring);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.lock().stopped = true;
        self.0.filled.notify_one();
    }
}

/// A drive loop's source of events, each with the prefetch targets that
/// training on it issued, filled ahead by a helper thread.
pub(crate) struct Feed<'a> {
    block: Block,
    /// The next event's index in `block`.
    next: usize,
    /// Where the next event's targets start in `block.targets`.
    start: usize,
    ring: &'a Ring,
}

impl<'a> Feed<'a> {
    /// A feed whose first events are `block`'s, and the rest `ring`'s.
    fn new(block: Block, ring: &'a Ring) -> Feed<'a> {
        Feed {
            block,
            next: 0,
            start: 0,
            ring,
        }
    }

    /// The next event, whose memory side effect is not yet committed,
    /// and the byte addresses the core's prefetcher issued on it.
    #[inline]
    pub(crate) fn next(&mut self) -> (TraceEvent, &[u64]) {
        if self.next == self.block.events.len() {
            self.refill();
        }
        let i = self.next;
        let (start, end) = (self.start, self.block.ends[i]);
        self.next = i + 1;
        self.start = end;
        (self.block.events[i], &self.block.targets[start..end])
    }

    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        self.ring.swap(&mut self.block);
        self.next = 0;
        self.start = 0;
    }
}

impl Drop for Feed<'_> {
    fn drop(&mut self) {
        self.ring.close();
    }
}

/// Runs `body` on a feed of `gen`'s events from its next one on, with
/// prefetch training at `degree`, if the run's `insts` instructions reach
/// `pool`'s minimum and a core is free; otherwise on no feed, and `body`
/// decodes and trains itself. Either way `body` gets `gen`, whose own
/// decoder has not moved, for the memory image. The calling thread must
/// already be counted busy in `pool`. The helper thread that fills the
/// feed is joined before this returns or unwinds, and everything it uses
/// is allocated and freed on the calling thread.
pub(crate) fn with_feed<R>(
    pool: &CorePool,
    gen: TraceGenerator,
    degree: u32,
    insts: u64,
    body: impl FnOnce(Option<Feed<'_>>, TraceGenerator) -> R,
) -> R {
    let Some(helper) = pool.try_enter(insts) else {
        return body(None, gen);
    };
    // The loop fills the first block itself, which overlaps the helper's
    // start instead of waiting for it.
    let source = &mut Source::new(&gen, degree);
    let mut first = Block::new(degree);
    source.fill(&mut first);
    let ring = &Ring::new(degree);
    thread::scope(|scope| {
        let spawned = thread::Builder::new().spawn_scoped(scope, move || {
            let _helper = helper;
            ring.produce(source);
        });
        // If no thread can be had, the closure, and with it the helper's
        // busy count, is already dropped, and `gen` decodes from the start.
        let feed = spawned.is_ok().then(|| Feed::new(first, ring));
        body(feed, gen)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bv_trace::TraceRegistry;

    impl CorePool {
        /// A pool of `cores` cores whose runs take a helper at any length.
        pub(crate) const fn with_cores(cores: usize) -> CorePool {
            CorePool::new(cores, 0)
        }

        /// The threads counted busy now.
        pub(crate) fn busy(&self) -> usize {
            self.busy.load(Ordering::Acquire)
        }
    }

    /// What the serial path sees: decode, then train, one event at a time.
    fn serial(gen: &TraceGenerator, degree: u32, n: usize) -> Vec<(TraceEvent, Vec<u64>)> {
        let mut decoder = gen.decoder();
        let mut prefetcher = StreamPrefetcher::new(degree);
        (0..n)
            .map(|_| {
                let ev = decoder.next_event();
                let mut targets = Vec::new();
                prefetcher.observe_into(ev.addr, &mut targets);
                (ev, targets)
            })
            .collect()
    }

    /// What a feed in `pool` yields, if `pool` gives one.
    fn fed(
        pool: &CorePool,
        gen: &TraceGenerator,
        degree: u32,
        n: usize,
    ) -> Option<Vec<(TraceEvent, Vec<u64>)>> {
        let _busy = pool.enter();
        with_feed(pool, gen.clone(), degree, 0, |feed, _| {
            let mut feed = feed?;
            let seen = (0..n)
                .map(|_| {
                    let (ev, targets) = feed.next();
                    (ev, targets.to_vec())
                })
                .collect();
            Some(seen)
        })
    }

    #[test]
    fn a_feed_yields_the_serial_stream() {
        let registry = TraceRegistry::paper_default();
        let gen = registry
            .get("specint.mcf.07")
            .expect("registry trace")
            .workload
            .generator();
        // Several blocks and a part of one, at each training degree.
        let n = 5 * BLOCK_EVENTS + 17;
        for degree in [0, 4, 8] {
            let (helper, inline) = (CorePool::with_cores(2), CorePool::with_cores(1));
            assert_eq!(fed(&helper, &gen, degree, n), Some(serial(&gen, degree, n)));
            assert_eq!(fed(&inline, &gen, degree, n), None, "no core is free");
            assert_eq!((helper.busy(), inline.busy()), (0, 0));
        }
    }

    #[test]
    fn a_thread_is_counted_once() {
        let (a, b) = (CorePool::with_cores(2), CorePool::with_cores(2));
        let outer = a.enter();
        let inner = a.enter();
        let other = b.enter();
        assert_eq!((a.busy(), b.busy()), (1, 1));
        drop(other);
        drop(inner);
        assert_eq!((a.busy(), b.busy()), (1, 0), "the outer guard still counts");
        drop(outer);
        assert_eq!(a.busy(), 0);
        let again = a.enter();
        assert_eq!(a.busy(), 1);
        drop(again);
    }

    #[test]
    fn a_helper_needs_a_free_core() {
        let pool = CorePool::with_cores(2);
        let _this = pool.enter();
        let helper = pool.try_enter(0).expect("one core is free");
        assert!(pool.try_enter(0).is_none(), "both cores are busy");
        assert_eq!(pool.busy(), 2);
        drop(helper);
        assert_eq!(pool.busy(), 1);
    }

    #[test]
    fn a_short_or_inline_run_takes_no_helper() {
        let pool = CorePool::new(2, 1000);
        let _this = pool.enter();
        assert!(pool.try_enter(999).is_none(), "the run is too short");
        let inline = inline_feed();
        let nested = inline_feed();
        assert!(
            pool.try_enter(1000).is_none(),
            "the thread asked for inline"
        );
        drop(nested);
        assert!(
            pool.try_enter(1000).is_none(),
            "the outer guard still holds"
        );
        drop(inline);
        // Another thread's setting is its own.
        let held = std::sync::Barrier::new(2);
        thread::scope(|s| {
            s.spawn(|| {
                let _inline = inline_feed();
                held.wait();
                held.wait();
            });
            held.wait();
            let helper = pool.try_enter(1000);
            held.wait();
            assert!(helper.is_some(), "long enough, and a core is free");
        });
        assert_eq!(pool.busy(), 1);
    }
}
