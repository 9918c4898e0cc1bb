//! The round gate: the one wait/wake primitive behind the BSP round barrier
//! and the SSP progress gate.
//!
//! A gate is an epoch counter that releasers [`advance`](RoundGate::advance)
//! and waiters watch through [`wait_until`](RoundGate::wait_until), plus an
//! [`abort`](RoundGate::abort) flag that ends every wait. A BSP round or an
//! SSP step is a few microseconds of work, so a waiter is usually released
//! within microseconds — far sooner than a futex sleep and wake-up cost (and
//! in a VM both the sleeper's halt and the waker's IPI are exits). The waiter
//! therefore climbs a ladder before it involves the kernel:
//!
//! 1. **spin** [`SPIN_ITERS`] times on the predicate — catches a release by a
//!    peer that is running on another core right now;
//! 2. **`yield_now`** for up to [`YIELD_FOR`] — when the peer (or a server
//!    thread the peer is waiting for) is *not* running because this thread
//!    holds its core, spinning only delays the release; yielding hands the
//!    core over and still avoids the sleep. This rung is what makes one
//!    ladder right for dedicated cores, oversubscribed workers, and workers
//!    sharing cores with transport server threads (a pure 50 µs spin measured
//!    8 % worse time-to-accuracy on the channel-transport workload);
//! 3. **park** on the condvar — a real straggler; stop burning the core.
//!
//! The ladder state belongs to one `wait_until` call, so a wait that is
//! re-checked many times (an SSP worker watching peers inch forward) parks
//! once its budget is spent instead of restarting the spin on every epoch.
//!
//! # Ordering
//!
//! *Data*: a releaser writes what the waiters' predicate reads, then
//! advances the epoch (a `SeqCst` read-modify-write, so at least Release);
//! `wait_until` loads the epoch (Acquire) *before* evaluating the predicate.
//! A waiter that observes the new epoch observes those writes; one that read
//! the old epoch and a stale predicate carries that old epoch into the park,
//! which refuses to sleep on an epoch that has since moved.
//!
//! *No lost wake-up*: the waiter does `sleepers += 1` then re-reads the
//! epoch; the releaser does `epoch += 1` then reads `sleepers`. All four are
//! `SeqCst`, so in their single total order either the releaser sees the
//! sleeper — and then takes the park mutex, which it can only get once the
//! waiter is inside `cv.wait`, before notifying — or the waiter sees the new
//! epoch and never sleeps (the store-buffer/Dekker pattern; with weaker
//! orderings both sides may read the old value). Abort always locks, then
//! notifies, so it cannot slip between a waiter's check and its sleep.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Rung 1: predicate re-reads (with a `spin_loop` hint) before yielding.
const SPIN_ITERS: u32 = 256;
/// Rung 2: how long a waiter keeps yielding its core before it parks.
const YIELD_FOR: Duration = Duration::from_micros(50);

/// Epoch counter + abort flag with a spin → yield → park waiter.
pub(crate) struct RoundGate {
    epoch: AtomicU64,
    abort: AtomicBool,
    /// Waiters inside (or committed to) `cv.wait`; releasers skip the
    /// mutex and the notify syscall while it is zero.
    sleepers: AtomicUsize,
    park: Mutex<()>,
    cv: Condvar,
    spin_iters: u32,
    yield_for: Duration,
}

impl RoundGate {
    pub(crate) fn new() -> Self {
        Self::with_ladder(SPIN_ITERS, YIELD_FOR)
    }

    /// A gate whose waiters park at once, so tests drive the
    /// sleepers/epoch handshake on every single wait.
    #[cfg(test)]
    fn parking_immediately() -> Self {
        Self::with_ladder(0, Duration::ZERO)
    }

    fn with_ladder(spin_iters: u32, yield_for: Duration) -> Self {
        RoundGate {
            epoch: AtomicU64::new(0),
            abort: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            park: Mutex::new(()),
            cv: Condvar::new(),
            spin_iters,
            yield_for,
        }
    }

    /// Releases so far. Acquire: pairs with the Release half of
    /// [`advance`](Self::advance), see the module doc.
    #[inline]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes everything written before the call and wakes the waiters
    /// so they re-evaluate their predicates.
    #[inline]
    pub(crate) fn advance(&self) {
        // SeqCst on both: the releaser half of the Dekker pair.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.notify();
        }
    }

    /// Ends every current and future wait (divergence, a dead worker).
    pub(crate) fn abort(&self) {
        // Release: pairs with the Acquire in `is_aborted`; parked waiters
        // re-read it under the mutex `notify` takes.
        self.abort.store(true, Ordering::Release);
        self.notify();
    }

    #[inline]
    pub(crate) fn is_aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    #[cold]
    fn notify(&self) {
        let _parked = self.park.lock();
        self.cv.notify_all();
    }

    /// Blocks until `ready()` holds or the gate is aborted (callers check
    /// [`is_aborted`](Self::is_aborted) afterwards). `ready` must read only
    /// state that releasers write *before* calling `advance`. Returns
    /// whether the wait fell through the ladder to the condvar.
    pub(crate) fn wait_until(&self, mut ready: impl FnMut() -> bool) -> bool {
        let mut spins = 0;
        let mut yielding_since: Option<Instant> = None;
        let mut parked = false;
        loop {
            let seen = self.epoch();
            if ready() || self.is_aborted() {
                return parked;
            }
            if spins < self.spin_iters {
                spins += 1;
                std::hint::spin_loop();
            } else if yielding_since.get_or_insert_with(Instant::now).elapsed() < self.yield_for {
                std::thread::yield_now();
            } else {
                parked = true;
                self.park_while_epoch_is(seen);
            }
        }
    }

    #[cold]
    fn park_while_epoch_is(&self, seen: u64) {
        let mut guard = self.park.lock();
        // SeqCst here and on the epoch re-read: the waiter half of the
        // Dekker pair — announce first, then look again.
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while self.epoch.load(Ordering::SeqCst) == seen && !self.is_aborted() {
            self.cv.wait(&mut guard);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `threads` threads run `epochs` barrier rounds over `gate`: the last
    /// arriver of a round advances, the rest wait for the epoch to pass the
    /// round. Nobody can arrive at round r + 1 before everyone left round r,
    /// so each thread must find the epoch at exactly r + 1 after its wait —
    /// i.e. every thread observes every epoch, and a lost wake-up hangs.
    fn run_rounds(gate: &RoundGate, threads: usize, epochs: u64) -> u64 {
        let arrived = AtomicUsize::new(0);
        let worker = || {
            let mut parks = 0;
            for r in 0..epochs {
                // AcqRel: the last arriver observes the others.
                if arrived.fetch_add(1, Ordering::AcqRel) + 1 == threads {
                    // Relaxed: published by `advance`.
                    arrived.store(0, Ordering::Relaxed);
                    gate.advance();
                }
                parks += u64::from(gate.wait_until(|| gate.epoch() > r));
                assert_eq!(gate.epoch(), r + 1);
            }
            parks
        };
        let parks = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(gate.epoch(), epochs);
        assert_eq!(gate.sleepers.load(Ordering::SeqCst), 0);
        parks
    }

    #[test]
    fn every_thread_observes_every_epoch_with_the_production_ladder() {
        for threads in [2, 3, 8] {
            run_rounds(&RoundGate::new(), threads, 100_000);
        }
    }

    #[test]
    fn every_thread_observes_every_epoch_when_every_wait_parks() {
        for threads in [2, 3, 8] {
            let parks = run_rounds(&RoundGate::parking_immediately(), threads, 100_000);
            // Only a waiter that found the round already released skips the
            // condvar, so the Dekker handshake ran on most rounds.
            assert!(parks > 50_000, "{threads} threads parked {parks} times");
        }
    }

    #[test]
    fn abort_wakes_a_parked_waiter() {
        let gate = RoundGate::parking_immediately();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| gate.wait_until(|| false));
            // The waiter announces itself under the park mutex, so once it
            // is counted the abort below cannot precede its sleep.
            while gate.sleepers.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
            gate.abort();
            assert!(waiter.join().unwrap(), "the waiter was parked");
        });
        assert!(gate.is_aborted());
    }

    #[test]
    fn abort_wakes_a_spinning_waiter() {
        // A ladder that never reaches the condvar.
        let gate = RoundGate::with_ladder(u32::MAX, Duration::MAX);
        let spinning = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                gate.wait_until(|| {
                    spinning.store(true, Ordering::Release);
                    false
                })
            });
            while !spinning.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            gate.abort();
            assert!(!waiter.join().unwrap(), "the waiter never parked");
        });
    }

    #[test]
    fn a_wait_that_is_already_ready_returns_without_parking() {
        assert!(!RoundGate::parking_immediately().wait_until(|| true));
    }
}
