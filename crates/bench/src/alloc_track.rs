//! A tracking global allocator for the benchmark harness.
//!
//! Wraps the system allocator so a measured [`Region`] can report the peak
//! heap growth of the work it measures. The offline build environment has
//! no allocation profiler crates, so the counter lives here; every target
//! that links `disc-bench` (the experiment runner, the Criterion benches,
//! the crate's tests) allocates through it.
//!
//! Accounting is per measurement and per thread, never process-wide. A
//! region counts the allocations of its **member threads** only: the thread
//! that opened it, plus every thread whose first allocation falls inside
//! [`Region::measure`] — the scoped workers a parallel miner spawns for the
//! measured run. Threads that were already running (the test harness,
//! concurrently running tests) are never members, so they cannot move a
//! measurement. Each member's frees are subtracted only up to what that
//! member allocated inside the region, so freeing memory from before the
//! region (or from another thread) can never pull the count below what the
//! members still hold. Regions are serialized behind one crate-wide lock.
//!
//! The counters use relaxed ordering: they are statistics, not
//! synchronization, and a few bytes of cross-thread skew in the peak is
//! irrelevant next to the megabytes the miners allocate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The open region's epoch, or 0 when none is open.
static OPEN: AtomicU64 = AtomicU64::new(0);
/// The epoch new threads join on their first allocation, or 0 outside
/// [`Region::measure`].
static ADMITTING: AtomicU64 = AtomicU64::new(0);
/// The last epoch handed out.
static EPOCHS: AtomicU64 = AtomicU64::new(0);
/// Bytes the open region's members allocated inside it and still hold.
static LIVE: AtomicI64 = AtomicI64::new(0);
/// High-water mark of [`LIVE`] since the region opened or last reset.
static PEAK: AtomicI64 = AtomicI64::new(0);

/// [`MEMBER`] of a thread whose first allocation fell outside every region.
const OUTSIDE: u64 = u64::MAX;

thread_local! {
    /// The epoch of the region this thread belongs to; 0 until the thread's
    /// first allocation.
    static MEMBER: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated inside its region and still holds.
    static OWN: Cell<i64> = const { Cell::new(0) };
}

/// Runs `f` on the calling thread's own count when the thread belongs to
/// the open region. A thread's first allocation fixes which region, if
/// any, it belongs to. The thread-locals are const-initialized and
/// drop-free, so the allocator may touch them at any point of a thread's
/// life.
fn if_member(f: impl FnOnce(&Cell<i64>)) {
    let open = OPEN.load(Ordering::Relaxed);
    let _ = MEMBER.try_with(|member| {
        if member.get() == 0 {
            let admitting = ADMITTING.load(Ordering::Relaxed);
            member.set(if admitting == 0 { OUTSIDE } else { admitting });
        }
        if open != 0 && member.get() == open {
            let _ = OWN.try_with(f);
        }
    });
}

/// The system allocator instrumented with the region counters.
pub struct TrackingAllocator;

#[global_allocator]
static GLOBAL: TrackingAllocator = TrackingAllocator;

fn on_alloc(bytes: usize) {
    if_member(|own| {
        own.set(own.get() + bytes as i64);
        let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Ordering::Relaxed);
    });
}

fn on_dealloc(bytes: usize) {
    if_member(|own| {
        let freed = (bytes as i64).min(own.get());
        own.set(own.get() - freed);
        LIVE.fetch_sub(freed, Ordering::Relaxed);
    });
}

// SAFETY: delegates every operation to `System` unchanged; the wrapper only
// updates counters and never touches the returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            if new_size >= layout.size() {
                on_alloc(new_size - layout.size());
            } else {
                on_dealloc(layout.size() - new_size);
            }
        }
        new_ptr
    }
}

/// Serializes measured regions; see [`Region`].
static MEASURE: Mutex<()> = Mutex::new(());

/// One measured region: open from [`Region::begin`] until dropped, holding
/// the crate-wide measurement lock throughout.
pub struct Region {
    _lock: MutexGuard<'static, ()>,
    epoch: u64,
    /// [`LIVE`] when the region opened or last reset.
    live_at_start: i64,
}

impl Region {
    /// Waits for any other region to close, then opens one with the
    /// calling thread as its only member. A region that panicked (a failed
    /// assertion inside a measurement) does not poison later ones.
    pub fn begin() -> Region {
        let lock = MEASURE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let epoch = EPOCHS.fetch_add(1, Ordering::Relaxed) + 1;
        MEMBER.with(|member| member.set(epoch));
        OWN.with(|own| own.set(0));
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        OPEN.store(epoch, Ordering::Relaxed);
        Region { _lock: lock, epoch, live_at_start: 0 }
    }

    /// Runs the measured work: threads whose first allocation happens
    /// during `f` — the workers it spawns — join the region.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> T {
        ADMITTING.store(self.epoch, Ordering::Relaxed);
        let out = f();
        ADMITTING.store(0, Ordering::Relaxed);
        out
    }

    /// Restarts the peak: it drops to the bytes the members hold now.
    pub fn reset(&mut self) {
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        self.live_at_start = live;
    }

    /// The high-water mark of the bytes the members held, counted from zero
    /// when the region opened.
    pub fn peak_bytes(&self) -> i64 {
        PEAK.load(Ordering::Relaxed)
    }

    /// The region's heap growth: the high-water mark minus the bytes the
    /// members held at its (re)start.
    pub fn peak_growth(&self) -> usize {
        (self.peak_bytes() - self.live_at_start).max(0) as usize
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        ADMITTING.store(0, Ordering::Relaxed);
        OPEN.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_large_allocation() {
        let mut region = Region::begin();
        let before = region.peak_bytes();
        let buf = vec![0u8; 1 << 20];
        let during = region.peak_bytes();
        drop(buf);
        assert!(
            during >= before + (1 << 20),
            "peak should rise by at least the 1 MiB allocation: before={before} during={during}"
        );
        // After the drop the peak stays at the high-water mark…
        assert!(region.peak_bytes() >= during);
        assert!(region.peak_growth() >= 1 << 20);
        // …until a reset brings it back down to the live count.
        region.reset();
        assert!(region.peak_bytes() < during);
    }

    #[test]
    fn threads_started_by_the_measured_work_count_and_older_threads_do_not() {
        use std::sync::mpsc::channel;
        // A thread already running (and allocating) before the region opens.
        let (ready, started) = channel::<()>();
        let (go, wait) = channel::<()>();
        let (held, check) = channel::<()>();
        let (done, finish) = channel::<()>();
        let outsider = std::thread::spawn(move || {
            drop(std::hint::black_box(vec![0u8; 1]));
            ready.send(()).unwrap();
            wait.recv().unwrap();
            let buf = std::hint::black_box(vec![0u8; 4 << 20]);
            held.send(()).unwrap();
            finish.recv().unwrap();
            drop(buf);
        });
        started.recv().unwrap();

        let region = Region::begin();
        go.send(()).unwrap();
        check.recv().unwrap();
        // A worker started by the measured work, like a parallel miner's.
        region.measure(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| drop(std::hint::black_box(vec![0u8; 1 << 20])));
            })
        });
        let growth = region.peak_growth();
        drop(region);
        done.send(()).unwrap();
        outsider.join().unwrap();
        assert!(growth >= 1 << 20, "the worker's 1 MiB must count: {growth}");
        assert!(growth < 4 << 20, "the outsider's 4 MiB must not count: {growth}");
    }
}
