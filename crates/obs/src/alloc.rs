//! Allocation tracking: a `#[global_allocator]` wrapper over
//! [`System`] that attributes every allocation and deallocation to the
//! engine phase running on the current thread.
//!
//! # Design
//!
//! The allocator is installed unconditionally (it is the process'
//! global allocator), but **tracking is off by default**: the only cost
//! on the untracked path is a single relaxed load of [`ENABLED`] per
//! allocator call — no other atomics are touched, preserving the
//! crate-wide "disabled observability is free" guarantee. Tracking
//! turns on when a [`Recorder`](crate::Recorder) enables alloc
//! profiling (refcounted, so several recorders can overlap) and off
//! again when the last profiled registry drops.
//!
//! Attribution is a thread-local phase tag ([`AllocPhase`]), set by the
//! RAII [`PhaseGuard`] that [`Recorder::alloc_phase`] and tagged
//! [`Span`](crate::Span)s hold. The guard restores the previous tag on
//! drop — including drops during unwinding, so a panic inside a phase
//! cannot leak its tag into unrelated code. Allocations on threads
//! that never entered a phase (or during thread teardown, when the
//! thread-local is gone) land in [`AllocPhase::Untagged`].
//!
//! Per phase the allocator maintains: allocation and free counts,
//! bytes allocated and freed, live bytes (allocated − freed), peak
//! live bytes, and a log₂ size-class histogram of allocation sizes
//! (the same bucketing as [`crate::Histogram`]). Live bytes are signed:
//! a block allocated in one phase and freed in another debits the
//! freeing phase, so an individual phase can legitimately go negative
//! while the sum over all phases stays exact.
//!
//! Counters are global statics, not per-recorder: the allocator cannot
//! know which recorder "owns" an allocation. Recorders consume the
//! stats as *deltas* ([`Recorder::sample_alloc`]) under a per-registry
//! baseline, which keeps concurrent engines sharing a recorder exact
//! and keeps unrelated test threads from corrupting anything beyond
//! the untagged bucket.

// `GlobalAlloc` is an unsafe trait; this module is the one place in
// the crate where that is irreducible. Every unsafe block only
// forwards to `System`'s own implementation.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::metrics::{bucket_index, BUCKETS};

/// The engine phase an allocation is attributed to.
///
/// Discriminants index the global stats table; [`AllocPhase::Untagged`]
/// (0) is the default for threads outside any phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AllocPhase {
    /// No phase tag on the current thread.
    Untagged = 0,
    /// Neighbour recounting (Eq. 5).
    Demand = 1,
    /// Mechanism reward computation.
    Pricing = 2,
    /// Per-user task-selection solves.
    Selection = 3,
    /// Submission and payment settlement.
    Settlement = 4,
    /// Inter-round user motion.
    Movement = 5,
    /// Engine state serialisation.
    Checkpoint = 6,
    /// Decision-journal and span-trace recording.
    Trace = 7,
    /// The straggler-upload retry queue.
    RetryQueue = 8,
}

/// Number of phases (the size of the global stats table).
pub const ALLOC_PHASES: usize = 9;

impl AllocPhase {
    /// Every phase, in discriminant order.
    pub const ALL: [AllocPhase; ALLOC_PHASES] = [
        AllocPhase::Untagged,
        AllocPhase::Demand,
        AllocPhase::Pricing,
        AllocPhase::Selection,
        AllocPhase::Settlement,
        AllocPhase::Movement,
        AllocPhase::Checkpoint,
        AllocPhase::Trace,
        AllocPhase::RetryQueue,
    ];

    /// The `phase` label value used on every exported metric family.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AllocPhase::Untagged => "untagged",
            AllocPhase::Demand => "demand",
            AllocPhase::Pricing => "pricing",
            AllocPhase::Selection => "selection",
            AllocPhase::Settlement => "settlement",
            AllocPhase::Movement => "movement",
            AllocPhase::Checkpoint => "checkpoint",
            AllocPhase::Trace => "trace",
            AllocPhase::RetryQueue => "retry_queue",
        }
    }

    /// Maps a [`Recorder::scoped`](crate::Recorder::scoped) span name to
    /// the phase it times, so tagged spans attribute allocations without
    /// call-site changes. Names outside the phase vocabulary (e.g. the
    /// whole-`round` span) map to `None` — they would mask the inner
    /// phases.
    #[must_use]
    pub fn from_span_name(name: &str) -> Option<AllocPhase> {
        match name {
            "demand" => Some(AllocPhase::Demand),
            "pricing" => Some(AllocPhase::Pricing),
            "selection" => Some(AllocPhase::Selection),
            "settlement" => Some(AllocPhase::Settlement),
            "movement" => Some(AllocPhase::Movement),
            "checkpoint" => Some(AllocPhase::Checkpoint),
            "trace" => Some(AllocPhase::Trace),
            "retry_queue" => Some(AllocPhase::RetryQueue),
            _ => None,
        }
    }
}

/// One phase's slot in the global stats table.
struct PhaseCells {
    allocs: AtomicU64,
    frees: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_freed: AtomicU64,
    live: AtomicI64,
    peak_live: AtomicI64,
    size_classes: [AtomicU64; BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_U64: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const PHASE_CELLS_ZERO: PhaseCells = PhaseCells {
    allocs: AtomicU64::new(0),
    frees: AtomicU64::new(0),
    bytes_allocated: AtomicU64::new(0),
    bytes_freed: AtomicU64::new(0),
    live: AtomicI64::new(0),
    peak_live: AtomicI64::new(0),
    size_classes: [ZERO_U64; BUCKETS],
};

static STATS: [PhaseCells; ALLOC_PHASES] = [PHASE_CELLS_ZERO; ALLOC_PHASES];

/// The single flag the untracked fast path reads (relaxed). Driven by
/// the [`ENABLE_COUNT`] refcount.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ENABLE_COUNT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The current phase tag. `const`-initialised `Cell<u8>` — no lazy
    /// initialisation and no destructor, so reading it from inside the
    /// allocator can never itself allocate or recurse.
    static TAG: Cell<u8> = const { Cell::new(0) };
}

/// Turns tracking on (refcounted). Paired with [`disable_tracking`].
pub(crate) fn enable_tracking() {
    if ENABLE_COUNT.fetch_add(1, Ordering::SeqCst) == 0 {
        ENABLED.store(true, Ordering::SeqCst);
    }
}

/// Drops one tracking reference; the allocator fast path goes back to
/// pass-through when the last reference is gone.
pub(crate) fn disable_tracking() {
    if ENABLE_COUNT.fetch_sub(1, Ordering::SeqCst) == 1 {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// Whether any recorder currently has alloc profiling on.
#[must_use]
pub fn tracking_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

#[allow(clippy::cast_possible_wrap)]
fn note_alloc(size: usize) {
    let cells = &STATS[current_tag()];
    let bytes = size as u64;
    cells.allocs.fetch_add(1, Ordering::Relaxed);
    cells.bytes_allocated.fetch_add(bytes, Ordering::Relaxed);
    let live = cells.live.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    cells.peak_live.fetch_max(live, Ordering::Relaxed);
    cells.size_classes[bucket_index(bytes)].fetch_add(1, Ordering::Relaxed);
}

#[allow(clippy::cast_possible_wrap)]
fn note_free(size: usize) {
    let cells = &STATS[current_tag()];
    cells.frees.fetch_add(1, Ordering::Relaxed);
    cells.bytes_freed.fetch_add(size as u64, Ordering::Relaxed);
    cells.live.fetch_sub(size as i64, Ordering::Relaxed);
}

fn current_tag() -> usize {
    // `try_with` so allocations during thread teardown (after the TLS
    // slot is destroyed) fall back to the untagged bucket instead of
    // panicking inside the allocator.
    TAG.try_with(Cell::get).unwrap_or(0) as usize
}

/// RAII phase tag: tags the current thread with `phase` until dropped,
/// then restores the previous tag. Drop runs during unwinding too, so
/// tagging is panic-safe by construction.
#[derive(Debug)]
pub struct PhaseGuard {
    prev: u8,
}

impl PhaseGuard {
    /// Tags the current thread with `phase`.
    #[must_use]
    pub fn enter(phase: AllocPhase) -> PhaseGuard {
        let prev = TAG
            .try_with(|tag| {
                let prev = tag.get();
                tag.set(phase as u8);
                prev
            })
            .unwrap_or(0);
        PhaseGuard { prev }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let _ = TAG.try_with(|tag| tag.set(self.prev));
    }
}

/// A point-in-time copy of one phase's cumulative allocator stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Allocations attributed to the phase.
    pub allocs: u64,
    /// Deallocations attributed to the phase.
    pub frees: u64,
    /// Bytes allocated.
    pub bytes_allocated: u64,
    /// Bytes freed.
    pub bytes_freed: u64,
    /// Bytes currently live (allocated − freed; may be negative for a
    /// phase that frees blocks another phase allocated).
    pub live_bytes: i64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: i64,
    /// Allocation counts per log₂ size class (see
    /// [`bucket_index`](crate::bucket_index)).
    pub size_classes: [u64; BUCKETS],
}

impl Default for PhaseTotals {
    fn default() -> Self {
        PhaseTotals {
            allocs: 0,
            frees: 0,
            bytes_allocated: 0,
            bytes_freed: 0,
            live_bytes: 0,
            peak_live_bytes: 0,
            size_classes: [0; BUCKETS],
        }
    }
}

/// The cumulative stats of `phase` since process start (or rather,
/// since tracking was first enabled — nothing is counted while off).
#[must_use]
pub fn phase_totals(phase: AllocPhase) -> PhaseTotals {
    let cells = &STATS[phase as usize];
    PhaseTotals {
        allocs: cells.allocs.load(Ordering::Relaxed),
        frees: cells.frees.load(Ordering::Relaxed),
        bytes_allocated: cells.bytes_allocated.load(Ordering::Relaxed),
        bytes_freed: cells.bytes_freed.load(Ordering::Relaxed),
        live_bytes: cells.live.load(Ordering::Relaxed),
        peak_live_bytes: cells.peak_live.load(Ordering::Relaxed),
        size_classes: std::array::from_fn(|i| cells.size_classes[i].load(Ordering::Relaxed)),
    }
}

/// Every phase's cumulative stats, indexed by discriminant.
#[must_use]
pub fn snapshot_phases() -> [PhaseTotals; ALLOC_PHASES] {
    std::array::from_fn(|i| phase_totals(AllocPhase::ALL[i]))
}

/// Resets every phase's peak-live high-water mark to its current live
/// value, so a measurement window (e.g. one bench arm) reports its own
/// peak rather than the process-lifetime maximum.
pub fn reset_peaks() {
    for cells in &STATS {
        cells.peak_live.store(cells.live.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// `(VmRSS, VmHWM)` of the current process in bytes, from
/// `/proc/self/status`. `None` where the proc filesystem is absent
/// (non-Linux) or unreadable — callers simply omit the RSS gauges.
#[must_use]
pub fn process_rss() -> Option<(u64, u64)> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let field = |name: &str| -> Option<u64> {
            let line = status.lines().find(|l| l.starts_with(name))?;
            let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb * 1024)
        };
        Some((field("VmRSS:")?, field("VmHWM:")?))
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Serialises tests and benches that assert on the *global* allocator
/// stats: hold the guard for the whole measured section so a
/// concurrently profiling test cannot interleave its own enable window.
/// (Delta-based assertions against phase buckets only the holder tags
/// are then exact.)
pub fn exclusive_profile() -> MutexGuard<'static, ()> {
    static PROFILE_LOCK: Mutex<()> = Mutex::new(());
    PROFILE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-global tracking allocator: forwards every call to
/// [`System`] and, when tracking is enabled, attributes the call to the
/// current thread's phase tag.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrackingAllocator;

// SAFETY: every method forwards the exact arguments to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping around the
// forwarded call never allocates (atomics and a const-init
// thread-local only) and never touches the returned memory.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if ENABLED.load(Ordering::Relaxed) && !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if ENABLED.load(Ordering::Relaxed) && !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        if ENABLED.load(Ordering::Relaxed) {
            note_free(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if ENABLED.load(Ordering::Relaxed) && !new_ptr.is_null() {
            // Accounted as free(old) + alloc(new): counts stay
            // symmetric and live bytes move by the exact size change.
            note_free(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static GLOBAL_ALLOCATOR: TrackingAllocator = TrackingAllocator;

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracks deltas of one phase across a closure, with tracking
    /// enabled and the profile lock held.
    fn deltas_of<R>(phase: AllocPhase, f: impl FnOnce() -> R) -> (PhaseTotals, R) {
        let _guard = exclusive_profile();
        enable_tracking();
        let before = phase_totals(phase);
        let out = f();
        let after = phase_totals(phase);
        disable_tracking();
        let delta = PhaseTotals {
            allocs: after.allocs - before.allocs,
            frees: after.frees - before.frees,
            bytes_allocated: after.bytes_allocated - before.bytes_allocated,
            bytes_freed: after.bytes_freed - before.bytes_freed,
            live_bytes: after.live_bytes - before.live_bytes,
            peak_live_bytes: after.peak_live_bytes,
            size_classes: std::array::from_fn(|i| after.size_classes[i] - before.size_classes[i]),
        };
        (delta, out)
    }

    #[test]
    fn tagged_allocations_land_in_their_phase() {
        let (delta, ()) = deltas_of(AllocPhase::Checkpoint, || {
            let _guard = PhaseGuard::enter(AllocPhase::Checkpoint);
            let v: Vec<u8> = Vec::with_capacity(4096);
            drop(v);
        });
        assert!(delta.allocs >= 1, "allocation not attributed: {delta:?}");
        assert!(delta.frees >= 1, "free not attributed: {delta:?}");
        assert!(delta.bytes_allocated >= 4096);
        assert!(delta.bytes_freed >= 4096);
        assert_eq!(delta.live_bytes, 0, "balanced alloc/free must cancel");
        let class = bucket_index(4096);
        assert!(delta.size_classes[class] >= 1, "size class {class} missed: {delta:?}");
    }

    #[test]
    fn guard_restores_previous_tag_and_is_panic_safe() {
        let _lock = exclusive_profile();
        enable_tracking();
        let outer = PhaseGuard::enter(AllocPhase::Movement);
        let before = phase_totals(AllocPhase::Movement);
        let caught = std::panic::catch_unwind(|| {
            let _inner = PhaseGuard::enter(AllocPhase::Trace);
            panic!("unwind through a tagged region");
        });
        assert!(caught.is_err());
        // The inner guard's drop during unwinding restored the movement
        // tag: a fresh allocation must land in movement, not trace.
        let v: Vec<u8> = Vec::with_capacity(1 << 14);
        let after = phase_totals(AllocPhase::Movement);
        assert!(
            after.bytes_allocated >= before.bytes_allocated + (1 << 14),
            "tag not restored after unwind"
        );
        drop(v);
        drop(outer);
        disable_tracking();
    }

    #[test]
    fn untracked_path_counts_nothing() {
        let _lock = exclusive_profile();
        assert!(!tracking_enabled());
        let before = phase_totals(AllocPhase::Pricing);
        {
            let _tag = PhaseGuard::enter(AllocPhase::Pricing);
            let v: Vec<u64> = Vec::with_capacity(1000);
            drop(v);
        }
        let after = phase_totals(AllocPhase::Pricing);
        assert_eq!(before, after, "tracking-off allocations must not be counted");
    }

    #[test]
    fn reset_peaks_rebaselines_to_live() {
        let (_, ()) = deltas_of(AllocPhase::Selection, || {
            let _tag = PhaseGuard::enter(AllocPhase::Selection);
            let v: Vec<u8> = Vec::with_capacity(1 << 16);
            drop(v);
        });
        reset_peaks();
        let t = phase_totals(AllocPhase::Selection);
        assert_eq!(t.peak_live_bytes, t.live_bytes, "peak must rebaseline to live");
    }

    #[test]
    fn process_rss_is_present_on_linux() {
        match process_rss() {
            Some((rss, hwm)) => {
                assert!(rss > 0, "VmRSS must be positive");
                assert!(hwm >= rss, "VmHWM {hwm} below VmRSS {rss}");
            }
            None => {
                #[cfg(target_os = "linux")]
                panic!("/proc/self/status must parse on Linux");
            }
        }
    }

    #[test]
    fn span_name_mapping_covers_every_phase_label() {
        for phase in AllocPhase::ALL {
            if phase == AllocPhase::Untagged {
                continue;
            }
            assert_eq!(AllocPhase::from_span_name(phase.label()), Some(phase), "{phase:?}");
        }
        assert_eq!(AllocPhase::from_span_name("round"), None);
        assert_eq!(AllocPhase::from_span_name("unknown"), None);
    }
}
