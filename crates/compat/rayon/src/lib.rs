//! Offline stand-in for `rayon`.
//!
//! The build environment has no network access, so this crate implements the
//! subset of rayon's API the workspace uses:
//!
//! * [`prelude`] — `into_par_iter()` on `usize` ranges, `par_iter()` /
//!   `par_chunks_mut()` on slices, with `map` / `enumerate` / `for_each` /
//!   `collect` / `reduce` terminals;
//! * [`join`] — two-way fork/join;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] — thread-count control
//!   (implemented as a per-thread override of the one shared pool);
//! * [`current_num_threads`].
//!
//! Execution model: one lazily started, persistent pool. A parallel terminal
//! over `len` items runs on `min(current_num_threads(), len)` participants:
//! the calling thread plus parked pool workers it wakes. Every participant
//! claims the next item index from one atomic counter, one item at a time,
//! so a slow item holds back no item behind it. Items are not uniform in
//! this workspace: a chunked-prefill fork runs (chunk, kv head) items whose
//! cost grows with the chunk's position, and one contiguous span per
//! thread kept workers busy for only 0.76–0.77 of the fork's wall time on
//! a 2-vCPU host (0.96 with per-item claiming). Each output lands in its
//! item's slot, so `collect` returns outputs in item order and `reduce`
//! folds them in item order: every result is independent of the thread
//! count and of which participant ran which item. Participants are
//! flagged, so *nested* parallel terminals run inline instead of
//! oversubscribing.
//!
//! The pool grows so that every open seat in a terminal has a free worker
//! to fill it, so an `install(n)` override gets `n` participants even when
//! `n` exceeds the host's cores or other threads hold workers in their own
//! terminals. Workers are never retired.

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

thread_local! {
    /// Set while the thread works as a participant in a parallel terminal:
    /// nested parallel terminals run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// The participant's seat within its parallel terminal (see
    /// [`current_thread_index`]).
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Per-thread override installed by [`ThreadPool::install`] (0 = none).
    static NUM_THREADS_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The calling thread's index within the pool, or `None` when called from
/// outside any parallel terminal — rayon's API for "am I already on a
/// worker?". Fork policies use this to route nested parallel calls (which
/// the shim runs inline anyway) straight down their serial path, skipping
/// the parallel entry's item-list materialization.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|i| i.get())
}

/// Whether the calling thread has an active [`ThreadPool::install`]
/// thread-count override.
///
/// **Shim-only API** (upstream rayon has no equivalent — deliberately):
/// `fa_tensor::par`'s fork policy uses it in a `debug_assert!` to encode
/// the shim's execution model — `install` runs its closure on the
/// *calling* thread, and a participant never carries an override (the
/// caller drops its own while it works on a terminal's items), so "worker
/// with an override" is impossible here. Upstream rayon runs `install`
/// closures ON a pool worker, which is exactly the configuration whose
/// silent-serialization hazard the SWAP NOTE in `fa_tensor::par`
/// documents; swapping upstream in without following that note fails at
/// compile time on this symbol instead of silently serializing every
/// `pool.install(..)` call site.
pub fn install_override_active() -> bool {
    NUM_THREADS_OVERRIDE.with(|n| n.get()) > 0
}

/// The host's parallelism, read once: `available_parallelism` reads cgroup
/// files on every call.
fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The number of worker threads a parallel terminal may use.
pub fn current_num_threads() -> usize {
    match NUM_THREADS_OVERRIDE.with(|n| n.get()) {
        0 => host_threads(),
        overridden => overridden,
    }
}

/// Participants a terminal over `len` items runs on (1 = inline).
fn effective_threads(len: usize) -> usize {
    if IN_POOL.with(|f| f.get()) {
        1
    } else {
        current_num_threads().min(len).max(1)
    }
}

/// A thread's pool flags while it works as a participant, restored on drop.
struct Participant {
    in_pool: bool,
    index: Option<usize>,
    num_threads: usize,
}

impl Participant {
    /// Flags the calling thread as participant `seat` and drops its
    /// `install` override, so items see the same thread state on the
    /// caller as on a worker.
    fn enter(seat: usize) -> Self {
        Self {
            in_pool: IN_POOL.with(|f| f.replace(true)),
            index: WORKER_INDEX.with(|i| i.replace(Some(seat))),
            num_threads: NUM_THREADS_OVERRIDE.with(|n| n.replace(0)),
        }
    }
}

impl Drop for Participant {
    fn drop(&mut self) {
        IN_POOL.with(|f| f.set(self.in_pool));
        WORKER_INDEX.with(|i| i.set(self.index));
        NUM_THREADS_OVERRIDE.with(|n| n.set(self.num_threads));
    }
}

/// One parallel terminal: `run(i)` for every `i < len`, claimed one index
/// at a time by whichever participant asks next.
struct Job<'a> {
    run: &'a (dyn Fn(usize) + Sync),
    len: usize,
    next: AtomicUsize,
    /// The first panic an item raised; the caller resumes it.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    /// Claims and runs items until none are left. A panicking item stops
    /// further claims; its payload is kept for the caller.
    fn participate(&self) {
        loop {
            // Relaxed: the counter only hands out indices. The items' inputs
            // and outputs are published through the pool mutex, which the
            // caller releases after filling them and reacquires before
            // reading them back.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.run)(i))) {
                self.next.fetch_max(self.len, Ordering::Relaxed);
                let mut first = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                first.get_or_insert(payload);
            }
        }
    }
}

/// A [`Job`] on its caller's stack, as the pool's queue holds it.
#[derive(Clone, Copy, PartialEq)]
struct JobRef(*const Job<'static>);

// SAFETY: `Job` is `Sync` (a `Sync` closure, an atomic and a mutex), and a
// `JobRef` is dereferenced only by a helper attached to the job, whose
// caller does not return (and so keeps the job alive) until every helper
// has detached.
unsafe impl Send for JobRef {}

/// A terminal still listed in the pool's queue.
struct Open {
    job: JobRef,
    /// Helper seats not yet taken.
    seats: usize,
    /// The seat index the next helper gets (the caller is seat 0).
    next_seat: usize,
    /// Helpers currently working on the job.
    attached: usize,
}

#[derive(Default)]
struct State {
    workers: usize,
    /// Workers attached to some job; the rest are free.
    attached: usize,
    /// Sum of `Open::seats`; never more than the free workers.
    open_seats: usize,
    open: Vec<Open>,
}

impl State {
    fn entry(&mut self, job: JobRef) -> &mut Open {
        self.open
            .iter_mut()
            .find(|o| o.job == job)
            .expect("a job stays queued until its helpers detach")
    }
}

/// The persistent pool. No item runs while its mutex is held.
struct Pool {
    state: Mutex<State>,
    /// Parked workers wait here for open seats.
    wake: Condvar,
    /// Callers wait here for their helpers to detach.
    left: Condvar,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State::default()),
        wake: Condvar::new(),
        left: Condvar::new(),
    })
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, State> {
        // Only counter updates and queue edits run under the lock, and none
        // of them can panic halfway, so a poisoned state is still valid.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Runs `run(i)` exactly once for every `i < len`, on the calling
    /// thread plus up to `participants - 1` pool workers, and returns
    /// once every item has finished. Resumes the first item panic.
    fn run(&'static self, participants: usize, len: usize, run: &(dyn Fn(usize) + Sync)) {
        let job = Job {
            run,
            len,
            next: AtomicUsize::new(0),
            panic: Mutex::new(None),
        };
        let job_ref = JobRef((&job as *const Job<'_>).cast::<Job<'static>>());
        let helpers = participants - 1;
        {
            let mut state = self.lock();
            state.open.push(Open {
                job: job_ref,
                seats: helpers,
                next_seat: 1,
                attached: 0,
            });
            state.open_seats += helpers;
            while state.workers - state.attached < state.open_seats {
                let spawned = std::thread::Builder::new()
                    .name("rayon-shim-worker".into())
                    .spawn(move || self.work());
                if spawned.is_err() {
                    // The caller still runs every item nobody else claims.
                    break;
                }
                state.workers += 1;
            }
        }
        for _ in 0..helpers {
            self.wake.notify_one();
        }

        let seat = Participant::enter(0);
        job.participate();
        drop(seat);

        let mut state = self.lock();
        let entry = state.entry(job_ref);
        let unfilled = std::mem::take(&mut entry.seats);
        state.open_seats -= unfilled;
        while state.entry(job_ref).attached > 0 {
            state = self.left.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.open.retain(|o| o.job != job_ref);
        drop(state);

        let panic = job.panic.into_inner().unwrap_or_else(|e| e.into_inner());
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// A worker's loop: take a seat in an open terminal, work its items,
    /// detach, and park while no seat is open.
    fn work(&self) {
        IN_POOL.with(|f| f.set(true));
        let mut state = self.lock();
        loop {
            let Some(open) = state.open.iter_mut().find(|o| o.seats > 0) else {
                state = self.wake.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            open.seats -= 1;
            open.attached += 1;
            let seat = open.next_seat;
            open.next_seat += 1;
            let job_ref = open.job;
            state.open_seats -= 1;
            state.attached += 1;
            drop(state);

            WORKER_INDEX.with(|i| i.set(Some(seat)));
            // SAFETY: this worker is attached to the job, so the job is
            // alive: `run` returns only once `attached` is back to 0, and
            // nothing between its push and that wait can unwind, since
            // `participate` catches item panics.
            unsafe { &*job_ref.0 }.participate();

            state = self.lock();
            state.attached -= 1;
            let entry = state.entry(job_ref);
            entry.attached -= 1;
            if entry.attached == 0 {
                self.left.notify_all();
            }
        }
    }
}

/// Per-item cells a terminal shares among its participants.
struct Slots<T>(Vec<UnsafeCell<Option<T>>>);

// SAFETY: participants touch disjoint cells — cell `i` only inside `run(i)`,
// which the pool calls exactly once — and the caller reads the cells back
// only after `Pool::run` returns, once every participant has finished.
// Values move between threads, hence `T: Send`.
unsafe impl<T: Send> Sync for Slots<T> {}

impl<T> Slots<T> {
    fn new(values: impl Iterator<Item = Option<T>>) -> Self {
        Self(values.map(UnsafeCell::new).collect())
    }

    /// Swaps `value` into cell `i`, returning what it held.
    ///
    /// # Safety
    ///
    /// No other thread may access cell `i` during the call.
    unsafe fn swap(&self, i: usize, value: Option<T>) -> Option<T> {
        // SAFETY: the caller guarantees exclusive access to cell `i`.
        std::mem::replace(unsafe { &mut *self.0[i].get() }, value)
    }
}

/// Runs `f` over every item, producing outputs in item order.
fn run_ordered<I, O, F>(items: Vec<I>, f: &F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let participants = effective_threads(items.len());
    if participants <= 1 {
        return items.into_iter().map(f).collect();
    }
    let len = items.len();
    let inputs = Slots::new(items.into_iter().map(Some));
    let outputs = Slots::new((0..len).map(|_| None));
    pool().run(participants, len, &|i| {
        // SAFETY: the pool calls this exactly once per index, so this call
        // is the only access to cell `i` of either slot list.
        let item = unsafe { inputs.swap(i, None) }.expect("each item is claimed once");
        // SAFETY: as above.
        unsafe { outputs.swap(i, Some(f(item))) };
    });
    outputs
        .0
        .into_iter()
        .map(|cell| cell.into_inner().expect("every item ran"))
        .collect()
}

/// An eager parallel iterator: a materialized item list plus a composed
/// per-item mapping applied by the terminal's participants.
pub struct ParIter<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I, O, F> ParIter<I, F>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync + Send,
{
    /// Maps each item through `g` (on the worker, composed with prior maps).
    pub fn map<U, G>(self, g: G) -> ParIter<I, impl Fn(I) -> U + Sync + Send>
    where
        G: Fn(O) -> U + Sync + Send,
    {
        let f = self.f;
        ParIter {
            items: self.items,
            f: move |item| g(f(item)),
        }
    }

    /// Pairs each mapped item with its index.
    #[allow(clippy::type_complexity)]
    pub fn enumerate(self) -> ParIter<(usize, I), impl Fn((usize, I)) -> (usize, O) + Sync + Send> {
        let f = self.f;
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
            f: move |(i, item)| (i, f(item)),
        }
    }

    /// Runs `g` on every mapped item across the pool.
    pub fn for_each<G>(self, g: G)
    where
        G: Fn(O) + Sync + Send,
    {
        let f = self.f;
        run_ordered(self.items, &move |item| g(f(item)));
    }

    /// Collects mapped items in order.
    pub fn collect<C: FromParIter<O>>(self) -> C {
        C::from_ordered(run_ordered(self.items, &self.f))
    }

    /// Maps items across the pool, then folds the outputs with `op` in
    /// item order from `identity()` on the calling thread — bit-identical
    /// to the serial fold for any `op`, at any thread count.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> O
    where
        ID: Fn() -> O + Sync + Send,
        OP: Fn(O, O) -> O + Sync + Send,
    {
        run_ordered(self.items, &self.f)
            .into_iter()
            .fold(identity(), op)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the iterator is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Ordered collection target for [`ParIter::collect`].
pub trait FromParIter<O> {
    /// Builds the collection from in-order items.
    fn from_ordered(items: Vec<O>) -> Self;
}

impl<O> FromParIter<O> for Vec<O> {
    fn from_ordered(items: Vec<O>) -> Self {
        items
    }
}

/// Conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Concrete iterator type.
    type Iter;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

macro_rules! impl_range_into_par {
    ($($ty:ty),*) => {$(
        impl IntoParallelIterator for core::ops::Range<$ty> {
            type Item = $ty;
            type Iter = ParIter<$ty, fn($ty) -> $ty>;
            fn into_par_iter(self) -> Self::Iter {
                ParIter { items: self.collect(), f: |x| x }
            }
        }
    )*};
}

impl_range_into_par!(usize, u32, u64);

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = ParIter<T, fn(T) -> T>;
    fn into_par_iter(self) -> Self::Iter {
        ParIter {
            items: self,
            f: |x| x,
        }
    }
}

/// Parallel views of shared slices.
pub trait ParallelSlice<T: Sync> {
    /// A parallel iterator over `&T`.
    #[allow(clippy::type_complexity)]
    fn par_iter(&self) -> ParIter<&T, fn(&T) -> &T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T, fn(&T) -> &T> {
        ParIter {
            items: self.iter().collect(),
            f: identity_fn_ref,
        }
    }
}

fn identity_fn_ref<T>(x: &T) -> &T {
    x
}

/// Parallel views of mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// A parallel iterator over non-overlapping mutable chunks of
    /// `chunk_size` elements (last chunk may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    #[allow(clippy::type_complexity)]
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T], fn(&mut [T]) -> &mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<&mut [T], fn(&mut [T]) -> &mut [T]> {
        assert!(chunk_size > 0, "chunk_size must be positive");
        ParIter {
            items: self.chunks_mut(chunk_size).collect(),
            f: identity_fn_mut,
        }
    }
}

fn identity_fn_mut<T>(x: &mut [T]) -> &mut [T] {
    x
}

/// One side of a [`join`], as a two-item terminal's item or output.
enum Either<A, B> {
    Left(A),
    Right(B),
}

/// Runs two closures, potentially in parallel, returning both results:
/// a two-item terminal, so a parked worker can take `b` while the caller
/// runs `a`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let sides = run_ordered(
        vec![Either::Left(a), Either::Right(b)],
        &|side| match side {
            Either::Left(a) => Either::Left(a()),
            Either::Right(b) => Either::Right(b()),
        },
    );
    match <[_; 2]>::try_from(sides) {
        Ok([Either::Left(ra), Either::Right(rb)]) => (ra, rb),
        _ => unreachable!("outputs come back in item order"),
    }
}

/// Builder mirroring rayon's `ThreadPoolBuilder`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (infallible in the shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a builder with default (auto) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = auto).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool": in the shim, a thread-count override of the one shared pool.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Runs `f` with this pool's thread count governing any parallel
    /// terminals it executes. The previous override is restored even if
    /// `f` panics (callers like the proptest runner catch unwinds and
    /// keep using the thread).
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                NUM_THREADS_OVERRIDE.with(|n| n.set(self.0));
            }
        }
        let _restore = Restore(NUM_THREADS_OVERRIDE.with(|n| n.replace(self.num_threads)));
        f()
    }

    /// The configured thread count (0 = auto).
    pub fn current_num_threads(&self) -> usize {
        if self.num_threads > 0 {
            self.num_threads
        } else {
            host_threads()
        }
    }
}

/// The traits a `use rayon::prelude::*` is expected to bring in.
pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    /// Spins until `done()` holds, or gives up after ten seconds; returns
    /// whether it held. Lets an item wait for others without a hang.
    fn wait_until(done: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    fn pool_of(n: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(n).build().unwrap()
    }

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000usize).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut data = vec![0u64; 64 * 7];
        data.par_chunks_mut(7).enumerate().for_each(|(i, chunk)| {
            for (j, x) in chunk.iter_mut().enumerate() {
                *x = (i * 100 + j) as u64;
            }
        });
        for (i, chunk) in data.chunks(7).enumerate() {
            for (j, &x) in chunk.iter().enumerate() {
                assert_eq!(x, (i * 100 + j) as u64);
            }
        }
    }

    #[test]
    fn reduce_is_thread_count_independent_for_associative_ops() {
        let sum = |n: usize| {
            pool_of(n).install(|| {
                (0..10_000usize)
                    .into_par_iter()
                    .map(|x| x as u64)
                    .reduce(|| 0, |a, b| a + b)
            })
        };
        let expected: u64 = (0..10_000u64).sum();
        for n in [1, 2, 3, 8] {
            assert_eq!(sum(n), expected);
        }
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        // Outer parallel loop; inner loops must not explode thread counts
        // (smoke test: it finishes and results are correct).
        let out: Vec<u64> = (0..16usize)
            .into_par_iter()
            .map(|i| {
                (0..100usize)
                    .into_par_iter()
                    .map(|j| (i * j) as u64)
                    .reduce(|| 0, |a, b| a + b)
            })
            .collect();
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, (0..100).map(|j| (i * j) as u64).sum::<u64>());
        }
    }

    #[test]
    fn install_overrides_and_restores() {
        let pool = pool_of(3);
        let outside = current_num_threads();
        let inside = pool.install(current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn thread_index_is_some_only_inside_workers() {
        assert_eq!(current_thread_index(), None);
        let seen: Vec<bool> = pool_of(4).install(|| {
            (0..4usize)
                .into_par_iter()
                .map(|_| current_thread_index().is_some())
                .collect()
        });
        assert!(seen.iter().all(|&inside| inside));
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn workers_never_carry_install_overrides() {
        // The invariant `fa_tensor::par`'s SWAP NOTE debug_assert encodes:
        // `install` overrides live on the calling thread only, and no
        // participant (the caller included) carries one while it runs items.
        assert!(!install_override_active());
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            assert!(install_override_active(), "override active on caller");
            let seen: Vec<(bool, bool)> = (0..2usize)
                .into_par_iter()
                .map(|_| (install_override_active(), current_thread_index().is_some()))
                .collect();
            for (override_active, on_worker) in seen {
                assert!(on_worker, "items run on flagged workers");
                assert!(!override_active, "workers never carry install overrides");
            }
        });
        assert!(!install_override_active());
    }

    #[test]
    fn install_four_runs_on_four_participants() {
        // Each item holds its participant until all four items have
        // started, so four distinct participants must have claimed them,
        // whatever the host's core count.
        let started = AtomicUsize::new(0);
        let seats: Vec<Option<usize>> = pool_of(4).install(|| {
            (0..4usize)
                .into_par_iter()
                .map(|_| {
                    started.fetch_add(1, Ordering::SeqCst);
                    assert!(wait_until(|| started.load(Ordering::SeqCst) == 4));
                    current_thread_index()
                })
                .collect()
        });
        let mut distinct: Vec<usize> = seats
            .into_iter()
            .map(|s| s.expect("inside the pool"))
            .collect();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn a_stalled_item_does_not_hold_back_the_items_behind_it() {
        // Item 0 waits for every other item. With one contiguous span per
        // thread, items 1..4 sit behind item 0 on its span and never run
        // while it waits; with per-item claiming the other participant
        // takes them all.
        let n = 8usize;
        let finished = AtomicUsize::new(0);
        let stalled_until_others_ran: Vec<bool> = pool_of(2).install(|| {
            (0..n)
                .into_par_iter()
                .map(|i| {
                    let ok = i != 0 || wait_until(|| finished.load(Ordering::SeqCst) == n - 1);
                    finished.fetch_add(1, Ordering::SeqCst);
                    ok
                })
                .collect()
        });
        assert!(
            stalled_until_others_ran[0],
            "item 0 timed out waiting for items 1..{n}"
        );
    }

    #[test]
    fn outputs_come_back_in_item_order_when_items_finish_out_of_order() {
        // Item i finishes only after every item above it has.
        let n = 4;
        let finished: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let out: Vec<usize> = pool_of(n).install(|| {
            (0..n)
                .into_par_iter()
                .map(|i| {
                    assert!(wait_until(|| finished[i + 1..]
                        .iter()
                        .all(|f| f.load(Ordering::SeqCst))));
                    finished[i].store(true, Ordering::SeqCst);
                    i * 10
                })
                .collect()
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_keeps_working() {
        // Both items hold their participant until both have started, so
        // the panic is raised on the worker, not on the caller.
        let pool = pool_of(2);
        let started = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                (0..2usize).into_par_iter().for_each(|_| {
                    started.fetch_add(1, Ordering::SeqCst);
                    assert!(wait_until(|| started.load(Ordering::SeqCst) == 2));
                    if current_thread_index() != Some(0) {
                        panic!("item failed on a worker");
                    }
                })
            })
        }));
        let payload = result.expect_err("the worker's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"item failed on a worker")
        );
        assert_eq!(
            current_thread_index(),
            None,
            "caller flags restored after the panic"
        );
        assert!(!install_override_active());
        let after: Vec<usize> =
            pool.install(|| (0..64usize).into_par_iter().map(|x| x + 1).collect());
        assert_eq!(after, (1..65).collect::<Vec<_>>());
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "two");
        assert_eq!(a, 2);
        assert_eq!(b, "two");
        let (a, b) = pool_of(2).install(|| join(|| 3, || current_thread_index().is_some()));
        assert_eq!((a, b), (3, true));
    }

    #[test]
    fn empty_and_single_item() {
        let v: Vec<u32> = (0..0u32).into_par_iter().map(|x| x).collect();
        assert!(v.is_empty());
        let v: Vec<u32> = (0..1u32).into_par_iter().map(|x| x + 5).collect();
        assert_eq!(v, vec![5]);
    }
}
