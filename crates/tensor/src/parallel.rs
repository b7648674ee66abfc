//! Data parallelism for the kernels, the inference engine and the ensemble
//! fan-out: one persistent, process-wide, work-sharing thread pool.
//!
//! The workspace cannot depend on `rayon` (the build environment has no
//! network access), so this module provides the two primitives the stack
//! needs — [`par_map`], an order-preserving parallel map over a slice, and
//! [`par_chunks_mut`], a parallel visit of the disjoint chunks of an output
//! buffer — over a pool whose cost per call is a mutex and a condition
//! variable, not a thread spawn.
//!
//! # The pool
//!
//! [`parallelism`]` − 1` helper threads are started the first time the width
//! is asked for (`std::thread::available_parallelism`, read once) and live
//! for the rest of the process. They are detached: nothing joins them, and
//! they hold nothing that outlives a call (see below). On a one-core host
//! there are no helpers and every call runs inline.
//!
//! # The job/ticket protocol
//!
//! A parallel call builds a *job*: a body that claims work items from a
//! shared cursor until none are left, plus a number of *tickets* — how many
//! helpers may join, at most one per item beyond the caller's own.
//!
//! 1. The caller publishes the job on the pool's queue and wakes helpers.
//! 2. The caller **always** runs the body itself, so a job finishes even if
//!    no helper ever arrives; a call never waits for a helper to *start*.
//! 3. A helper takes a ticket under the job's lock (`tickets -= 1`,
//!    `active += 1`, copy the body reference out), runs the body, and under
//!    the same lock reports back (`active -= 1`, wake the caller at zero).
//! 4. When the caller's own run of the body returns, every item has been
//!    claimed. Under the job's lock it **revokes** the unclaimed tickets and
//!    the body reference, then waits until `active == 0`.
//! 5. A panic on either side is caught where it happens, carried through the
//!    job, and re-raised on the caller after step 4. Helpers survive it, so
//!    the pool stays usable.
//!
//! # Inline nesting
//!
//! A thread is *inside a parallel region* while it runs a job body: helpers
//! always, a caller between steps 1 and 4. A [`par_map`] or
//! [`par_chunks_mut`] entered from inside a region runs serially on the
//! calling thread. The outermost fan-out therefore owns the cores — the
//! ensemble puts its bodies on them and the GEMMs inside run serially,
//! while a lone GEMM gets all of them — and since a body never blocks on
//! the pool, no cycle of waits can form however many threads call in.
//!
//! # Safety argument
//!
//! The body borrows the caller's stack (items, output chunks, the mapped
//! closure), but helper threads need a `'static` reference. The lifetime is
//! erased in exactly one place, `run_shared`, and is sound because of step 4:
//! a helper can obtain the reference only together with a ticket, under the
//! job's lock; after the caller has revoked both under that lock no new
//! helper can; and the caller does not return — normally or by unwinding —
//! until every helper that did has reported back, which it does only after
//! its last use of the reference.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A job body: claims items until none are left. Runs on several threads at
/// once.
type Body<'a> = &'a (dyn Fn() + Sync + 'a);

type Panic = Box<dyn Any + Send + 'static>;

struct JobState {
    /// The erased body, present while tickets may still be claimed.
    body: Option<Body<'static>>,
    /// Helpers that may still join.
    tickets: usize,
    /// Helpers currently running the body.
    active: usize,
    /// The first panic a helper caught.
    panic: Option<Panic>,
}

struct Job {
    state: Mutex<JobState>,
    /// Signalled when `active` drops to zero.
    idle: Condvar,
}

/// Published jobs that may still have tickets, oldest first. Lock order:
/// `QUEUE` before a job's `state`.
static QUEUE: Mutex<VecDeque<Arc<Job>>> = Mutex::new(VecDeque::new());
/// Signalled when a job is pushed onto `QUEUE`.
static WORK: Condvar = Condvar::new();

thread_local! {
    /// Whether this thread is inside a parallel region (module docs).
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Locks `mutex`, ignoring poisoning: every critical section in this module
/// is a handful of integer and pointer assignments that cannot panic, so the
/// data is valid at every step.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The number of threads a parallel call can occupy: the pool's helpers plus
/// the caller. Read from the host once, when the pool starts; `1` means
/// every call runs inline.
///
/// # Examples
///
/// ```
/// assert!(ensembler_tensor::parallel::parallelism() >= 1);
/// ```
pub fn parallelism() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    1 + *HELPERS.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        // A helper the host refuses to start is simply not counted.
        (1..cores)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("ensembler-par-{i}"))
                    .spawn(helper_loop)
                    .is_ok()
            })
            .count()
    })
}

fn helper_loop() {
    IN_REGION.set(true);
    let mut queue = lock(&QUEUE);
    loop {
        let Some(job) = queue.front().cloned() else {
            queue = WORK.wait(queue).unwrap_or_else(PoisonError::into_inner);
            continue;
        };
        let body = {
            let mut state = lock(&job.state);
            let body = state.body.filter(|_| state.tickets > 0);
            if body.is_some() {
                state.tickets -= 1;
                state.active += 1;
            }
            if state.tickets == 0 {
                queue.pop_front();
            }
            body
        };
        let Some(body) = body else { continue };
        drop(queue);
        let outcome = catch_unwind(AssertUnwindSafe(body));
        {
            let mut state = lock(&job.state);
            if let Err(payload) = outcome {
                state.panic.get_or_insert(payload);
            }
            state.active -= 1;
            if state.active == 0 {
                job.idle.notify_one();
            }
        }
        queue = lock(&QUEUE);
    }
}

/// Runs `body` on the calling thread and on up to `tickets` pool helpers at
/// once, returning when all of them are done with it. Steps 1–5 of the
/// module docs.
fn run_shared(tickets: usize, body: Body<'_>) {
    // SAFETY: only the lifetime changes. The reference is stored in
    // `job.state.body` and nowhere else; a helper copies it out only under
    // the job's lock, together with `active += 1`. Below, this function
    // clears it under that lock and then blocks until `active == 0`, which a
    // helper lowers only after its call through the reference has returned
    // (or unwound into `catch_unwind`). Between the publish and that wait
    // nothing can unwind: the caller's own run is wrapped in `catch_unwind`,
    // `lock` does not panic, and the rest is assignments. So no use of the
    // reference outlives `'_`.
    let erased: Body<'static> = unsafe { std::mem::transmute::<Body<'_>, Body<'static>>(body) };
    let job = Arc::new(Job {
        state: Mutex::new(JobState {
            body: Some(erased),
            tickets,
            active: 0,
            panic: None,
        }),
        idle: Condvar::new(),
    });
    lock(&QUEUE).push_back(Arc::clone(&job));
    if tickets == 1 {
        WORK.notify_one();
    } else {
        WORK.notify_all();
    }

    IN_REGION.set(true);
    let own = catch_unwind(AssertUnwindSafe(body));
    IN_REGION.set(false);

    let helper_panic = {
        let mut state = lock(&job.state);
        state.body = None;
        state.tickets = 0;
        while state.active > 0 {
            state = job.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.panic.take()
    };
    // Usually no helper got as far as popping the spent job; do not leave it
    // for one to find.
    lock(&QUEUE).retain(|queued| !Arc::ptr_eq(queued, &job));

    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if let Some(payload) = helper_panic {
        resume_unwind(payload);
    }
}

/// Calls `f(i, chunk)` for every `chunk_len`-sized chunk of `out` (the last
/// one may be shorter), `i` counting chunks from zero, spreading the chunks
/// over the pool. Chunks are claimed one at a time, so uneven costs balance.
///
/// Runs serially on the calling thread when there is a single chunk, when
/// the host has one core, or when called from inside a parallel region (see
/// the module docs). Panics raised by `f` are propagated to the caller.
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::parallel::par_chunks_mut;
///
/// let mut out = [0usize; 7];
/// par_chunks_mut(&mut out, 3, |i, chunk| chunk.fill(i));
/// assert_eq!(out, [0, 0, 0, 1, 1, 1, 2]);
/// ```
pub fn par_chunks_mut<T, F>(out: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    chunks_mut(out, chunk_len, true, f);
}

/// [`par_chunks_mut`] when `parallel` is set, the same visit as a plain
/// serial loop otherwise: the kernels decide from the problem size.
pub(crate) fn chunks_mut<T, F>(out: &mut [T], chunk_len: usize, parallel: bool, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let tickets = if parallel && !IN_REGION.get() {
        let chunks = out.len().div_ceil(chunk_len);
        (parallelism() - 1).min(chunks.saturating_sub(1))
    } else {
        0
    };
    if tickets == 0 {
        for (i, chunk) in out.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // The shared cursor: whoever holds the lock takes the next chunk. The
    // guard is dropped before `f` runs, so a panicking `f` cannot poison it.
    let cursor = Mutex::new(out.chunks_mut(chunk_len).enumerate());
    run_shared(tickets, &|| loop {
        let next = lock(&cursor).next();
        match next {
            Some((i, chunk)) => f(i, chunk),
            None => break,
        }
    });
}

/// Maps `f` over `items` in parallel, preserving input order in the output.
///
/// Runs serially on the calling thread when there is at most one item, when
/// the host has one core, or when called from inside a parallel region (see
/// the module docs). Panics raised by `f` are propagated to the caller.
///
/// # Examples
///
/// ```
/// use ensembler_tensor::parallel::par_map;
///
/// let squares = par_map(&[1, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    par_chunks_mut(&mut slots, 1, |i, slot| slot[0] = Some(f(&items[i])));
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let doubled = par_map(&items, |x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        assert_eq!(par_map(&[] as &[usize], |x| *x), Vec::<usize>::new());
        assert_eq!(par_map(&[7usize], |x| x + 1), vec![8]);
    }

    #[test]
    fn runs_on_all_items_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = par_map(&[1, 2, 3, 4, 5, 6, 7, 8], |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            *x
        });
        assert_eq!(out.len(), 8);
        assert_eq!(calls.load(Ordering::Relaxed), 8);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics() {
        let _ = par_map(&[1, 2, 3, 4], |x| {
            if *x == 3 {
                panic!("boom");
            }
            *x
        });
    }

    /// Two items that each wait at a two-party barrier: the map completes
    /// only if two threads run them at once. On a one-core host (no helpers)
    /// there is nothing to force, and the map is checked serially.
    fn map_needing_two_threads() -> Vec<usize> {
        if parallelism() == 1 {
            return par_map(&[0usize, 1], |x| *x);
        }
        let both = Barrier::new(2);
        par_map(&[0usize, 1], |x| {
            both.wait();
            *x
        })
    }

    #[test]
    fn nested_maps_run_inline_and_stay_ordered() {
        let pooled = parallelism() > 1;
        let outer: Vec<usize> = (0..6).collect();
        let inner: Vec<usize> = (0..40).collect();
        let got = par_map(&outer, |&o| {
            assert_eq!(IN_REGION.get(), pooled, "a pooled item runs in a region");
            let caller = std::thread::current().id();
            let row = par_map(&inner, |&i| {
                // Inline: the nested map never leaves the item's thread, so
                // it cannot wait for a pool thread that is waiting for it.
                assert_eq!(std::thread::current().id(), caller);
                o * 100 + i
            });
            assert_eq!(
                IN_REGION.get(),
                pooled,
                "a nested map leaves the flag alone"
            );
            row
        });
        for (o, row) in got.iter().enumerate() {
            let want: Vec<usize> = inner.iter().map(|i| o * 100 + i).collect();
            assert_eq!(row, &want);
        }
        assert!(!IN_REGION.get());
    }

    #[test]
    fn concurrent_callers_all_get_complete_ordered_results() {
        let items: Vec<usize> = (0..23).collect();
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            for caller in 0..8usize {
                let (items, start) = (&items, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..200usize {
                        let got = par_map(items, |&x| x * 1000 + caller * 10 + round % 10);
                        let want: Vec<usize> = items
                            .iter()
                            .map(|&x| x * 1000 + caller * 10 + round % 10)
                            .collect();
                        assert_eq!(got, want, "caller {caller} round {round}");
                    }
                });
            }
        });
    }

    /// Runs a two-item map in which the item on the calling thread
    /// (`on_caller`) or the one on a helper panics with `message`, and
    /// asserts the payload is re-raised here, this thread is left outside
    /// any region, and its next map still reaches the pool. A barrier puts
    /// the two items on two threads; a one-core host has only the caller.
    fn assert_panic_reaches_caller(message: &'static str, on_caller: bool) {
        let pooled = parallelism() > 1;
        let caller = std::thread::current().id();
        let both = Barrier::new(2);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map(&[0usize, 1], |&x| {
                if pooled {
                    both.wait();
                }
                if (std::thread::current().id() == caller) == on_caller {
                    panic!("{message}");
                }
                x
            })
        }))
        .expect_err("the panic must reach the caller");
        let text = payload
            .downcast_ref::<String>()
            .expect("a formatted panic payload");
        assert_eq!(text, message);
        assert!(!IN_REGION.get(), "the region flag must be cleared");
        assert_eq!(map_needing_two_threads(), vec![0, 1]);
    }

    #[test]
    fn a_panic_in_a_caller_run_item_reaches_the_caller() {
        assert_panic_reaches_caller("caller-side boom", true);
    }

    #[test]
    fn a_panic_in_a_helper_run_item_reaches_the_caller() {
        if parallelism() > 1 {
            assert_panic_reaches_caller("helper-side boom", false);
        }
    }

    #[test]
    fn borrowed_stack_items_are_finished_before_the_call_returns() {
        for round in 0..200usize {
            let local: Vec<usize> = (0..16).map(|i| i + round).collect();
            let finished = AtomicUsize::new(0);
            let got = par_map(&local, |&x| {
                let y = x + 1;
                finished.fetch_add(1, Ordering::SeqCst);
                y
            });
            // Every item's last touch of `local`/`finished` happened before
            // the return: the count is already complete, not merely eventual.
            assert_eq!(finished.load(Ordering::SeqCst), local.len());
            assert_eq!(got, local.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunks_cover_a_ragged_tail_exactly_once() {
        for (len, chunk_len) in [(10usize, 4usize), (12, 4), (3, 5), (0, 2), (257, 1)] {
            let mut out = vec![0usize; len];
            let visits = AtomicUsize::new(0);
            par_chunks_mut(&mut out, chunk_len, |i, chunk| {
                visits.fetch_add(1, Ordering::Relaxed);
                assert!(chunk.len() == chunk_len || (i + 1) * chunk_len > len);
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    // `+=` so a chunk visited twice would show.
                    *slot += i * chunk_len + offset + 1;
                }
            });
            assert_eq!(visits.load(Ordering::Relaxed), len.div_ceil(chunk_len));
            assert_eq!(out, (1..=len).collect::<Vec<_>>(), "{len}/{chunk_len}");
        }
    }
}
