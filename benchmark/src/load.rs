//! Closed-loop load: each caller sends its next request only after the
//! previous reply. A collaborative-inference client cannot classify until
//! the server's maps return, so this — not an arrival schedule — is the
//! shape of the real traffic.

use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Globally unique operation id (`seq · callers + caller`).
    pub id: u64,
    /// Start, nanoseconds since the window's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the window's epoch.
    pub end_ns: u64,
    /// Whether the answer was returned and verified.
    pub ok: bool,
}

impl Op {
    /// Latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Runs `callers` threads for `window`. Each thread owns a state from
/// `state(caller)` and loops `call` (timed) then `verify` (untimed) until the
/// window closes; an operation that started inside the window is allowed to
/// finish. Returns every caller's state and operations.
pub fn closed_loop<S: Send, A>(
    callers: usize,
    window: Duration,
    epoch: Instant,
    state: impl Fn(usize) -> S + Sync,
    call: impl Fn(&mut S, u64) -> A + Sync,
    verify: impl Fn(u64, A) -> bool + Sync,
) -> Vec<(S, Vec<Op>)> {
    let barrier = Barrier::new(callers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..callers)
            .map(|caller| {
                let (barrier, state, call, verify) = (&barrier, &state, &call, &verify);
                scope.spawn(move || {
                    let mut own = state(caller);
                    let mut ops = Vec::new();
                    barrier.wait();
                    let deadline = Instant::now() + window;
                    for seq in 0u64.. {
                        let id = seq * callers as u64 + caller as u64;
                        let start = Instant::now();
                        if start >= deadline {
                            break;
                        }
                        let answer = call(&mut own, id);
                        let end = Instant::now();
                        ops.push(Op {
                            id,
                            start_ns: start.duration_since(epoch).as_nanos() as u64,
                            end_ns: end.duration_since(epoch).as_nanos() as u64,
                            ok: verify(id, answer),
                        });
                    }
                    (own, ops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_caller_runs_and_ids_are_unique() {
        let epoch = Instant::now();
        let out = closed_loop(
            2,
            Duration::from_millis(30),
            epoch,
            |caller| caller,
            |caller, id| {
                std::thread::sleep(Duration::from_millis(1));
                (*caller, id)
            },
            |id, (caller, seen)| id == seen && id % 2 == caller as u64,
        );
        assert_eq!(out.len(), 2);
        let mut ids: Vec<u64> = out
            .iter()
            .flat_map(|(_, ops)| ops.iter().map(|o| o.id))
            .collect();
        let n = ids.len();
        assert!(n >= 4, "two callers at ~1 ms per op over 30 ms");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(out
            .iter()
            .flat_map(|(_, ops)| ops)
            .all(|o| o.ok && o.end_ns >= o.start_ns));
    }
}
