//! Deterministic fault injection for robustness tests (feature
//! `faults`, never compiled into default builds).
//!
//! The harness is a process-global [`FaultPlan`] installed by a test
//! through [`FaultScope::install`] and consulted by cheap hooks the
//! execution layer calls at its failure-relevant points:
//!
//! * [`on_pull`] — inside the rank-join pull loop; injects artificial
//!   per-pull latency and allocation-pressure stalls, the knobs the
//!   deadline-fidelity tests turn.
//! * [`on_query`] — at the start of one batch query, inside the batch
//!   pool's panic boundary; panics for planned batch indices, or
//!   probabilistically under a seeded coin.
//!
//! Injection is *deterministic*: planned sites fire exactly, and the
//! probabilistic mode hashes `(seed, query)` with a splitmix64-style
//! mixer, so a failing configuration replays from its seed alone. The
//! scope guard also serializes tests that install plans (the plan is
//! process-global), so `cargo test` parallelism cannot interleave two
//! harnesses.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What to inject, and where. Installed with [`FaultScope::install`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Batch indices of the queries that panic.
    pub query_panics: Vec<usize>,
    /// Seed for the probabilistic panic coin.
    pub panic_seed: u64,
    /// Probability in `[0, 1]` that any given batch query panics
    /// (deterministic per `(seed, query)`).
    pub panic_prob: f64,
    /// Artificial latency added to every rank-join pull.
    pub pull_delay: Option<Duration>,
    /// Bytes allocated (and immediately dropped) per pull, modelling
    /// allocation-pressure stalls.
    pub alloc_pressure: usize,
}

static ACTIVE: Mutex<Option<FaultPlan>> = Mutex::new(None);
static SCOPE_GATE: Mutex<()> = Mutex::new(());

#[expect(clippy::disallowed_methods, reason = "poison recovered: injected panics poison the plan lock from worker threads, and the plan is only ever replaced whole")]
fn lock_active() -> MutexGuard<'static, Option<FaultPlan>> {
    ACTIVE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII installation of a [`FaultPlan`]. Holding the scope keeps the
/// plan active and excludes every other scope (tests serialize);
/// dropping it clears the plan.
pub struct FaultScope {
    _gate: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// Installs `plan` process-wide until the returned scope drops.
    /// Blocks while another scope is alive.
    pub fn install(plan: FaultPlan) -> FaultScope {
        #[expect(clippy::disallowed_methods, reason = "poison recovered: the gate guards no data, it only serializes scopes")]
        let gate = SCOPE_GATE.lock().unwrap_or_else(PoisonError::into_inner);
        *lock_active() = Some(plan);
        FaultScope { _gate: gate }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        *lock_active() = None;
    }
}

/// Pull-loop hook: injected latency and allocation pressure.
pub fn on_pull() {
    let (delay, pressure) = {
        let guard = lock_active();
        match guard.as_ref() {
            None => return,
            Some(p) => (p.pull_delay, p.alloc_pressure),
        }
    };
    if let Some(d) = delay {
        std::thread::sleep(d);
    }
    if pressure > 0 {
        // Touch the allocation so it cannot be optimized away.
        let scratch = vec![0u8; pressure];
        std::hint::black_box(&scratch);
    }
}

/// Batch-query hook: panics when the plan targets batch index `query`,
/// either explicitly or through the seeded coin.
#[expect(clippy::panic, reason = "deliberate injected fault: panicking here is the harness's purpose")]
pub fn on_query(query: usize) {
    let fire = {
        let guard = lock_active();
        match guard.as_ref() {
            None => return,
            Some(p) => {
                p.query_panics.contains(&query)
                    || (p.panic_prob > 0.0 && coin(p.panic_seed, query as u64) < p.panic_prob)
            }
        }
    };
    if fire {
        panic!("injected fault: batch query {query}");
    }
}

/// Splitmix64-style mix of `(seed, a)` into a uniform `[0, 1)` double
/// — the deterministic coin behind probabilistic injection.
fn coin(seed: u64, a: u64) -> f64 {
    let mut z = seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_installs_and_clears_the_plan() {
        {
            let _scope = FaultScope::install(FaultPlan {
                query_panics: vec![3],
                ..FaultPlan::default()
            });
            assert!(lock_active().is_some(), "plan active inside the scope");
            on_query(2); // not targeted: must not panic
        }
        assert!(lock_active().is_none(), "plan cleared after the scope");
        on_query(3); // no plan: must not panic
    }

    #[test]
    fn planned_query_panic_fires_with_identifying_payload() {
        let _scope = FaultScope::install(FaultPlan {
            query_panics: vec![1],
            ..FaultPlan::default()
        });
        let err = std::panic::catch_unwind(|| on_query(1)).unwrap_err();
        let msg = crate::exec::budget::describe_panic(err.as_ref());
        assert!(msg.contains("batch query 1"), "payload was: {msg}");
    }

    #[test]
    fn coin_is_deterministic_and_roughly_uniform() {
        assert_eq!(coin(42, 3), coin(42, 3));
        assert_ne!(coin(42, 3), coin(43, 3));
        let n = 4096;
        let hits = (0..n).filter(|&i| coin(7, i as u64) < 0.25).count();
        let frac = hits as f64 / n as f64;
        assert!((0.18..0.32).contains(&frac), "fraction was {frac}");
    }
}
