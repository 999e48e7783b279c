//! Cooperative cancellation for long-running planners.
//!
//! Every E-BLOW pipeline stage with an unbounded or data-dependent runtime
//! (LP rounding iterations, Algorithm 2, SA plateaus, 2-opt sweeps)
//! polls a shared [`StopFlag`] and, when it is raised, finishes the cheapest
//! valid completion of the work done so far instead of running to
//! convergence. This gives every planner *anytime* semantics: a cancelled
//! run still returns a placement that validates against the instance — it
//! is simply less optimized.
//!
//! The flag is a plain `AtomicBool` owned by the caller (typically the
//! portfolio executor in `eblow-engine`), so raising it is race-free and
//! wait-free; planners poll it with `Relaxed` loads at loop boundaries.

use std::sync::atomic::{AtomicBool, Ordering};

/// A borrowed, optional stop signal.
///
/// [`StopFlag::NEVER`] is a flag that is never raised; planners accept a
/// `StopFlag` unconditionally and the uncancellable entry points pass
/// `NEVER`, so there is exactly one code path.
#[derive(Debug, Clone, Copy, Default)]
pub struct StopFlag<'a> {
    flag: Option<&'a AtomicBool>,
}

impl<'a> StopFlag<'a> {
    /// A flag that can never be raised.
    pub const NEVER: StopFlag<'static> = StopFlag { flag: None };

    /// Wraps a shared atomic owned by the caller.
    pub fn new(flag: &'a AtomicBool) -> Self {
        StopFlag { flag: Some(flag) }
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_set(self) -> bool {
        self.flag.is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// The underlying atomic, when one is attached (used to hand the flag
    /// to substrates like `eblow-anneal` that don't know this type).
    #[inline]
    pub fn as_atomic(self) -> Option<&'a AtomicBool> {
        self.flag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_is_never_set() {
        assert!(!StopFlag::NEVER.is_set());
        assert!(StopFlag::NEVER.as_atomic().is_none());
    }

    #[test]
    fn raising_the_atomic_sets_the_flag() {
        let atomic = AtomicBool::new(false);
        let flag = StopFlag::new(&atomic);
        assert!(!flag.is_set());
        atomic.store(true, Ordering::Relaxed);
        assert!(flag.is_set());
        assert!(flag.as_atomic().is_some());
    }
}
