//! Time budgets and cooperative cancellation shared across a portfolio run.

use eblow_core::cancel::StopFlag;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The resource envelope one planning run (or one portfolio race) operates
/// under.
///
/// A `Budget` carries two things:
///
/// * an optional **wall-clock deadline**, measured from the budget's
///   construction;
/// * a shared **stop flag**, raised either explicitly ([`Budget::cancel`])
///   or by the portfolio executor once the deadline passes. Strategies
///   poll it through [`Budget::stop_flag`] and thread it into the planner
///   inner loops (`plan_with_stop`, `run_with_stop`).
///
/// Clones share the same flag and start instant, so one `Budget` can be
/// handed to many racing threads and cancelled once.
#[derive(Debug, Clone)]
pub struct Budget {
    deadline: Option<Duration>,
    /// Time cap for strategies that call the exact branch-and-bound ILP
    /// (which has its own internal time-limit protocol rather than a poll
    /// loop).
    ilp_time_limit: Duration,
    started: Instant,
    stop: Arc<AtomicBool>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no deadline (strategies run to completion unless
    /// [`Budget::cancel`] is called).
    pub fn unlimited() -> Self {
        Budget {
            deadline: None,
            ilp_time_limit: Duration::from_secs(10),
            started: Instant::now(),
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A budget that expires `deadline` after construction.
    pub fn with_deadline(deadline: Duration) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Budget::unlimited()
        }
    }

    /// Overrides the exact-ILP time cap (defaults to 10 s, further clamped
    /// to the remaining deadline at call time).
    pub fn with_ilp_time_limit(mut self, limit: Duration) -> Self {
        self.ilp_time_limit = limit;
        self
    }

    /// Wall-clock time left before the deadline (`None` = unbounded).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_sub(self.started.elapsed()))
    }

    /// The exact-ILP cap: the configured limit clamped to the remaining
    /// deadline.
    pub fn ilp_time_limit(&self) -> Duration {
        match self.remaining() {
            Some(rem) => self.ilp_time_limit.min(rem),
            None => self.ilp_time_limit,
        }
    }

    /// Raises the shared stop flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Whether the stop flag has been raised (this does **not** check the
    /// deadline — the portfolio executor owns deadline enforcement).
    pub fn is_cancelled(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// The stop flag in the form the `eblow-core` planners accept.
    pub fn stop_flag(&self) -> StopFlag<'_> {
        StopFlag::new(&self.stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_stop_flag() {
        let a = Budget::unlimited();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(b.stop_flag().is_set());
    }

    #[test]
    fn remaining_counts_down_and_clamps_ilp_cap() {
        let b = Budget::with_deadline(Duration::from_millis(50))
            .with_ilp_time_limit(Duration::from_secs(60));
        assert!(b.remaining().unwrap() <= Duration::from_millis(50));
        assert!(b.ilp_time_limit() <= Duration::from_millis(50));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert_eq!(b.remaining(), None);
        assert_eq!(b.ilp_time_limit(), Duration::from_secs(10));
    }
}
