//! Cooperative per-request deadlines: [`Deadline`].
//!
//! A [`Deadline`] rides on a request ([`LoadCase::deadline`] /
//! [`LoadSet::deadline`]) and is checked *between* iterations of the
//! engine outer loops — the solve is abandoned with
//! [`SolverError::DeadlineExceeded`] the first time a check runs past
//! the instant. Nothing is preempted mid-iteration, so the check
//! granularity is one outer iteration on the [`Backend::VoltProp`]
//! route and one lane on the [`Backend::Rb3d`]/[`Backend::Pcg`] routes,
//! which also check before their first request builds the engine. A
//! single solve on those routes is one lane, so it checks on entry only
//! (its iteration budget bounds the tail).
//!
//! [`LoadCase::deadline`]: crate::LoadCase::deadline
//! [`LoadSet::deadline`]: crate::LoadSet::deadline
//! [`Backend::VoltProp`]: crate::Backend::VoltProp
//! [`Backend::Rb3d`]: crate::Backend::Rb3d
//! [`Backend::Pcg`]: crate::Backend::Pcg

use std::time::{Duration, Instant};

use voltprop_solvers::SolverError;

/// A wall-clock budget for one request. The default ([`Deadline::NONE`])
/// never expires; [`Deadline::after`] starts the clock at construction.
///
/// ```
/// use std::time::Duration;
/// use voltprop_core::Deadline;
///
/// assert!(!Deadline::NONE.expired());
/// assert!(Deadline::after(Duration::ZERO).expired());
/// assert!(!Deadline::after(Duration::from_secs(3600)).expired());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Deadline(Option<Instant>);

impl Deadline {
    /// No deadline: checks always pass (the behavior of every request
    /// that does not set one).
    pub const NONE: Deadline = Deadline(None);

    /// A deadline at an absolute instant.
    pub fn at(instant: Instant) -> Deadline {
        Deadline(Some(instant))
    }

    /// A deadline `budget` from now. A budget that reaches past the
    /// latest representable [`Instant`] sets no deadline.
    pub fn after(budget: Duration) -> Deadline {
        Deadline(Instant::now().checked_add(budget))
    }

    /// The absolute instant, if a deadline is set.
    pub fn instant(&self) -> Option<Instant> {
        self.0
    }

    /// Whether the deadline has passed (`false` when none is set).
    pub fn expired(&self) -> bool {
        self.0.is_some_and(|at| Instant::now() >= at)
    }

    /// Time left until the deadline: `None` when no deadline is set,
    /// `Some(Duration::ZERO)` once it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        self.0
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// The cooperative cancellation hook the engine outer loops call
    /// between iterations: [`SolverError::DeadlineExceeded`] (carrying
    /// `iterations`) once the deadline has passed, `Ok` otherwise.
    ///
    /// # Errors
    ///
    /// [`SolverError::DeadlineExceeded`] when expired.
    pub fn check(&self, iterations: usize) -> Result<(), SolverError> {
        if self.expired() {
            Err(SolverError::DeadlineExceeded { iterations })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_expires() {
        assert!(!Deadline::NONE.expired());
        assert_eq!(Deadline::NONE.remaining(), None);
        assert!(Deadline::NONE.check(7).is_ok());
        assert_eq!(Deadline::default(), Deadline::NONE);
    }

    #[test]
    fn past_deadline_fails_the_check_with_iterations() {
        let d = Deadline::after(Duration::ZERO);
        assert!(d.expired());
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        match d.check(3) {
            Err(SolverError::DeadlineExceeded { iterations: 3 }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn future_deadline_passes() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.check(0).is_ok());
        assert!(d.remaining().unwrap() > Duration::from_secs(3000));
        assert!(d.instant().is_some());
        // A budget past what an `Instant` can hold is no deadline.
        for budget in [Duration::MAX, Duration::from_secs(u64::MAX / 2)] {
            assert_eq!(Deadline::after(budget), Deadline::NONE);
        }
    }
}
