//! Error type of the methodology layer.

use std::error::Error;
use std::fmt;

/// Errors returned by ERMES operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErmesError {
    /// The number of Pareto sets does not match the number of processes.
    ParetoSizeMismatch {
        /// Processes in the system.
        processes: usize,
        /// Pareto sets supplied.
        pareto_sets: usize,
    },
    /// A selection index is out of range for its process's Pareto set.
    SelectionOutOfRange {
        /// Offending process index.
        process: usize,
        /// Requested implementation index.
        selected: usize,
        /// Size of that process's Pareto set.
        available: usize,
    },
    /// The system deadlocks under every ordering the tool produced; the
    /// topology itself is starved (e.g. an uninitialized feedback loop).
    Deadlock,
    /// A proposed channel reordering was rejected by the system graph
    /// (e.g. not a permutation of the process's channels).
    Ordering(sysgraph::SysGraphError),
    /// The computation was cooperatively cancelled (deadline expiry,
    /// client disconnect, or service shutdown) before it finished.
    /// `completed`/`total` report partial progress in the unit of the
    /// cancelled operation: exploration iterations for [`crate::explore`],
    /// sweep targets for [`crate::pareto_sweep_cancellable`].
    Cancelled {
        /// Why the work was stopped.
        reason: parx::CancelReason,
        /// Units of work finished before cancellation.
        completed: usize,
        /// Units of work the full run would have performed.
        total: usize,
    },
}

impl fmt::Display for ErmesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErmesError::ParetoSizeMismatch {
                processes,
                pareto_sets,
            } => write!(
                f,
                "system has {processes} processes but {pareto_sets} pareto sets were supplied"
            ),
            ErmesError::SelectionOutOfRange {
                process,
                selected,
                available,
            } => write!(
                f,
                "selection {selected} out of range for process {process} ({available} implementations)"
            ),
            ErmesError::Deadlock => write!(f, "system deadlocks under every produced ordering"),
            ErmesError::Ordering(e) => write!(f, "invalid channel reordering: {e}"),
            ErmesError::Cancelled {
                reason,
                completed,
                total,
            } => write!(f, "cancelled ({reason}) after {completed} of {total} steps"),
        }
    }
}

impl Error for ErmesError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ErmesError::Ordering(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_well_behaved() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<ErmesError>();
        let e = ErmesError::Ordering(sysgraph::SysGraphError::SelfChannel(
            sysgraph::ProcessId::from_index(0),
        ));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("invalid channel reordering"));
    }

    #[test]
    fn cancelled_reports_reason_and_progress() {
        let e = ErmesError::Cancelled {
            reason: parx::CancelReason::Deadline,
            completed: 3,
            total: 16,
        };
        assert_eq!(
            e.to_string(),
            "cancelled (deadline expired) after 3 of 16 steps"
        );
        assert!(e.source().is_none());
    }
}
