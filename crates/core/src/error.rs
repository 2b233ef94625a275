//! Error type of the CA-matrix and flow layers.

use ca_sim::SimError;
use std::fmt;

/// Errors raised while canonicalizing cells or running generation flows.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The defect-free simulation produced a non-binary value, so the cell
    /// cannot be characterized (broken netlist, floating output, ...).
    GoldenNotBinary {
        /// Cell being characterized.
        cell: String,
        /// Stimulus index that failed.
        stimulus: usize,
    },
    /// No trained group matches the cell's (inputs, transistors) key.
    NoMatchingGroup {
        /// Cell that could not be dispatched.
        cell: String,
        /// Number of primary inputs.
        inputs: usize,
        /// Number of transistors.
        transistors: usize,
    },
    /// The training corpus for a group was empty.
    EmptyTrainingSet,
    /// A cell violates a structural assumption (documented per call site).
    Unsupported(String),
    /// The switch-level solver oscillated on the defect-free cell: the
    /// named nets never reached a fixpoint (e.g. an unintended feedback
    /// loop in the netlist).
    SolverDiverged {
        /// Cell being simulated.
        cell: String,
        /// Names of the nets that kept toggling.
        nets: Vec<String>,
    },
    /// A simulation budget ran out before characterization finished.
    BudgetExceeded {
        /// Cell being characterized.
        cell: String,
        /// Which budget axis was exhausted (e.g. "wall clock").
        resource: String,
    },
    /// Preparing the cell (golden simulation + canonicalization) failed
    /// or panicked; the message preserves whatever diagnostic was
    /// available.
    PrepareFailed {
        /// Cell being prepared.
        cell: String,
        /// Underlying diagnostic.
        source: String,
    },
    /// A durable-storage operation (session store, atomic file export)
    /// failed. The I/O error is carried as text so `CoreError` stays
    /// `Clone + Eq`.
    Storage {
        /// Path of the file or store involved.
        path: String,
        /// Underlying I/O diagnostic.
        source: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::GoldenNotBinary { cell, stimulus } => write!(
                f,
                "golden simulation of `{cell}` is not binary under stimulus {stimulus}"
            ),
            CoreError::NoMatchingGroup {
                cell,
                inputs,
                transistors,
            } => write!(
                f,
                "no trained group for `{cell}` ({inputs} inputs, {transistors} transistors)"
            ),
            CoreError::EmptyTrainingSet => write!(f, "training corpus is empty"),
            CoreError::Unsupported(msg) => write!(f, "unsupported cell structure: {msg}"),
            CoreError::SolverDiverged { cell, nets } => {
                write!(
                    f,
                    "solver oscillated on `{cell}` (nets: {})",
                    nets.join(", ")
                )
            }
            CoreError::BudgetExceeded { cell, resource } => {
                write!(
                    f,
                    "budget exceeded while characterizing `{cell}`: {resource}"
                )
            }
            CoreError::PrepareFailed { cell, source } => {
                write!(f, "preparing `{cell}` failed: {source}")
            }
            CoreError::Storage { path, source } => {
                write!(f, "storage failure at `{path}`: {source}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl CoreError {
    /// Tags a budgeted-simulation failure with the cell it happened on.
    pub(crate) fn from_sim(cell: &str, err: SimError) -> CoreError {
        match err {
            SimError::Oscillated { nets } => CoreError::SolverDiverged {
                cell: cell.to_string(),
                nets,
            },
            SimError::BudgetExceeded { resource } => CoreError::BudgetExceeded {
                cell: cell.to_string(),
                resource: resource.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let err = CoreError::NoMatchingGroup {
            cell: "X".into(),
            inputs: 3,
            transistors: 8,
        };
        assert_eq!(
            err.to_string(),
            "no trained group for `X` (3 inputs, 8 transistors)"
        );
    }

    #[test]
    fn robustness_display_messages() {
        let err = CoreError::SolverDiverged {
            cell: "OSC".into(),
            nets: vec!["osc".into(), "oscfoot".into()],
        };
        assert_eq!(
            err.to_string(),
            "solver oscillated on `OSC` (nets: osc, oscfoot)"
        );
        let err = CoreError::BudgetExceeded {
            cell: "NAND2".into(),
            resource: "wall clock".into(),
        };
        assert_eq!(
            err.to_string(),
            "budget exceeded while characterizing `NAND2`: wall clock"
        );
        let err = CoreError::PrepareFailed {
            cell: "BAD".into(),
            source: "boom".into(),
        };
        assert_eq!(err.to_string(), "preparing `BAD` failed: boom");
        let err = CoreError::Storage {
            path: "/tmp/session.caj".into(),
            source: "permission denied".into(),
        };
        assert_eq!(
            err.to_string(),
            "storage failure at `/tmp/session.caj`: permission denied"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
