//! Error types for RAT analyses.
//!
//! [`RatError`] is the single taxonomy for every fallible step of the model
//! pipeline — worksheet validation, quantity parsing, inverse solves and
//! simulator runs. Each variant corresponds to one class of failure so
//! callers (notably the CLI) can map classes to distinct exit codes; see
//! DESIGN.md §10 for the mapping.

use std::fmt;

/// Errors produced by RAT analyses.
#[derive(Debug, Clone, PartialEq)]
pub enum RatError {
    /// An input parameter failed validation. The string names the parameter and
    /// the constraint it violated.
    InvalidParameter(String),
    /// A dimensioned quantity could not be parsed or is out of range. Carries
    /// the worksheet field it came from, so the report says *which* field and
    /// *which* unit was wrong.
    InvalidQuantity {
        /// The worksheet field (dotted path, e.g. `comp.fclock`).
        field: String,
        /// What was wrong with it.
        message: String,
    },
    /// An inverse solve has no feasible solution (e.g. the communication time
    /// alone already exceeds the execution-time budget for the target speedup).
    Infeasible(String),
    /// The cycle simulator diverged or rejected its inputs (bad clock,
    /// mismatched batch count, non-finite makespan).
    Simulation(String),
}

impl RatError {
    pub(crate) fn param(msg: impl Into<String>) -> Self {
        RatError::InvalidParameter(msg.into())
    }

    pub(crate) fn infeasible(msg: impl Into<String>) -> Self {
        RatError::Infeasible(msg.into())
    }

    /// An invalid-quantity error naming the offending worksheet field.
    pub fn quantity(field: impl Into<String>, message: impl Into<String>) -> Self {
        RatError::InvalidQuantity {
            field: field.into(),
            message: message.into(),
        }
    }

    /// A simulator-side failure.
    pub fn simulation(msg: impl Into<String>) -> Self {
        RatError::Simulation(msg.into())
    }
}

impl fmt::Display for RatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatError::InvalidParameter(msg) => write!(f, "invalid RAT parameter: {msg}"),
            RatError::InvalidQuantity { field, message } => {
                write!(f, "invalid quantity in field `{field}`: {message}")
            }
            RatError::Infeasible(msg) => write!(f, "infeasible: {msg}"),
            RatError::Simulation(msg) => write!(f, "simulation failed: {msg}"),
        }
    }
}

impl std::error::Error for RatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = RatError::param("alpha_write must be in (0, 1]");
        assert!(e.to_string().contains("alpha_write"));
        let e = RatError::infeasible("communication alone exceeds budget");
        assert!(e.to_string().starts_with("infeasible"));
    }

    #[test]
    fn quantity_errors_name_their_field() {
        let e = RatError::quantity("comp.fclock", "must be positive, got 0 Hz");
        let s = e.to_string();
        assert!(s.contains("comp.fclock"), "{s}");
        assert!(s.contains("positive"), "{s}");
    }

    #[test]
    fn simulator_and_io_classes_are_distinct() {
        // I/O failures are the CLI's own class (exit 6), never a `RatError`:
        // the simulator class stays apart from every pipeline class.
        assert_ne!(
            RatError::simulation("diverged"),
            RatError::param("diverged")
        );
        assert_ne!(
            RatError::simulation("diverged"),
            RatError::infeasible("diverged")
        );
        assert!(RatError::simulation("x")
            .to_string()
            .starts_with("simulation"));
    }
}
