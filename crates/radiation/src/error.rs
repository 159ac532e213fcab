//! Radiation-model error type.

use std::fmt;

/// Errors produced by database lookups and campaign generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RadiationError {
    /// The database holds no entry for the requested cell kind.
    UnknownCellKind(String),
    /// The campaign configuration is inconsistent.
    Config(String),
}

impl fmt::Display for RadiationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadiationError::UnknownCellKind(kind) => {
                write!(f, "no database entry for cell kind `{kind}`")
            }
            RadiationError::Config(msg) => write!(f, "invalid campaign config: {msg}"),
        }
    }
}

impl std::error::Error for RadiationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_concise() {
        let e = RadiationError::UnknownCellKind("NAND9".into());
        assert!(e.to_string().contains("NAND9"));
        assert!(RadiationError::Config("cycles = 0".into())
            .to_string()
            .contains("cycles"));
    }
}
