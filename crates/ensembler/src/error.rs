//! Error type for the public Ensembler API.

use std::error::Error;
use std::fmt;

/// Errors returned by the Ensembler framework's public API.
///
/// # Examples
///
/// ```
/// use ensembler::EnsemblerError;
///
/// let err = EnsemblerError::InvalidSelection { selected: 5, available: 3 };
/// assert!(err.to_string().contains("5"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum EnsemblerError {
    /// The requested selection size `P` is invalid for the ensemble size `N`.
    InvalidSelection {
        /// Requested number of activated networks (P).
        selected: usize,
        /// Number of available server networks (N).
        available: usize,
    },
    /// A model configuration failed validation.
    InvalidConfig(String),
    /// A training or inference input did not match the expected shape.
    ShapeMismatch(String),
    /// Decoding intermediate features from the wire failed.
    WireFormat(String),
    /// The operation requires a dataset with at least one sample.
    EmptyDataset,
    /// The inference engine could not serve a request (for example because it
    /// is shutting down).
    Engine(String),
    /// A networked stage failed: the connection to a remote defense server
    /// broke, the peer sent a malformed frame, or it reported an error.
    Transport(String),
}

impl fmt::Display for EnsemblerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnsemblerError::InvalidSelection {
                selected,
                available,
            } => write!(
                f,
                "cannot activate {selected} of {available} server networks"
            ),
            EnsemblerError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EnsemblerError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            EnsemblerError::WireFormat(msg) => write!(f, "malformed wire payload: {msg}"),
            EnsemblerError::EmptyDataset => write!(f, "operation requires a non-empty dataset"),
            EnsemblerError::Engine(msg) => write!(f, "inference engine failure: {msg}"),
            EnsemblerError::Transport(msg) => write!(f, "transport failure: {msg}"),
        }
    }
}

impl Error for EnsemblerError {}

impl From<ensembler_tensor::bytes::DecodeError> for EnsemblerError {
    fn from(e: ensembler_tensor::bytes::DecodeError) -> Self {
        EnsemblerError::WireFormat(e.to_string())
    }
}

impl From<ensembler_tensor::ShapeError> for EnsemblerError {
    /// A typed shape failure from a compiled plan surfaces as
    /// [`EnsemblerError::ShapeMismatch`] at the pipeline boundary.
    fn from(err: ensembler_tensor::ShapeError) -> Self {
        EnsemblerError::ShapeMismatch(err.message().to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let cases: Vec<(EnsemblerError, &str)> = vec![
            (
                EnsemblerError::InvalidSelection {
                    selected: 4,
                    available: 2,
                },
                "cannot activate 4 of 2",
            ),
            (
                EnsemblerError::InvalidConfig("bad".into()),
                "invalid configuration: bad",
            ),
            (
                EnsemblerError::ShapeMismatch("x".into()),
                "shape mismatch: x",
            ),
            (
                EnsemblerError::WireFormat("short".into()),
                "malformed wire payload: short",
            ),
            (EnsemblerError::EmptyDataset, "non-empty dataset"),
            (
                EnsemblerError::Engine("shutdown".into()),
                "inference engine failure: shutdown",
            ),
            (
                EnsemblerError::Transport("connection reset".into()),
                "transport failure: connection reset",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn error_is_send_sync_and_std_error() {
        fn assert_traits<T: Error + Send + Sync>() {}
        assert_traits::<EnsemblerError>();
    }
}
