//! Error type for the networked serving layer.

use crate::protocol::WireError;
use ensembler::EnsemblerError;
use std::error::Error;
use std::fmt;

/// Everything that can go wrong while speaking the wire protocol or serving
/// a defense over it.
///
/// # Examples
///
/// ```
/// use ensembler_serve::ServeError;
///
/// let err = ServeError::Frame("bad magic".to_string());
/// assert!(err.to_string().contains("bad magic"));
/// ```
#[derive(Debug)]
pub enum ServeError {
    /// The underlying socket failed (includes unexpected EOF).
    Io(std::io::Error),
    /// A frame or payload could not be parsed.
    Frame(String),
    /// A frame parsed but its CRC-32 did not match.
    Checksum {
        /// The checksum computed over the received bytes.
        expected: u32,
        /// The checksum the frame carried.
        found: u32,
    },
    /// The peer speaks a protocol version this build cannot.
    UnsupportedVersion {
        /// The version the peer offered or stamped on the frame.
        offered: u16,
        /// The highest version this build supports.
        supported: u16,
    },
    /// The peer reported an error over the wire.
    Remote(WireError),
    /// The peer sent a legal message that is not valid in the current
    /// connection state.
    Protocol(String),
    /// A model registry was misconfigured (bad model name or spec, duplicate
    /// registration).
    Registry(String),
    /// The local defense pipeline failed.
    Defense(EnsemblerError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "socket failure: {e}"),
            ServeError::Frame(msg) => write!(f, "malformed frame: {msg}"),
            ServeError::Checksum { expected, found } => write!(
                f,
                "checksum mismatch: computed {expected:#010x}, frame carried {found:#010x}"
            ),
            ServeError::UnsupportedVersion { offered, supported } => write!(
                f,
                "unsupported protocol version {offered} (this build speaks up to {supported})"
            ),
            ServeError::Remote(wire) => {
                write!(f, "peer reported {:?}: {}", wire.code, wire.message)
            }
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Registry(msg) => write!(f, "model registry error: {msg}"),
            ServeError::Defense(e) => write!(f, "defense failure: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Defense(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ensembler_tensor::bytes::DecodeError> for ServeError {
    fn from(e: ensembler_tensor::bytes::DecodeError) -> Self {
        ServeError::Frame(e.to_string())
    }
}

impl From<EnsemblerError> for ServeError {
    fn from(e: EnsemblerError) -> Self {
        ServeError::Defense(e)
    }
}

impl From<ServeError> for EnsemblerError {
    /// Collapses a serving failure into the [`EnsemblerError::Transport`]
    /// variant so [`crate::RemoteDefense`] can satisfy the
    /// [`ensembler::Defense`] signatures.
    fn from(e: ServeError) -> Self {
        match e {
            ServeError::Defense(inner) => inner,
            other => EnsemblerError::Transport(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ErrorCode;

    #[test]
    fn display_messages_are_informative() {
        let io: ServeError = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof").into();
        assert!(io.to_string().contains("socket failure"));
        assert!(ServeError::Checksum {
            expected: 1,
            found: 2
        }
        .to_string()
        .contains("checksum mismatch"));
        assert!(ServeError::UnsupportedVersion {
            offered: 9,
            supported: 1
        }
        .to_string()
        .contains("version 9"));
        assert!(ServeError::Remote(WireError {
            code: ErrorCode::Inference,
            message: "bad shape".to_string()
        })
        .to_string()
        .contains("bad shape"));
    }

    #[test]
    fn defense_errors_pass_through_the_conversion() {
        let original = EnsemblerError::EmptyDataset;
        let through: EnsemblerError = ServeError::Defense(original.clone()).into();
        assert_eq!(through, original);
        let transport: EnsemblerError = ServeError::Frame("junk".to_string()).into();
        assert!(matches!(transport, EnsemblerError::Transport(_)));
    }
}
