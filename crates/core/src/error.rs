//! Typed errors for the fallible LATEST APIs.

use crate::config::ConfigError;
use geostream::PersistError;

/// What went wrong on a LATEST operation.
#[derive(Debug, Clone, PartialEq)]
pub enum LatestError {
    /// The configuration failed validation.
    Config(ConfigError),
    /// The engine backing this handle has been shut down (its shard or
    /// serving workers are gone); no further queries can be answered
    /// consistently with the stream.
    PipelineShutDown,
    /// A non-blocking call found the instance locked by another thread.
    WouldBlock,
    /// The OS refused to spawn a serving thread (resource exhaustion).
    Spawn {
        /// Which thread failed (`"latest-shard"`, `"latest-serving"` or
        /// `"latest-scraper"`).
        thread: &'static str,
        /// The OS error text.
        reason: String,
    },
    /// A snapshot could not be written, read, or decoded (see the wrapped
    /// [`PersistError`] for whether it was I/O, truncation, corruption, or
    /// a version/configuration mismatch).
    Persist(PersistError),
}

impl std::fmt::Display for LatestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LatestError::Config(e) => write!(f, "invalid configuration: {e}"),
            LatestError::PipelineShutDown => write!(f, "pipeline has shut down"),
            LatestError::WouldBlock => {
                write!(f, "instance is busy; non-blocking call would block")
            }
            LatestError::Spawn { thread, reason } => {
                write!(f, "failed to spawn pipeline thread `{thread}`: {reason}")
            }
            LatestError::Persist(e) => write!(f, "snapshot persistence failed: {e}"),
        }
    }
}

impl std::error::Error for LatestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LatestError::Config(e) => Some(e),
            LatestError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for LatestError {
    fn from(e: ConfigError) -> Self {
        LatestError::Config(e)
    }
}

impl From<PersistError> for LatestError {
    fn from(e: PersistError) -> Self {
        LatestError::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_chains() {
        let e = LatestError::from(ConfigError::TauOutOfRange(2.0));
        assert!(e.to_string().contains("invalid configuration"));
        assert!(e.source().is_some());
        assert!(LatestError::PipelineShutDown.source().is_none());
        assert!(LatestError::WouldBlock.to_string().contains("busy"));
        let spawn = LatestError::Spawn {
            thread: "latest-shard",
            reason: "out of threads".into(),
        };
        assert!(spawn.to_string().contains("latest-shard"));
    }
}
