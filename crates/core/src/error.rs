//! davix error taxonomy, mirroring libdavix's `Davix::StatusCode` families.

use httpwire::{StatusCode, WireError};
use std::fmt;
use std::io;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, DavixError>;

/// Everything the I/O layer can report to a caller.
#[derive(Debug)]
pub enum DavixError {
    /// Could not establish or keep a transport connection.
    Connection(io::Error),
    /// The peer spoke malformed HTTP.
    Protocol(String),
    /// Server answered with an unexpected status (not otherwise classified).
    Http {
        /// The status received.
        status: StatusCode,
        /// What we were doing.
        context: String,
    },
    /// 404-family.
    NotFound(String),
    /// 401/403-family.
    PermissionDenied(String),
    /// Redirect chain exceeded the cap of 8 hops.
    RedirectLoop(u32),
    /// An operation exceeded its time budget.
    Timeout(String),
    /// Every replica of a resource failed.
    AllReplicasFailed {
        /// Number of replicas tried.
        tried: usize,
        /// The error from the final attempt.
        last: Box<DavixError>,
    },
    /// Metalink document missing or malformed.
    Metalink(String),
    /// Downloaded content does not match the Metalink-declared checksum.
    ChecksumMismatch {
        /// Digest algorithm that failed (e.g. `crc32`).
        algo: String,
        /// Digest declared by the Metalink.
        expected: String,
        /// Digest of the bytes actually received.
        got: String,
    },
    /// Caller misuse (bad URL, empty fragment list...).
    InvalidArgument(String),
}

impl DavixError {
    /// Classify an HTTP error status into the right variant.
    pub(crate) fn from_status(status: StatusCode, context: impl Into<String>) -> DavixError {
        let context = context.into();
        match status.0 {
            404 | 410 => DavixError::NotFound(context),
            401 | 403 => DavixError::PermissionDenied(context),
            _ => DavixError::Http { status, context },
        }
    }

    /// Whether retrying the same request might succeed (transport hiccups,
    /// 5xx) — per-replica retry policy uses this.
    pub(crate) fn is_retryable(&self) -> bool {
        match self {
            DavixError::Connection(_) | DavixError::Timeout(_) => true,
            DavixError::Http { status, .. } => status.is_server_error(),
            _ => false,
        }
    }

    /// Whether another *replica* could plausibly serve the request
    /// (fail-over policy): anything but caller errors, permission walls and
    /// errors that already *are* the verdict of a full replica walk
    /// ([`AllReplicasFailed`](Self::AllReplicasFailed) must not restart the
    /// walk that produced it, and a
    /// [`ChecksumMismatch`](Self::ChecksumMismatch) is computed over the
    /// assembled download, not one replica's answer).
    pub(crate) fn is_failover_candidate(&self) -> bool {
        !matches!(
            self,
            DavixError::InvalidArgument(_)
                | DavixError::PermissionDenied(_)
                | DavixError::AllReplicasFailed { .. }
                | DavixError::ChecksumMismatch { .. }
        )
    }
}

impl fmt::Display for DavixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DavixError::Connection(e) => write!(f, "connection error: {e}"),
            DavixError::Protocol(s) => write!(f, "protocol error: {s}"),
            DavixError::Http { status, context } => {
                write!(f, "http error {status} {}: {context}", status.reason())
            }
            DavixError::NotFound(s) => write!(f, "not found: {s}"),
            DavixError::PermissionDenied(s) => write!(f, "permission denied: {s}"),
            DavixError::RedirectLoop(n) => write!(f, "redirect loop (> {n} hops)"),
            DavixError::Timeout(s) => write!(f, "timeout: {s}"),
            DavixError::AllReplicasFailed { tried, last } => {
                write!(f, "all {tried} replicas failed; last error: {last}")
            }
            DavixError::Metalink(s) => write!(f, "metalink error: {s}"),
            DavixError::ChecksumMismatch { algo, expected, got } => {
                write!(f, "checksum mismatch ({algo}): metalink declares {expected}, got {got}")
            }
            DavixError::InvalidArgument(s) => write!(f, "invalid argument: {s}"),
        }
    }
}

impl std::error::Error for DavixError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DavixError::Connection(e) => Some(e),
            DavixError::AllReplicasFailed { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for DavixError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
                DavixError::Timeout(e.to_string())
            }
            _ => DavixError::Connection(e),
        }
    }
}

impl From<WireError> for DavixError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => io.into(),
            other => DavixError::Protocol(other.to_string()),
        }
    }
}

impl From<DavixError> for io::Error {
    fn from(e: DavixError) -> io::Error {
        let kind = match &e {
            DavixError::Connection(inner) => inner.kind(),
            DavixError::Timeout(_) => io::ErrorKind::TimedOut,
            DavixError::NotFound(_) => io::ErrorKind::NotFound,
            DavixError::PermissionDenied(_) => io::ErrorKind::PermissionDenied,
            DavixError::InvalidArgument(_) => io::ErrorKind::InvalidInput,
            _ => io::ErrorKind::Other,
        };
        io::Error::new(kind, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_classification() {
        assert!(matches!(
            DavixError::from_status(StatusCode::NOT_FOUND, "x"),
            DavixError::NotFound(_)
        ));
        assert!(matches!(
            DavixError::from_status(StatusCode::FORBIDDEN, "x"),
            DavixError::PermissionDenied(_)
        ));
        assert!(matches!(
            DavixError::from_status(StatusCode::SERVICE_UNAVAILABLE, "x"),
            DavixError::Http { .. }
        ));
    }

    #[test]
    fn retryability() {
        assert!(DavixError::from_status(StatusCode::SERVICE_UNAVAILABLE, "x").is_retryable());
        assert!(!DavixError::from_status(StatusCode::NOT_FOUND, "x").is_retryable());
        assert!(DavixError::Timeout("t".into()).is_retryable());
        assert!(!DavixError::InvalidArgument("a".into()).is_retryable());
    }

    #[test]
    fn failover_candidates() {
        assert!(
            DavixError::from_status(StatusCode::SERVICE_UNAVAILABLE, "x").is_failover_candidate()
        );
        // A 404 on one replica *is* a fail-over candidate: another replica
        // may hold the file (that is the whole point of §2.4).
        assert!(DavixError::from_status(StatusCode::NOT_FOUND, "x").is_failover_candidate());
        assert!(!DavixError::from_status(StatusCode::FORBIDDEN, "x").is_failover_candidate());
        assert!(!DavixError::InvalidArgument("x".into()).is_failover_candidate());
        // Terminal aggregates must not re-enter the fail-over loop that
        // produced them (nested replica walks) or re-download on corruption
        // detected over the *assembled* entity.
        assert!(!DavixError::AllReplicasFailed {
            tried: 2,
            last: Box::new(DavixError::Timeout("t".into())),
        }
        .is_failover_candidate());
        assert!(!DavixError::ChecksumMismatch {
            algo: "crc32".into(),
            expected: "aa".into(),
            got: "bb".into(),
        }
        .is_failover_candidate());
    }

    #[test]
    fn io_error_mapping() {
        let e: DavixError = io::Error::new(io::ErrorKind::TimedOut, "slow").into();
        assert!(matches!(e, DavixError::Timeout(_)));
        let back: io::Error = DavixError::NotFound("f".into()).into();
        assert_eq!(back.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn display_mentions_details() {
        let e = DavixError::AllReplicasFailed {
            tried: 3,
            last: Box::new(DavixError::Timeout("read".into())),
        };
        let s = e.to_string();
        assert!(s.contains('3'));
        assert!(s.contains("timeout"));
    }
}
