//! Workspace-wide error type.

use std::fmt;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by orv services.
#[derive(Debug)]
pub enum Error {
    /// A named table/view/chunk/attribute was not found.
    NotFound(String),
    /// Schema-level mismatch: wrong type, missing attribute, arity error.
    Schema(String),
    /// Malformed chunk bytes or layout description.
    Format(String),
    /// A query string failed to parse.
    Parse(String),
    /// Logical plan could not be constructed or executed.
    Plan(String),
    /// The cluster runtime failed (a node panicked, a channel closed early).
    Cluster(String),
    /// Invalid configuration (zero nodes, empty grid, ...).
    Config(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A checksum mismatch: stored/transmitted bytes failed verification.
    Integrity(String),
    /// The query was cancelled by its caller.
    Cancelled,
    /// The query ran past its deadline.
    DeadlineExceeded,
    /// Admission control rejected the query: the queue is full, or the
    /// shedder refused the work class under pressure. Carries the
    /// observed queue depth and the configured cap so operators can size
    /// queues from logs instead of guessing, plus a `retry_after_ms`
    /// hint — callers must back off at least that long instead of
    /// re-submitting immediately (retrying into an overloaded service is
    /// how retry storms start).
    Overloaded {
        /// Jobs observed in the queue at rejection time.
        queued: usize,
        /// The configured queue capacity.
        cap: usize,
        /// Suggested minimum client backoff before retrying, in ms.
        retry_after_ms: u64,
    },
    /// A federated query could not reach what it needed: in strict mode,
    /// a scan's chunks no replica answered; in either mode, a whole
    /// statement (a join, a view read, view DDL) no shard answered, unless
    /// the last shard tried was overloaded ([`Error::Overloaded`]).
    /// Carries the number of missing chunks (0 for a whole statement)
    /// for log-based diagnosis.
    Unavailable {
        /// Chunks whose every replica was unreachable or refused a
        /// re-issue; 0 for a whole statement.
        missing_chunks: usize,
        /// Human-readable description of what was unreachable.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(what) => write!(f, "not found: {what}"),
            Error::Schema(msg) => write!(f, "schema error: {msg}"),
            Error::Format(msg) => write!(f, "format error: {msg}"),
            Error::Parse(msg) => write!(f, "parse error: {msg}"),
            Error::Plan(msg) => write!(f, "plan error: {msg}"),
            Error::Cluster(msg) => write!(f, "cluster error: {msg}"),
            Error::Config(msg) => write!(f, "config error: {msg}"),
            Error::Io(e) => write!(f, "io error: {e}"),
            Error::Integrity(msg) => write!(f, "integrity error: {msg}"),
            Error::Cancelled => write!(f, "query cancelled"),
            Error::DeadlineExceeded => write!(f, "query deadline exceeded"),
            Error::Overloaded {
                queued,
                cap,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "service overloaded: {queued} queued (cap {cap}), retry after {retry_after_ms}ms"
                )
            }
            Error::Unavailable {
                missing_chunks,
                detail,
            } => {
                write!(
                    f,
                    "shards unavailable: {missing_chunks} chunks missing: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// Shorthand for a [`Error::NotFound`] with a formatted subject.
    pub fn not_found(what: impl Into<String>) -> Self {
        Error::NotFound(what.into())
    }

    /// True for [`Error::Cancelled`] and [`Error::DeadlineExceeded`]:
    /// the caller asked for the unwind, so retries and plan-level
    /// failover must not fight it.
    pub fn is_cancellation(&self) -> bool {
        matches!(self, Error::Cancelled | Error::DeadlineExceeded)
    }

    /// The backoff hint carried by [`Error::Overloaded`], if any.
    /// Federation and service retry loops consult this before deciding
    /// whether (and when) a rejected submission may be re-issued.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Error::Overloaded { retry_after_ms, .. } => Some(*retry_after_ms),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = Error::Schema("attribute `wp` missing".into());
        assert_eq!(e.to_string(), "schema error: attribute `wp` missing");
        let e = Error::not_found("table t9");
        assert_eq!(e.to_string(), "not found: table t9");
    }

    #[test]
    fn io_error_is_wrapped_and_sourced() {
        use std::error::Error as _;
        let io = std::io::Error::other("disk on fire");
        let e: Error = io.into();
        assert!(e.to_string().contains("disk on fire"));
        assert!(e.source().is_some());
    }

    #[test]
    fn cancellation_classification() {
        assert!(Error::Cancelled.is_cancellation());
        assert!(Error::DeadlineExceeded.is_cancellation());
        assert!(!Error::Integrity("crc mismatch".into()).is_cancellation());
        assert_eq!(Error::Cancelled.to_string(), "query cancelled");
        assert_eq!(
            Error::DeadlineExceeded.to_string(),
            "query deadline exceeded"
        );
        assert!(Error::Integrity("x".into())
            .to_string()
            .contains("integrity"));
    }

    #[test]
    fn overloaded_is_typed_and_descriptive() {
        let e = Error::Overloaded {
            queued: 8,
            cap: 8,
            retry_after_ms: 25,
        };
        assert!(e.to_string().contains("overloaded"), "{e}");
        assert!(e.to_string().contains("cap 8"), "{e}");
        assert!(e.to_string().contains("8 queued"), "{e}");
        assert!(e.to_string().contains("retry after 25ms"), "{e}");
        assert!(!e.is_cancellation());
        assert_eq!(e.retry_after_ms(), Some(25));
        assert_eq!(Error::Cancelled.retry_after_ms(), None);
    }

    #[test]
    fn unavailable_carries_missing_chunk_count() {
        let e = Error::Unavailable {
            missing_chunks: 3,
            detail: "shard 1 down".into(),
        };
        assert!(e.to_string().contains("3 chunks missing"), "{e}");
        assert!(e.to_string().contains("shard 1 down"), "{e}");
        assert!(!e.is_cancellation());
    }

    #[test]
    fn result_alias_is_usable() {
        fn f(ok: bool) -> Result<u32> {
            if ok {
                Ok(1)
            } else {
                Err(Error::Config("no".into()))
            }
        }
        assert_eq!(f(true).unwrap(), 1);
        assert!(f(false).is_err());
    }
}
