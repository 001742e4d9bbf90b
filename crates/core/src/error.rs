//! Unified error type for the engine facade.

use pimento_index::PersistError;
use pimento_profile::ConflictError;
use pimento_tpq::ParseError;
use pimento_xml::XmlError;
use std::fmt;

/// Anything that can fail while loading documents or answering a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Document parsing failed.
    Xml(XmlError),
    /// Query parsing failed.
    Query(ParseError),
    /// Scoping rules form an unresolvable conflict cycle.
    Conflict(ConflictError),
    /// A collection snapshot failed to decode.
    Snapshot(PersistError),
    /// `k` must be positive.
    InvalidK,
    /// A sharded-engine invariant was violated (e.g. mutating a
    /// multi-segment engine, or an answer outside every segment).
    Shard(&'static str),
    /// A filesystem operation on a sharded snapshot directory failed.
    Io(String),
    /// The disk is full (`ENOSPC`). Distinguished from [`Error::Io`] so
    /// callers can report it as retryable — the previous generation is
    /// still served and the write can be retried after space frees.
    DiskFull(String),
    /// An ingest request was invalid (empty batch, unknown doc id, …).
    Ingest(String),
}

/// Wrap an I/O error for `path`, classifying `ENOSPC` as
/// [`Error::DiskFull`] and everything else as [`Error::Io`].
pub fn classify_io(path: &std::path::Path, e: &std::io::Error) -> Error {
    if pimento_faults::vfs::is_disk_full(e) {
        Error::DiskFull(format!("{}: {e}", path.display()))
    } else {
        Error::Io(format!("{}: {e}", path.display()))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Xml(e) => write!(f, "XML error: {e}"),
            Error::Query(e) => write!(f, "query error: {e}"),
            Error::Conflict(e) => write!(f, "profile error: {e}"),
            Error::Snapshot(e) => write!(f, "snapshot error: {e}"),
            Error::InvalidK => write!(f, "k must be at least 1"),
            Error::Shard(why) => write!(f, "shard error: {why}"),
            Error::Io(why) => write!(f, "io error: {why}"),
            Error::DiskFull(why) => write!(f, "disk full: {why}"),
            Error::Ingest(why) => write!(f, "ingest error: {why}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Xml(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::Conflict(e) => Some(e),
            Error::Snapshot(e) => Some(e),
            Error::InvalidK
            | Error::Shard(_)
            | Error::Io(_)
            | Error::DiskFull(_)
            | Error::Ingest(_) => None,
        }
    }
}

impl From<XmlError> for Error {
    fn from(e: XmlError) -> Self {
        Error::Xml(e)
    }
}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Query(e)
    }
}

impl From<ConflictError> for Error {
    fn from(e: ConflictError) -> Self {
        Error::Conflict(e)
    }
}

impl From<PersistError> for Error {
    fn from(e: PersistError) -> Self {
        Error::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = pimento_tpq::parse_tpq("//a[").unwrap_err().into();
        assert!(matches!(e, Error::Query(_)));
        assert!(e.to_string().contains("query error"));
        assert!(Error::InvalidK.to_string().contains("k"));
    }
}
