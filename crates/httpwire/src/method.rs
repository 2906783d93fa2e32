//! HTTP request methods, including the WebDAV subset DPM-style storage
//! frontends speak.

use std::fmt;
use std::str::FromStr;

use crate::WireError;

/// An HTTP request method.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Method {
    /// Safe, cacheable, idempotent object read (§2.1 of the paper).
    Get,
    /// Like GET without a body; used for `stat`.
    Head,
    /// Idempotent object-level write (atomic create or replace).
    Put,
    /// Idempotent object removal.
    Delete,
    /// Non-idempotent submission (unused by davix, parsed for completeness).
    Post,
    /// Capability discovery.
    Options,
    /// WebDAV: property/metadata listing (directory listing on DPM).
    Propfind,
    /// WebDAV: collection (directory) creation.
    Mkcol,
    /// WebDAV: rename/move.
    Move,
    /// Any method this library has no special knowledge of.
    Extension(String),
}

impl Method {
    /// Method string as it appears on the request line.
    pub fn as_str(&self) -> &str {
        match self {
            Method::Get => "GET",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Post => "POST",
            Method::Options => "OPTIONS",
            Method::Propfind => "PROPFIND",
            Method::Mkcol => "MKCOL",
            Method::Move => "MOVE",
            Method::Extension(s) => s,
        }
    }

    /// RFC 7231 §4.2.1: safe methods never modify server state; responses to
    /// HEAD carry no body regardless of framing headers.
    pub(crate) fn is_safe(&self) -> bool {
        matches!(self, Method::Get | Method::Head | Method::Options | Method::Propfind)
    }

    /// Idempotent methods may be retried without side effects — davix's retry
    /// policy only re-dispatches these automatically.
    pub fn is_idempotent(&self) -> bool {
        self.is_safe() || matches!(self, Method::Put | Method::Delete)
    }
}

impl FromStr for Method {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, WireError> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_uppercase() || b == b'-') {
            return Err(WireError::BadStartLine(format!("bad method {s:?}")));
        }
        Ok(match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "POST" => Method::Post,
            "OPTIONS" => Method::Options,
            "PROPFIND" => Method::Propfind,
            "MKCOL" => Method::Mkcol,
            "MOVE" => Method::Move,
            other => Method::Extension(other.to_string()),
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_known_methods() {
        assert_eq!("GET".parse::<Method>().unwrap(), Method::Get);
        assert_eq!("PROPFIND".parse::<Method>().unwrap(), Method::Propfind);
        assert_eq!("PATCH".parse::<Method>().unwrap(), Method::Extension("PATCH".to_string()));
    }

    #[test]
    fn reject_garbage() {
        assert!("".parse::<Method>().is_err());
        assert!("get".parse::<Method>().is_err());
        assert!("GE T".parse::<Method>().is_err());
    }

    #[test]
    fn safety_and_idempotence() {
        assert!(Method::Get.is_safe());
        assert!(Method::Head.is_idempotent());
        assert!(!Method::Put.is_safe());
        assert!(Method::Put.is_idempotent());
        assert!(Method::Delete.is_idempotent());
        assert!(!Method::Post.is_idempotent());
        assert!(!Method::Extension("PATCH".into()).is_idempotent());
    }

    #[test]
    fn display_matches_wire_form() {
        assert_eq!(Method::Mkcol.to_string(), "MKCOL");
        assert_eq!(Method::Extension("LOCK".into()).to_string(), "LOCK");
    }
}
