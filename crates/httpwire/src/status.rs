//! HTTP status codes.

use std::fmt;

/// An HTTP status code (100–599).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    pub const OK: StatusCode = StatusCode(200);
    pub const CREATED: StatusCode = StatusCode(201);
    pub const NO_CONTENT: StatusCode = StatusCode(204);
    pub const PARTIAL_CONTENT: StatusCode = StatusCode(206);
    pub const MULTI_STATUS: StatusCode = StatusCode(207);
    pub const FOUND: StatusCode = StatusCode(302);
    pub const TEMPORARY_REDIRECT: StatusCode = StatusCode(307);
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    pub const FORBIDDEN: StatusCode = StatusCode(403);
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    pub const METHOD_NOT_ALLOWED: StatusCode = StatusCode(405);
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    pub const CONFLICT: StatusCode = StatusCode(409);
    pub const REQUEST_HEADER_FIELDS_TOO_LARGE: StatusCode = StatusCode(431);
    pub const RANGE_NOT_SATISFIABLE: StatusCode = StatusCode(416);
    pub const INTERNAL_SERVER_ERROR: StatusCode = StatusCode(500);
    pub const NOT_IMPLEMENTED: StatusCode = StatusCode(501);
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// The interim `100 Continue` (RFC 7231 §5.1.1 / §6.2.1).
    pub const CONTINUE: StatusCode = StatusCode(100);

    /// 1xx — interim responses; never the final word on a request.
    pub(crate) fn is_informational(self) -> bool {
        (100..200).contains(&self.0)
    }

    /// 2xx.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 3xx.
    pub fn is_redirect(self) -> bool {
        (300..400).contains(&self.0)
    }

    /// 5xx.
    pub fn is_server_error(self) -> bool {
        (500..600).contains(&self.0)
    }

    /// Canonical reason phrase (empty for unknown codes).
    pub fn reason(self) -> &'static str {
        match self.0 {
            100 => "Continue",
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            206 => "Partial Content",
            207 => "Multi-Status",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            307 => "Temporary Redirect",
            308 => "Permanent Redirect",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            411 => "Length Required",
            412 => "Precondition Failed",
            416 => "Range Not Satisfiable",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::PARTIAL_CONTENT.is_success());
        assert!(StatusCode::FOUND.is_redirect());
        assert!(StatusCode::SERVICE_UNAVAILABLE.is_server_error());
        assert!(!StatusCode::OK.is_redirect());
    }

    #[test]
    fn reasons() {
        assert_eq!(StatusCode::PARTIAL_CONTENT.reason(), "Partial Content");
        assert_eq!(StatusCode(299).reason(), "");
        assert_eq!(StatusCode::RANGE_NOT_SATISFIABLE.reason(), "Range Not Satisfiable");
    }
}
