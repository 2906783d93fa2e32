//! Minimal URI handling: absolute `http://host:port/path?query` URIs,
//! percent-encoding and redirect-target resolution.

use crate::WireError;
use std::fmt;
use std::str::FromStr;

/// An absolute HTTP(S) URI broken into components.
///
/// The `path` is stored percent-*encoded*, exactly as it travels on the
/// request line; use [`Uri::decoded_path`] for the filesystem-ish view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Uri {
    /// `http` or `https` (kept open for e.g. `dav`, `s3`).
    pub scheme: String,
    /// Host name (no brackets/IPv6 support — fine for simulated host names).
    pub host: String,
    /// Explicit or scheme-default port.
    pub port: u16,
    /// Percent-encoded absolute path, always starting with `/`.
    pub path: String,
    /// Query string without the leading `?`.
    pub query: Option<String>,
}

/// Default port for a URI scheme.
pub fn default_port(scheme: &str) -> u16 {
    match scheme {
        "https" => 443,
        "http" => 80,
        "xroot" | "root" => 1094,
        _ => 80,
    }
}

impl Uri {
    /// Build from components (path is taken as already encoded).
    pub fn new(scheme: &str, host: &str, port: u16, path: &str) -> Self {
        let path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };
        Uri { scheme: scheme.to_string(), host: host.to_string(), port, path, query: None }
    }

    /// `path?query` as sent on the request line.
    pub fn request_target(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }

    /// The port, unless it is the scheme's default (which an authority
    /// leaves out).
    pub fn explicit_port(&self) -> Option<u16> {
        (self.port != default_port(&self.scheme)).then_some(self.port)
    }

    /// `host:port`, omitting a scheme-default port.
    pub fn authority(&self) -> String {
        match self.explicit_port() {
            None => self.host.clone(),
            Some(port) => format!("{}:{port}", self.host),
        }
    }

    /// Percent-decoded path.
    pub fn decoded_path(&self) -> String {
        percent_decode(&self.path)
    }

    /// Resolve a `Location` header value against this URI: absolute URIs
    /// replace everything, absolute paths keep the authority. The result is
    /// held to what [`from_str`](Uri::from_str) accepts.
    pub fn resolve_location(&self, location: &str) -> Result<Uri, WireError> {
        if location.contains("://") {
            return location.parse();
        }
        let target = if location.starts_with('/') {
            location.to_string()
        } else {
            // Relative reference: resolve against the parent of this path.
            let base = match self.path.rfind('/') {
                Some(i) => &self.path[..=i],
                None => "/",
            };
            format!("{base}{location}")
        };
        check_text(location, &target)?;
        let (path, query) = split_query(&target);
        Ok(Uri { path, query, ..self.clone() })
    }

    /// Same URI with a different path (encoded) and no query.
    pub fn with_path(&self, path: &str) -> Uri {
        let mut u = self.clone();
        u.path = if path.starts_with('/') { path.to_string() } else { format!("/{path}") };
        u.query = None;
        u
    }
}

/// A control byte or a space in `part` (a host, or a path with its query)
/// is `BadUri`: whatever a URI holds ends up on a request line or in a
/// `Host:`/`Destination:` field, where a line break of the sender's choosing
/// is a header of the sender's choosing. `whole` is what the error shows.
fn check_text(whole: &str, part: &str) -> Result<(), WireError> {
    if part.bytes().any(|b| b <= b' ' || b == 0x7f) {
        return Err(WireError::BadUri(format!("{whole:?}: control byte or space")));
    }
    Ok(())
}

fn split_query(target: &str) -> (String, Option<String>) {
    match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    }
}

impl FromStr for Uri {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, WireError> {
        let (scheme, rest) =
            s.split_once("://").ok_or_else(|| WireError::BadUri(format!("{s}: missing scheme")))?;
        if scheme.is_empty() || !scheme.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'+') {
            return Err(WireError::BadUri(format!("{s}: bad scheme")));
        }
        let (authority, target) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if authority.is_empty() {
            return Err(WireError::BadUri(format!("{s}: empty authority")));
        }
        let (host, port) = match authority.rsplit_once(':') {
            Some((h, p)) => {
                let port: u16 =
                    p.parse().map_err(|_| WireError::BadUri(format!("{s}: bad port {p:?}")))?;
                (h, port)
            }
            None => (authority, default_port(scheme)),
        };
        if host.is_empty() {
            return Err(WireError::BadUri(format!("{s}: empty host")));
        }
        check_text(s, host)?;
        check_text(s, target)?;
        let (path, query) = split_query(target);
        Ok(Uri { scheme: scheme.to_string(), host: host.to_string(), port, path, query })
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.authority(), self.request_target())
    }
}

/// Which bytes may appear raw in a path segment (RFC 3986 unreserved plus
/// the sub-delimiters commonly left unencoded in paths).
fn is_path_safe(b: u8) -> bool {
    b.is_ascii_alphanumeric()
        || matches!(b, b'-' | b'.' | b'_' | b'~' | b'/' | b'+' | b',' | b'=' | b':' | b'@')
}

/// Percent-encode a path (leaves `/` separators intact).
pub fn percent_encode_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for &b in path.as_bytes() {
        if is_path_safe(b) {
            out.push(b as char);
        } else {
            out.push('%');
            out.push(char::from_digit((b >> 4) as u32, 16).unwrap().to_ascii_uppercase());
            out.push(char::from_digit((b & 0xF) as u32, 16).unwrap().to_ascii_uppercase());
        }
    }
    out
}

/// Percent-decode (tolerates malformed escapes by passing them through).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let Some(hex) = bytes.get(i + 1..i + 3) {
                if let Ok(v) = u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16) {
                    out.push(v);
                    i += 3;
                    continue;
                }
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_uri() {
        let u: Uri = "http://dpm.cern.ch:8080/dpm/data/file.root?metalink".parse().unwrap();
        assert_eq!(u.scheme, "http");
        assert_eq!(u.host, "dpm.cern.ch");
        assert_eq!(u.port, 8080);
        assert_eq!(u.path, "/dpm/data/file.root");
        assert_eq!(u.query.as_deref(), Some("metalink"));
        assert_eq!(u.to_string(), "http://dpm.cern.ch:8080/dpm/data/file.root?metalink");
    }

    #[test]
    fn default_ports() {
        let u: Uri = "http://h/".parse().unwrap();
        assert_eq!(u.port, 80);
        assert_eq!(u.authority(), "h");
        let u: Uri = "https://h/x".parse().unwrap();
        assert_eq!(u.port, 443);
    }

    #[test]
    fn bare_authority_gets_root_path() {
        let u: Uri = "http://host".parse().unwrap();
        assert_eq!(u.path, "/");
        assert_eq!(u.request_target(), "/");
    }

    #[test]
    fn rejects_malformed() {
        assert!("no-scheme/path".parse::<Uri>().is_err());
        assert!("http://".parse::<Uri>().is_err());
        assert!("http://host:notaport/".parse::<Uri>().is_err());
        assert!("http://:80/".parse::<Uri>().is_err());
    }

    #[test]
    fn rejects_control_bytes_and_spaces_wherever_they_sit() {
        for bad in [
            "http://h\r\nX-Evil: 1/p",
            "http://h\rx/p",
            "http://h x/p",
            "http://h\0/p",
            "http://h/p\r\nX-Evil: 1",
            "http://h/a b",
            "http://h/p?q=\n",
            "http://h/p?q= ",
            "http://h/\x7f",
            "http://h\t:80/",
        ] {
            assert!(matches!(bad.parse::<Uri>(), Err(WireError::BadUri(_))), "{bad:?}");
        }
        let base: Uri = "http://a/dir/file".parse().unwrap();
        for bad in ["/x\r\nX-Evil: 1", "rel\rative", "/a b", "http://b\r\n/z", "/p?q=\n"] {
            assert!(matches!(base.resolve_location(bad), Err(WireError::BadUri(_))), "{bad:?}");
        }
        // Percent-encoded, they are just data.
        let ok: Uri = "http://h/a%20b%0D%0A?q=%0A".parse().unwrap();
        assert_eq!(ok.decoded_path(), "/a b\r\n");
    }

    #[test]
    fn resolve_absolute_location() {
        let base: Uri = "http://a/x/y".parse().unwrap();
        let r = base.resolve_location("http://b:81/z").unwrap();
        assert_eq!(r.to_string(), "http://b:81/z");
    }

    #[test]
    fn resolve_absolute_path_location() {
        let base: Uri = "http://a:8080/x/y?q=1".parse().unwrap();
        let r = base.resolve_location("/new/place?m").unwrap();
        assert_eq!(r.to_string(), "http://a:8080/new/place?m");
    }

    #[test]
    fn resolve_relative_location() {
        let base: Uri = "http://a/dir/file".parse().unwrap();
        let r = base.resolve_location("other").unwrap();
        assert_eq!(r.path, "/dir/other");
    }

    #[test]
    fn percent_roundtrip() {
        let raw = "/data/run 2014/file#1[ä].root";
        let enc = percent_encode_path(raw);
        assert!(!enc.contains(' '));
        assert!(!enc.contains('#'));
        assert_eq!(percent_decode(&enc), raw);
    }

    #[test]
    fn decode_tolerates_bad_escapes() {
        assert_eq!(percent_decode("a%zzb"), "a%zzb");
        assert_eq!(percent_decode("trailing%2"), "trailing%2");
        assert_eq!(percent_decode("%41"), "A");
    }
}
