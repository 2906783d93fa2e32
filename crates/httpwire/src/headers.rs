//! A case-insensitive, insertion-ordered, multi-valued header map.

use std::fmt;

/// HTTP header fields. Lookup is ASCII-case-insensitive; insertion order is
/// preserved (matters for `Set-Cookie`-style repeats and for deterministic
/// serialization).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    fields: Vec<(String, String)>,
}

impl HeaderMap {
    /// Empty map.
    pub fn new() -> Self {
        HeaderMap { fields: Vec::new() }
    }

    /// First value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.fields.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.fields
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Replace every value of `name` with a single value.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.remove(name);
        self.fields.push((name.to_string(), value.into()));
    }

    /// Add a value without disturbing existing ones.
    pub fn append(&mut self, name: &str, value: impl Into<String>) {
        self.fields.push((name.to_string(), value.into()));
    }

    /// Remove every value of `name`; returns whether anything was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.fields.len();
        self.fields.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before != self.fields.len()
    }

    /// Whether any value of `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of fields (counting repeats).
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterate `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    // ---- typed helpers -----------------------------------------------------

    /// Parsed `Content-Length`, if present and well-formed.
    pub fn content_length(&self) -> Option<u64> {
        self.get("content-length").and_then(|v| v.trim().parse().ok())
    }

    /// Whether `Transfer-Encoding` ends with `chunked` (RFC 7230 §3.3.3).
    pub fn is_chunked(&self) -> bool {
        self.get("transfer-encoding")
            .map(|v| {
                v.split(',')
                    .next_back()
                    .map(|t| t.trim().eq_ignore_ascii_case("chunked"))
                    .unwrap_or(false)
            })
            .unwrap_or(false)
    }

    /// Whether a `Connection` token matches `token` (case-insensitive).
    pub fn connection_has(&self, token: &str) -> bool {
        self.get_all("connection")
            .any(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case(token)))
    }

    /// The `adler32=<hex>` member of `Digest` (RFC 3230), lowercased.
    pub fn digest_adler32(&self) -> Option<String> {
        self.get("digest")?.split(',').find_map(|member| {
            let (algo, hex) = member.trim().split_once('=')?;
            algo.trim().eq_ignore_ascii_case("adler32").then(|| hex.trim().to_ascii_lowercase())
        })
    }

    /// Keep-alive decision per RFC 7230 §6.3 for a message of `version`.
    pub fn keep_alive(&self, http11: bool) -> bool {
        if self.connection_has("close") {
            return false;
        }
        if http11 {
            true
        } else {
            self.connection_has("keep-alive")
        }
    }
}

impl fmt::Display for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, v) in self.iter() {
            writeln!(f, "{n}: {v}\r")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a HeaderMap {
    type Item = (&'a str, &'a str);
    type IntoIter = Box<dyn Iterator<Item = (&'a str, &'a str)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.fields.iter().map(|(n, v)| (n.as_str(), v.as_str())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut h = HeaderMap::new();
        h.set("Content-Type", "text/plain");
        assert_eq!(h.get("content-type"), Some("text/plain"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/plain"));
        assert!(h.contains("CoNtEnT-tYpE"));
    }

    #[test]
    fn set_replaces_append_accumulates() {
        let mut h = HeaderMap::new();
        h.append("Via", "a");
        h.append("via", "b");
        assert_eq!(h.get_all("VIA").collect::<Vec<_>>(), vec!["a", "b"]);
        h.set("Via", "c");
        assert_eq!(h.get_all("via").collect::<Vec<_>>(), vec!["c"]);
    }

    #[test]
    fn remove_reports_presence() {
        let mut h = HeaderMap::new();
        h.set("X", "1");
        assert!(h.remove("x"));
        assert!(!h.remove("x"));
        assert!(h.is_empty());
    }

    #[test]
    fn content_length_parsing() {
        let mut h = HeaderMap::new();
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length(), Some(42));
        h.set("Content-Length", "nope");
        assert_eq!(h.content_length(), None);
    }

    #[test]
    fn chunked_detection() {
        let mut h = HeaderMap::new();
        h.set("Transfer-Encoding", "gzip, chunked");
        assert!(h.is_chunked());
        h.set("Transfer-Encoding", "chunked, gzip");
        assert!(!h.is_chunked());
        h.remove("Transfer-Encoding");
        assert!(!h.is_chunked());
    }

    #[test]
    fn keep_alive_rules() {
        let mut h = HeaderMap::new();
        assert!(h.keep_alive(true), "HTTP/1.1 default is persistent");
        assert!(!h.keep_alive(false), "HTTP/1.0 default is close");
        h.set("Connection", "keep-alive");
        assert!(h.keep_alive(false));
        h.set("Connection", "close");
        assert!(!h.keep_alive(true));
        h.set("Connection", "Keep-Alive, Upgrade");
        assert!(h.keep_alive(false));
    }

    #[test]
    fn digest_adler32_is_case_insensitive_and_picks_its_member() {
        let mut h = HeaderMap::new();
        assert_eq!(h.digest_adler32(), None);
        h.set("DIGEST", "md5=abc, ADLER32 = 0A1B2C3D ,crc32=1");
        assert_eq!(h.digest_adler32().as_deref(), Some("0a1b2c3d"));
        h.set("Digest", "md5=abc");
        assert_eq!(h.digest_adler32(), None);
    }

    #[test]
    fn insertion_order_preserved_in_display() {
        let mut h = HeaderMap::new();
        h.append("B", "2");
        h.append("A", "1");
        let s = h.to_string();
        assert!(s.find("B: 2").unwrap() < s.find("A: 1").unwrap());
    }
}
