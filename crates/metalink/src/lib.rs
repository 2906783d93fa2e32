//! # metalink — RFC 5854 Metalink documents
//!
//! The paper's resiliency layer (§2.4) rests on Metalink: an XML document
//! listing the replicas of a resource with priorities, sizes and checksums.
//! davix fetches one when an access fails (*fail-over* strategy) or up front
//! (*multi-stream* strategy) and walks the replica list.
//!
//! This crate implements the subset of RFC 5854 those strategies need —
//! `<metalink><file><size/><hash/><url/></file></metalink>` — on top of a
//! small, hand-rolled XML reader/writer ([`xml`]).
//!
//! ```
//! use metalink::{Metalink, MetaFile, UrlRef};
//!
//! let mut f = MetaFile::new("events.root");
//! f.size = Some(700_000_000);
//! f.add_url(UrlRef::new("http://dpm1.cern.ch/data/events.root").priority(1));
//! f.add_url(UrlRef::new("http://dpm2.cern.ch/data/events.root").priority(2));
//! let doc = Metalink { files: vec![f] };
//! let xml = doc.to_xml();
//! let parsed = Metalink::parse(&xml).unwrap();
//! assert_eq!(parsed.files[0].sorted_urls()[0].url, "http://dpm1.cern.ch/data/events.root");
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod xml;

use std::fmt;
use xml::{Element, XmlError};

/// MIME type of Metalink v4 documents.
pub const METALINK_CONTENT_TYPE: &str = "application/metalink4+xml";

/// The RFC 5854 namespace.
pub(crate) const METALINK_NS: &str = "urn:ietf:params:xml:ns:metalink";

/// Errors raised while reading a Metalink document.
#[derive(Debug)]
pub enum MetalinkError {
    /// Underlying XML is malformed.
    Xml(XmlError),
    /// XML is well-formed but not a Metalink document.
    Schema(String),
}

impl fmt::Display for MetalinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetalinkError::Xml(e) => write!(f, "xml error: {e}"),
            MetalinkError::Schema(s) => write!(f, "not a metalink document: {s}"),
        }
    }
}

impl std::error::Error for MetalinkError {}

impl From<XmlError> for MetalinkError {
    fn from(e: XmlError) -> Self {
        MetalinkError::Xml(e)
    }
}

/// A checksum entry (`<hash type="sha-256">…</hash>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hash {
    /// Algorithm label (in-tree: `crc32`, the IEEE polynomial, and
    /// `adler32`).
    pub algo: String,
    /// Lower-case hex digest.
    pub value: String,
}

/// One replica location (`<url location="ch" priority="1">…</url>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UrlRef {
    /// Absolute URL of the replica.
    pub url: String,
    /// ISO 3166 country/location tag, if any.
    pub location: Option<String>,
    /// Priority, 1 = most preferred (RFC 5854 §4.2.10; defaults to 999 999).
    pub priority: u32,
}

impl UrlRef {
    /// A replica with default priority.
    pub fn new(url: impl Into<String>) -> Self {
        UrlRef { url: url.into(), location: None, priority: 999_999 }
    }

    /// Set the priority (builder style).
    pub fn priority(mut self, p: u32) -> Self {
        self.priority = p;
        self
    }

    /// Set the location tag (builder style).
    pub fn location(mut self, loc: impl Into<String>) -> Self {
        self.location = Some(loc.into());
        self
    }
}

/// One `<file>` entry: a named resource and its replicas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetaFile {
    /// File name (path-like identity of the resource).
    pub name: String,
    /// Size in bytes, when known.
    pub size: Option<u64>,
    /// Checksums.
    pub hashes: Vec<Hash>,
    /// Replica URLs.
    pub urls: Vec<UrlRef>,
}

impl MetaFile {
    /// An empty entry for `name`.
    pub fn new(name: impl Into<String>) -> Self {
        MetaFile { name: name.into(), ..Default::default() }
    }

    /// Append a replica.
    pub fn add_url(&mut self, url: UrlRef) {
        self.urls.push(url);
    }

    /// Replicas sorted by ascending priority (stable for equal priorities,
    /// preserving document order as RFC 5854 suggests).
    pub fn sorted_urls(&self) -> Vec<&UrlRef> {
        let mut v: Vec<&UrlRef> = self.urls.iter().collect();
        v.sort_by_key(|u| u.priority);
        v
    }

    /// First hash with the given algorithm label.
    pub fn hash(&self, algo: &str) -> Option<&str> {
        self.hashes.iter().find(|h| h.algo.eq_ignore_ascii_case(algo)).map(|h| h.value.as_str())
    }
}

/// A whole Metalink document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Metalink {
    /// File entries (davix uses exactly one per document).
    pub files: Vec<MetaFile>,
}

impl Metalink {
    /// Convenience constructor for the common one-file case.
    pub fn single(file: MetaFile) -> Self {
        Metalink { files: vec![file] }
    }

    /// Parse a Metalink v4 document.
    pub fn parse(s: &str) -> Result<Metalink, MetalinkError> {
        let root = xml::parse(s)?;
        if root.name != "metalink" {
            return Err(MetalinkError::Schema(format!("root element is <{}>", root.name)));
        }
        let mut files = Vec::new();
        for fe in root.find_all("file") {
            let name = fe
                .attr("name")
                .ok_or_else(|| MetalinkError::Schema("<file> without name".to_string()))?
                .to_string();
            let mut mf = MetaFile::new(name);
            if let Some(sz) = fe.find("size") {
                let t = sz.text();
                mf.size = Some(
                    t.trim()
                        .parse()
                        .map_err(|_| MetalinkError::Schema(format!("bad <size> {t:?}")))?,
                );
            }
            for he in fe.find_all("hash") {
                let algo = he.attr("type").unwrap_or("unknown").to_string();
                mf.hashes.push(Hash { algo, value: he.text().trim().to_string() });
            }
            for ue in fe.find_all("url") {
                let url = ue.text().trim().to_string();
                if url.is_empty() {
                    return Err(MetalinkError::Schema("empty <url>".to_string()));
                }
                let priority = match ue.attr("priority") {
                    Some(p) => p
                        .trim()
                        .parse()
                        .map_err(|_| MetalinkError::Schema(format!("bad priority {p:?}")))?,
                    None => 999_999,
                };
                mf.urls.push(UrlRef {
                    url,
                    location: ue.attr("location").map(|s| s.to_string()),
                    priority,
                });
            }
            files.push(mf);
        }
        if files.is_empty() {
            return Err(MetalinkError::Schema("no <file> entries".to_string()));
        }
        Ok(Metalink { files })
    }

    /// Serialize to Metalink v4 XML.
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("metalink");
        root.set_attr("xmlns", METALINK_NS);
        for f in &self.files {
            let mut fe = Element::new("file");
            fe.set_attr("name", &f.name);
            if let Some(sz) = f.size {
                let mut se = Element::new("size");
                se.add_text(sz.to_string());
                fe.add_child(se);
            }
            for h in &f.hashes {
                let mut he = Element::new("hash");
                he.set_attr("type", &h.algo);
                he.add_text(&h.value);
                fe.add_child(he);
            }
            for u in &f.urls {
                let mut ue = Element::new("url");
                if let Some(loc) = &u.location {
                    ue.set_attr("location", loc);
                }
                ue.set_attr("priority", u.priority.to_string());
                ue.add_text(&u.url);
                fe.add_child(ue);
            }
            root.add_child(fe);
        }
        format!("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n{}", root.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<metalink xmlns="urn:ietf:params:xml:ns:metalink">
  <file name="example.ext">
    <size>14471447</size>
    <hash type="sha-256">f0ad929cd259957e160ea442eb80986b5f01</hash>
    <url location="de" priority="1">http://ftp.example.de/example.ext</url>
    <url location="us" priority="2">http://mirror.example.com/example.ext</url>
    <url>http://last-resort.example.org/example.ext</url>
  </file>
</metalink>"#;

    #[test]
    fn parse_rfc_style_document() {
        let m = Metalink::parse(SAMPLE).unwrap();
        assert_eq!(m.files.len(), 1);
        let f = &m.files[0];
        assert_eq!(f.name, "example.ext");
        assert_eq!(f.size, Some(14_471_447));
        assert_eq!(f.hash("SHA-256"), Some("f0ad929cd259957e160ea442eb80986b5f01"));
        assert_eq!(f.urls.len(), 3);
        let sorted = f.sorted_urls();
        assert_eq!(sorted[0].url, "http://ftp.example.de/example.ext");
        assert_eq!(sorted[0].location.as_deref(), Some("de"));
        assert_eq!(sorted[2].priority, 999_999);
    }

    #[test]
    fn roundtrip() {
        let m = Metalink::parse(SAMPLE).unwrap();
        let xml = m.to_xml();
        let m2 = Metalink::parse(&xml).unwrap();
        assert_eq!(m, m2);
    }

    #[test]
    fn rejects_non_metalink_documents() {
        assert!(matches!(Metalink::parse("<html><body/></html>"), Err(MetalinkError::Schema(_))));
        assert!(matches!(
            Metalink::parse("<metalink xmlns=\"x\"></metalink>"),
            Err(MetalinkError::Schema(_))
        ));
        assert!(Metalink::parse("not xml at all").is_err());
    }

    #[test]
    fn rejects_bad_fields() {
        let bad_size = SAMPLE.replace("14471447", "lots");
        assert!(Metalink::parse(&bad_size).is_err());
        let bad_prio = SAMPLE.replace("priority=\"1\"", "priority=\"soon\"");
        assert!(Metalink::parse(&bad_prio).is_err());
        let no_name = SAMPLE.replace(" name=\"example.ext\"", "");
        assert!(Metalink::parse(&no_name).is_err());
    }

    #[test]
    fn urls_with_xml_special_chars_survive() {
        let mut f = MetaFile::new("weird & wonderful <file>");
        f.add_url(UrlRef::new("http://h/path?a=1&b=<2>").priority(1));
        let doc = Metalink::single(f);
        let xml = doc.to_xml();
        let parsed = Metalink::parse(&xml).unwrap();
        assert_eq!(parsed.files[0].name, "weird & wonderful <file>");
        assert_eq!(parsed.files[0].urls[0].url, "http://h/path?a=1&b=<2>");
    }

    #[test]
    fn stable_sort_preserves_document_order_for_ties() {
        let mut f = MetaFile::new("f");
        f.add_url(UrlRef::new("http://a/").priority(5));
        f.add_url(UrlRef::new("http://b/").priority(5));
        f.add_url(UrlRef::new("http://c/").priority(1));
        let sorted = f.sorted_urls();
        assert_eq!(sorted[0].url, "http://c/");
        assert_eq!(sorted[1].url, "http://a/");
        assert_eq!(sorted[2].url, "http://b/");
    }
}
