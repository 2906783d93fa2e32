//! A small, dependency-free XML reader and writer.
//!
//! Supports exactly what Metalink documents (and the WebDAV PROPFIND bodies
//! in `objstore`) need: elements, attributes (single- or double-quoted),
//! character data with entity escaping, comments, processing instructions
//! and self-closing tags. Not supported (rejected or ignored, never
//! misparsed): DOCTYPE internal subsets, CDATA sections, namespaces beyond
//! carrying prefixes verbatim.

use std::fmt;

/// Errors from the XML reader.
#[derive(Debug, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended inside a construct.
    UnexpectedEof,
    /// A syntax violation at byte offset, with explanation.
    Syntax(usize, String),
    /// Close tag did not match the open tag.
    MismatchedTag { expected: String, found: String },
    /// Document contains no root element.
    NoRoot,
    /// Bytes after the root element (other than whitespace/comments).
    TrailingContent,
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof => write!(f, "unexpected end of input"),
            XmlError::Syntax(at, msg) => write!(f, "syntax error at byte {at}: {msg}"),
            XmlError::MismatchedTag { expected, found } => {
                write!(f, "mismatched tag: expected </{expected}>, found </{found}>")
            }
            XmlError::NoRoot => write!(f, "no root element"),
            XmlError::TrailingContent => write!(f, "content after root element"),
        }
    }
}

impl std::error::Error for XmlError {}

/// A node in the element tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Child element.
    Element(Element),
    /// Character data (entity-decoded).
    Text(String),
}

/// An XML element: name, attributes, children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element {
    /// Tag name (namespace prefixes kept verbatim).
    pub name: String,
    /// Attributes in document order (entity-decoded values).
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// An element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Set (replace) an attribute.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.attrs.retain(|(n, _)| *n != name);
        self.attrs.push((name, value.into()));
    }

    /// Attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Append a child element.
    pub fn add_child(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Append character data.
    pub fn add_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// First child element with a matching name (local-name match: a prefix
    /// like `ml:` on either side is ignored).
    pub fn find(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| local_name(&e.name) == local_name(name))
    }

    /// All child elements with a matching name.
    pub fn find_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| local_name(&e.name) == local_name(name))
    }

    /// All child elements.
    pub(crate) fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    /// Concatenated character data of direct children.
    pub fn text(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                s.push_str(t);
            }
        }
        s
    }

    /// Serialize (no declaration), with entities escaped.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.name);
        for (n, v) in &self.attrs {
            out.push(' ');
            out.push_str(n);
            out.push_str("=\"");
            out.push_str(&escape(v, true));
            out.push('"');
        }
        if self.children.is_empty() {
            out.push_str("/>");
            return;
        }
        out.push('>');
        for c in &self.children {
            match c {
                Node::Element(e) => e.write(out),
                Node::Text(t) => out.push_str(&escape(t, false)),
            }
        }
        out.push_str("</");
        out.push_str(&self.name);
        out.push('>');
    }
}

fn local_name(name: &str) -> &str {
    match name.split_once(':') {
        Some((_, local)) => local,
        None => name,
    }
}

/// Escape character data (`attr` additionally escapes quotes).
pub fn escape(s: &str, attr: bool) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attr => out.push_str("&quot;"),
            '\'' if attr => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Decode the five predefined entities plus decimal/hex character refs.
pub fn unescape(s: &str) -> Result<String, XmlError> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let end = rest.find(';').ok_or_else(|| {
            XmlError::Syntax(s.len() - rest.len(), "unterminated entity".to_string())
        })?;
        let ent = &rest[1..end];
        match ent {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| XmlError::Syntax(0, format!("bad char ref &{ent};")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::Syntax(0, format!("invalid char ref &{ent};")))?,
                );
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..]
                    .parse()
                    .map_err(|_| XmlError::Syntax(0, format!("bad char ref &{ent};")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| XmlError::Syntax(0, format!("invalid char ref &{ent};")))?,
                );
            }
            _ => return Err(XmlError::Syntax(0, format!("unknown entity &{ent};"))),
        }
        rest = &rest[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> XmlError {
        XmlError::Syntax(self.pos, msg.to_string())
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn starts_with(&self, pat: &str) -> bool {
        self.s[self.pos..].starts_with(pat.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip `<?...?>` and `<!--...-->` constructs; error on DOCTYPE/CDATA.
    fn skip_misc(&mut self) -> Result<bool, XmlError> {
        if self.starts_with("<?") {
            match self.s[self.pos..].windows(2).position(|w| w == b"?>") {
                Some(i) => {
                    self.pos += i + 2;
                    Ok(true)
                }
                None => Err(XmlError::UnexpectedEof),
            }
        } else if self.starts_with("<!--") {
            match self.s[self.pos..].windows(3).position(|w| w == b"-->") {
                Some(i) => {
                    self.pos += i + 3;
                    Ok(true)
                }
                None => Err(XmlError::UnexpectedEof),
            }
        } else if self.starts_with("<!") {
            Err(self.err("DOCTYPE/CDATA not supported"))
        } else {
            Ok(false)
        }
    }

    fn read_name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), XmlError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else if self.peek().is_none() {
            Err(XmlError::UnexpectedEof)
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn read_element(&mut self) -> Result<Element, XmlError> {
        self.expect(b'<')?;
        let name = self.read_name()?;
        let mut el = Element::new(name.clone());
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.expect(b'>')?;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let attr_name = self.read_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        Some(_) => return Err(self.err("unquoted attribute value")),
                        None => return Err(XmlError::UnexpectedEof),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote {
                            break;
                        }
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(XmlError::UnexpectedEof);
                    }
                    let raw = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
                    self.pos += 1; // closing quote
                    el.attrs.push((attr_name, unescape(&raw)?));
                }
                None => return Err(XmlError::UnexpectedEof),
            }
        }
        // Children until </name>.
        loop {
            if self.pos >= self.s.len() {
                return Err(XmlError::UnexpectedEof);
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.read_name()?;
                self.skip_ws();
                self.expect(b'>')?;
                if close != name {
                    return Err(XmlError::MismatchedTag { expected: name, found: close });
                }
                return Ok(el);
            }
            if self.skip_misc()? {
                continue;
            }
            if self.peek() == Some(b'<') {
                el.children.push(Node::Element(self.read_element()?));
                continue;
            }
            // Character data until next '<'.
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'<' {
                    break;
                }
                self.pos += 1;
            }
            let raw = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
            let text = unescape(&raw)?;
            if !text.trim().is_empty() {
                el.children.push(Node::Text(text));
            }
        }
    }
}

/// Parse a document into its root element.
///
/// Whitespace-only text nodes are dropped (Metalink and PROPFIND are
/// data-oriented formats; nobody round-trips indentation).
pub fn parse(s: &str) -> Result<Element, XmlError> {
    let mut p = Parser { s: s.as_bytes(), pos: 0 };
    loop {
        p.skip_ws();
        if p.pos >= p.s.len() {
            return Err(XmlError::NoRoot);
        }
        if p.skip_misc()? {
            continue;
        }
        if p.peek() == Some(b'<') {
            break;
        }
        return Err(p.err("expected an element"));
    }
    let root = p.read_element()?;
    loop {
        p.skip_ws();
        if p.pos >= p.s.len() {
            return Ok(root);
        }
        if !p.skip_misc()? {
            return Err(XmlError::TrailingContent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_tree() {
        let e = parse("<a x=\"1\"><b>hi</b><b>ho</b><c/></a>").unwrap();
        assert_eq!(e.name, "a");
        assert_eq!(e.attr("x"), Some("1"));
        assert_eq!(e.find_all("b").count(), 2);
        assert_eq!(e.find("b").unwrap().text(), "hi");
        assert!(e.find("c").unwrap().children.is_empty());
        assert!(e.find("zzz").is_none());
    }

    #[test]
    fn declaration_and_comments_are_skipped() {
        let e = parse("<?xml version=\"1.0\"?><!-- hello --><r><!-- inner -->x</r>").unwrap();
        assert_eq!(e.name, "r");
        assert_eq!(e.text(), "x");
    }

    #[test]
    fn entities_roundtrip() {
        let e = parse("<r a=\"&lt;&amp;&quot;&gt;\">&amp;x&lt;y&gt;&#65;&#x42;</r>").unwrap();
        assert_eq!(e.attr("a"), Some("<&\">"));
        assert_eq!(e.text(), "&x<y>AB");
    }

    #[test]
    fn serializer_escapes() {
        let mut e = Element::new("r");
        e.set_attr("a", "x\"<&>'");
        e.add_text("a<b>&c");
        let s = e.to_xml();
        let back = parse(&s).unwrap();
        assert_eq!(back.attr("a"), Some("x\"<&>'"));
        assert_eq!(back.text(), "a<b>&c");
    }

    #[test]
    fn self_closing_and_single_quotes() {
        let e = parse("<a><b k='v'/></a>").unwrap();
        assert_eq!(e.find("b").unwrap().attr("k"), Some("v"));
    }

    #[test]
    fn namespace_prefixes_match_local_names() {
        let e = parse("<D:multistatus><D:response>r</D:response></D:multistatus>").unwrap();
        assert_eq!(e.find("response").unwrap().text(), "r");
        assert_eq!(e.find("D:response").unwrap().text(), "r");
    }

    #[test]
    fn error_cases() {
        assert_eq!(parse(""), Err(XmlError::NoRoot));
        assert!(matches!(parse("<a><b></a>"), Err(XmlError::MismatchedTag { .. })));
        assert!(matches!(parse("<a>"), Err(XmlError::UnexpectedEof)));
        assert!(matches!(parse("<a></a><b></b>"), Err(XmlError::TrailingContent)));
        assert!(parse("<a x=1></a>").is_err(), "unquoted attribute");
        assert!(parse("<!DOCTYPE html><a/>").is_err());
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let e = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 2);
    }

    #[test]
    fn deep_nesting() {
        let mut s = String::new();
        for _ in 0..100 {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..100 {
            s.push_str("</d>");
        }
        let mut e = parse(&s).unwrap();
        for _ in 0..99 {
            let inner = e.find("d").cloned().unwrap();
            e = inner;
        }
        assert_eq!(e.text(), "x");
    }
}
