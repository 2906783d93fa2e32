//! A case-insensitive, insertion-ordered, multi-valued header map, kept as
//! the bytes it is on the wire.
//!
//! **Layout.** A [`HeaderMap`] is one `String` — the *block* — and an index
//! of spans into it. The block is the header section exactly as it travels:
//! one `Name: value\r\n` line per field, in insertion order, nothing
//! between or after the lines. A span is `(line start, name length, value
//! length)`; the separators have fixed widths, so name, value and line end
//! all follow from it. Serialising the fields is one copy of the block,
//! parsing a head is one copy into it, and a lookup compares names in place
//! — no `String` per name or per value on either side.
//!
//! **Sanitising.** Because every field shares the block, a line break
//! inside a name or a value would become a field boundary of the peer's
//! choosing (header injection). So a field is checked as it is written, by
//! the one writer every path uses (`put_field`): the name must be an
//! RFC 7230 `token` — a programming error otherwise when the field is set
//! here, [`WireError::BadHeader`] when it came off the wire — and a CR, LF
//! or NUL in the value is stored as a space, which is what RFC 7230 §3.2.4
//! prescribes for obsolete line folding.

use crate::codec::{zero_bytes, ONES};
use crate::WireError;
use std::fmt;

/// Where serialised text goes: a block (`String`) or a wire buffer.
pub(crate) trait Sink {
    /// Append `text`.
    fn put_text(&mut self, text: &str);
}

impl Sink for String {
    #[inline]
    fn put_text(&mut self, text: &str) {
        self.push_str(text);
    }
}

impl Sink for Vec<u8> {
    #[inline]
    fn put_text(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }
}

/// The bytes of an RFC 7230 §3.2.6 `token`: letters, digits and fifteen
/// marks.
const TOKEN_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = (i as u8).is_ascii_alphanumeric();
        i += 1;
    }
    let marks = b"!#$%&'*+-.^_`|~";
    let mut i = 0;
    while i < marks.len() {
        table[marks[i] as usize] = true;
        i += 1;
    }
    table
};

/// Whether `name` is an RFC 7230 §3.2.6 `token`.
pub(crate) fn is_token(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| TOKEN_BYTE[b as usize])
}

/// A field value on its way into a sink: CR, LF and NUL arrive as spaces.
pub(crate) struct Clean<'a, S>(&'a mut S);

/// Whether `text` holds a CR, LF or NUL, looked for eight bytes at a time
/// as [`find_byte`](crate::codec::find_byte) looks for one byte: almost
/// every value is clean and is looked at whole anyway, and a fold over its
/// bytes compiled to a byte loop.
fn has_break(text: &[u8]) -> bool {
    let mut words = text.chunks_exact(8);
    for word in words.by_ref() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of 8"));
        let (cr, lf) = (x ^ (ONES * b'\r' as u64), x ^ (ONES * b'\n' as u64));
        if zero_bytes(x) | zero_bytes(cr) | zero_bytes(lf) != 0 {
            return true;
        }
    }
    words.remainder().iter().any(|&b| b == b'\r' || b == b'\n' || b == 0)
}

impl<S: Sink> Clean<'_, S> {
    pub(crate) fn put_text(&mut self, value: &str) {
        if !has_break(value.as_bytes()) {
            return self.0.put_text(value);
        }
        const BREAKS: [char; 3] = ['\r', '\n', '\0'];
        for piece in value.split_inclusive(BREAKS) {
            match piece.strip_suffix(BREAKS) {
                Some(kept) => {
                    self.0.put_text(kept);
                    self.0.put_text(" ");
                }
                None => self.0.put_text(piece),
            }
        }
    }
}

impl<S: Sink> fmt::Write for Clean<'_, S> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.put_text(s);
        Ok(())
    }
}

/// The one place a header field becomes text: `name: value\r\n`, the value
/// written by `value` through the sanitiser.
///
/// # Panics
/// When `name` is not a token: names are written in the program, and the
/// head parser has refused such a name off the wire before it gets here.
pub(crate) fn put_field<S: Sink>(out: &mut S, name: &str, value: impl FnOnce(&mut Clean<'_, S>)) {
    assert!(is_token(name), "header field name {name:?} is not a token");
    out.put_text(name);
    out.put_text(": ");
    value(&mut Clean(out));
    out.put_text("\r\n");
}

/// One field of a block: the line starts at `at`; its name is `name` bytes
/// long, then `": "`, then `value` bytes of value, then CRLF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    at: usize,
    name: usize,
    value: usize,
}

impl Span {
    fn name_in<'a>(&self, block: &'a str) -> &'a str {
        &block[self.at..self.at + self.name]
    }

    fn value_in<'a>(&self, block: &'a str) -> &'a str {
        let from = self.at + self.name + 2;
        &block[from..from + self.value]
    }

    /// Length of the whole line, separators included.
    fn len(&self) -> usize {
        self.name + 2 + self.value + 2
    }
}

/// Block bytes a map that owns no memory yet reserves for its first field:
/// a response head of this tree's servers (seven fields, ~200 bytes) fits
/// without growing.
const FIRST_BLOCK_RESERVE: usize = 256;
/// Spans reserved with them.
const FIRST_SPAN_RESERVE: usize = 8;

/// HTTP header fields. Lookup is ASCII-case-insensitive; insertion order is
/// preserved (matters for `Set-Cookie`-style repeats and for deterministic
/// serialization). See the [module docs](self) for the representation and
/// the sanitising rule. Two maps are equal when their blocks are: the same
/// fields in the same order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeaderMap {
    block: String,
    spans: Vec<Span>,
}

impl HeaderMap {
    /// Empty map.
    pub fn new() -> Self {
        HeaderMap::default()
    }

    /// Empty map with room for `bytes` of block and `fields` fields.
    pub(crate) fn with_capacity(bytes: usize, fields: usize) -> Self {
        HeaderMap { block: String::with_capacity(bytes), spans: Vec::with_capacity(fields) }
    }

    /// The fields as they travel: `Name: value\r\n` per field, without the
    /// blank line that ends a head.
    pub(crate) fn as_wire(&self) -> &str {
        &self.block
    }

    /// First value for `name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.spans
            .iter()
            .find(|s| s.name_in(&self.block).eq_ignore_ascii_case(name))
            .map(|s| s.value_in(&self.block))
    }

    /// All values for `name`, in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name_in(&self.block).eq_ignore_ascii_case(name))
            .map(|s| s.value_in(&self.block))
    }

    /// Replace every value of `name` with a single value, at the end.
    pub fn set(&mut self, name: &str, value: impl AsRef<str>) {
        self.remove(name);
        self.append(name, value);
    }

    /// [`set`](Self::set) with the value formatted straight into the block:
    /// `h.set_fmt("Content-Length", format_args!("{n}"))` makes no temporary
    /// `String`.
    pub fn set_fmt(&mut self, name: &str, value: fmt::Arguments<'_>) {
        self.remove(name);
        self.push(name, |out| fmt::Write::write_fmt(out, value).expect("a block takes any text"));
    }

    /// Add a value without disturbing existing ones.
    ///
    /// # Panics
    /// When `name` is not an RFC 7230 token — names are written in the
    /// program, not taken from a peer (the head parser answers a bad name
    /// off the wire with [`WireError::BadHeader`]).
    pub fn append(&mut self, name: &str, value: impl AsRef<str>) {
        self.push(name, |out| out.put_text(value.as_ref()));
    }

    fn push(&mut self, name: &str, value: impl FnOnce(&mut Clean<'_, String>)) {
        if self.block.capacity() == 0 {
            self.block.reserve(FIRST_BLOCK_RESERVE);
        }
        if self.spans.capacity() == 0 {
            self.spans.reserve(FIRST_SPAN_RESERVE);
        }
        let at = self.block.len();
        put_field(&mut self.block, name, value);
        let value = self.block.len() - at - name.len() - 4;
        self.spans.push(Span { at, name: name.len(), value });
    }

    /// Remove every value of `name`; returns whether anything was removed.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.spans.len();
        let mut i = 0;
        while i < self.spans.len() {
            let span = self.spans[i];
            if !span.name_in(&self.block).eq_ignore_ascii_case(name) {
                i += 1;
                continue;
            }
            self.block.drain(span.at..span.at + span.len());
            self.spans.remove(i);
            for later in &mut self.spans[i..] {
                later.at -= span.len();
            }
        }
        before != self.spans.len()
    }

    /// Whether any value of `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of fields (counting repeats).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no fields are present.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { block: &self.block, spans: self.spans.iter() }
    }

    // ---- typed helpers -----------------------------------------------------

    /// The declared `Content-Length`: `Ok(None)` when there is no such
    /// field. Each field must be `1*DIGIT` or a comma list of that, and all
    /// of them must name the same length (RFC 7230 §3.3.2) — a sign, a
    /// second opinion or anything else is [`WireError::BadHeader`], because
    /// two parties that frame one message differently can be made to
    /// disagree about where the next one starts.
    pub fn content_length(&self) -> Result<Option<u64>, WireError> {
        let mut agreed = None;
        for member in self.get_all("content-length").flat_map(|v| v.split(',')) {
            let member = member.trim();
            let n = (!member.is_empty() && member.bytes().all(|b| b.is_ascii_digit()))
                .then(|| member.parse::<u64>().ok())
                .flatten();
            match (n, agreed) {
                (Some(n), None) => agreed = Some(n),
                (Some(n), Some(m)) if n == m => {}
                _ => return Err(WireError::BadHeader(format!("Content-Length: {member:?}"))),
            }
        }
        Ok(agreed)
    }

    /// Whether `Transfer-Encoding` ends with `chunked` (RFC 7230 §3.3.3).
    pub(crate) fn is_chunked(&self) -> bool {
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
        f.write_str(self.as_wire())
    }
}

/// `(name, value)` pairs of a [`HeaderMap`], in insertion order.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    block: &'a str,
    spans: std::slice::Iter<'a, Span>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (&'a str, &'a str);

    fn next(&mut self) -> Option<Self::Item> {
        self.spans.next().map(|s| (s.name_in(self.block), s.value_in(self.block)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.spans.size_hint()
    }
}

impl<'a> IntoIterator for &'a HeaderMap {
    type Item = (&'a str, &'a str);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
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
    fn removing_from_the_middle_keeps_the_rest_addressable() {
        let mut h = HeaderMap::new();
        h.append("A", "1");
        h.append("B", "22");
        h.append("a", "333");
        h.append("C", "");
        assert!(h.remove("A"));
        assert_eq!(h.iter().collect::<Vec<_>>(), [("B", "22"), ("C", "")]);
        assert_eq!(h.as_wire(), "B: 22\r\nC: \r\n");
        h.set_fmt("B", format_args!("{}", 7));
        assert_eq!(h.to_string(), "C: \r\nB: 7\r\n");
    }

    #[test]
    fn a_line_break_in_a_value_is_stored_as_a_space() {
        let mut h = HeaderMap::new();
        h.set("Destination", "http://a/x\r\nX-Evil: 1");
        h.append("Accept", "a\nb\rc\0d");
        h.set_fmt("Host", format_args!("{}:{}", "h\r\nX-Evil: 2", 80));
        assert_eq!(h.len(), 3, "three fields went in, three are there");
        assert_eq!(h.get("destination"), Some("http://a/x  X-Evil: 1"));
        assert_eq!(h.get("accept"), Some("a b c d"));
        assert_eq!(h.get("host"), Some("h  X-Evil: 2:80"));
        assert!(!h.contains("x-evil"));
        assert_eq!(h.as_wire().matches("\r\n").count(), 3);
        assert!(!h.as_wire().replace("\r\n", "").contains(['\r', '\n', '\0']));
    }

    proptest::proptest! {
        /// A CR, LF or NUL at every position of a value, whichever word of
        /// the check it falls in, among neighbours one bit away from each
        /// and with the high bit set: the sanitiser writes what a byte loop
        /// would, each break as a space.
        #[test]
        fn a_break_anywhere_in_a_value_is_a_space(
            filler in proptest::collection::vec(0usize..10, 0..40),
            breaks in proptest::collection::vec(0usize..3, 1..3),
        ) {
            // Code points, not bytes: U+008A and U+008D put 0x8a and 0x8d
            // (LF and CR with the high bit) on the wire.
            const NEAR: [char; 10] =
                ['\u{b}', '\u{c}', '\u{1}', '\u{8a}', '\u{8d}', '\u{80}', 'x', ' ', '\u{e9}', '\u{7f}'];
            let filler: String = filler.iter().map(|&i| NEAR[i]).collect();
            let model = |s: &str| -> String {
                s.chars().map(|c| if matches!(c, '\r' | '\n' | '\0') { ' ' } else { c }).collect()
            };
            let clean = |s: &str| {
                let mut out = String::new();
                Clean(&mut out).put_text(s);
                out
            };
            proptest::prop_assert_eq!(clean(&filler), filler.clone());
            let at: Vec<usize> = filler.char_indices().map(|(i, _)| i).chain([filler.len()]).collect();
            for &i in &at {
                let mut value = filler.clone();
                for &b in breaks.iter().rev() {
                    value.insert(i, ['\r', '\n', '\0'][b]);
                }
                proptest::prop_assert_eq!(clean(&value), model(&value), "{:?}", value);
            }
        }
    }

    #[test]
    fn names_are_tokens() {
        for ok in ["Host", "x-trace_id", "!#$%&'*+-.^_`|~09"] {
            assert!(is_token(ok), "{ok:?}");
        }
        for bad in ["", "X Evil", "X\r\nEvil", "X:", "Tab\t", "ä", "(c)"] {
            assert!(!is_token(bad), "{bad:?}");
        }
    }

    #[test]
    #[should_panic(expected = "not a token")]
    fn setting_a_name_that_is_not_a_token_is_a_bug() {
        HeaderMap::new().set("X-Evil: 1\r\nHost", "h");
    }

    #[test]
    fn content_length_is_digits_only_and_every_opinion_must_agree() {
        let declared = |fields: &[&str]| {
            let mut h = HeaderMap::new();
            for f in fields {
                h.append("Content-Length", f);
            }
            h.content_length()
        };
        let accepted: [(&[&str], Option<u64>); 6] = [
            (&[], None),
            (&["5"], Some(5)),
            (&[" 5 "], Some(5)),
            (&["5, 5"], Some(5)),
            (&["5", "5"], Some(5)),
            (&["18446744073709551615"], Some(u64::MAX)),
        ];
        for (fields, want) in accepted {
            assert_eq!(declared(fields).unwrap(), want, "{fields:?}");
        }
        let refused: [&[&str]; 6] =
            [&["+5"], &["-5"], &["5, 6"], &["5", "50"], &["5,"], &["18446744073709551616"]];
        for fields in refused {
            assert!(matches!(declared(fields), Err(WireError::BadHeader(_))), "{fields:?}");
        }
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
        assert_eq!(h.to_string(), "B: 2\r\nA: 1\r\n");
        assert_eq!((&h).into_iter().collect::<Vec<_>>(), [("B", "2"), ("A", "1")]);
    }

    #[test]
    fn equality_is_about_the_text() {
        let (mut a, mut b) = (HeaderMap::new(), HeaderMap::new());
        a.set("K", "v");
        b.append("k", "x");
        b.set("K", "v");
        assert_eq!(a, b, "same fields, however they got there");
        b.set("K", "w");
        assert_ne!(a, b);
    }
}
