//! The byte scanners against the parsers they replaced.
//!
//! `parse_range_header` and `ContentRange::parse` read a header a byte at a
//! time, and `MultipartReader` checks a part head and reads its
//! `Content-Range` in one pass. The parsers they replaced are kept here,
//! word for word, as models: over well-formed, damaged and hostile input
//! the new ones give the same values and the same errors. The one
//! intended difference is a number with a `+` sign, which
//! `u64::from_str` takes and RFC 7233's `1*DIGIT` does not: the scanners
//! refuse it as they refuse any stray byte.

use httpwire::codec::{HeadScan, MAX_HEAD_BYTES};
use httpwire::range::parse_range_header;
use httpwire::{ContentRange, MultipartReader, MultipartWriter, RangeSpec, WireError};
use proptest::prelude::*;
use std::io::{BufReader, Read};

/// `parse_range_header` as it was: split on `,` and `-`, `str::parse` each
/// number.
fn model_range_header(value: &str) -> Result<Vec<RangeSpec>, WireError> {
    let rest = value
        .trim()
        .strip_prefix("bytes=")
        .ok_or_else(|| WireError::BadRange(value.to_string()))?;
    let mut out = Vec::new();
    for part in rest.split(',') {
        let part = part.trim();
        if part.is_empty() {
            return Err(WireError::BadRange(value.to_string()));
        }
        let (a, b) = part.split_once('-').ok_or_else(|| WireError::BadRange(value.to_string()))?;
        let spec = match (a.is_empty(), b.is_empty()) {
            (true, false) => {
                RangeSpec::Suffix(b.parse().map_err(|_| WireError::BadRange(value.to_string()))?)
            }
            (false, true) => {
                RangeSpec::From(a.parse().map_err(|_| WireError::BadRange(value.to_string()))?)
            }
            (false, false) => {
                let a: u64 = a.parse().map_err(|_| WireError::BadRange(value.to_string()))?;
                let b: u64 = b.parse().map_err(|_| WireError::BadRange(value.to_string()))?;
                if a > b {
                    return Err(WireError::BadRange(value.to_string()));
                }
                RangeSpec::FromTo(a, b)
            }
            (true, true) => return Err(WireError::BadRange(value.to_string())),
        };
        out.push(spec);
    }
    if out.is_empty() {
        return Err(WireError::BadRange(value.to_string()));
    }
    Ok(out)
}

/// `ContentRange::parse` as it was.
fn model_content_range(value: &str) -> Result<ContentRange, WireError> {
    let rest = value
        .trim()
        .strip_prefix("bytes ")
        .ok_or_else(|| WireError::BadRange(value.to_string()))?;
    let (range, total) =
        rest.split_once('/').ok_or_else(|| WireError::BadRange(value.to_string()))?;
    let total = match total.trim() {
        "*" => None,
        t => Some(t.parse().map_err(|_| WireError::BadRange(value.to_string()))?),
    };
    let (first, last) =
        range.split_once('-').ok_or_else(|| WireError::BadRange(value.to_string()))?;
    let first: u64 = first.trim().parse().map_err(|_| WireError::BadRange(value.to_string()))?;
    let last: u64 = last.trim().parse().map_err(|_| WireError::BadRange(value.to_string()))?;
    if first > last {
        return Err(WireError::BadRange(value.to_string()));
    }
    if let Some(t) = total {
        if last >= t {
            return Err(WireError::BadRange(value.to_string()));
        }
    }
    Ok(ContentRange { first, last, total })
}

/// Values compare as values, errors by their text.
fn text<T>(r: Result<T, WireError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// A scanner agrees with its model on `value`. Where `value` has a `+`,
/// the model runs on a copy with each `+` made a stray byte: the scanner
/// must give what that gives, a value or an error.
fn agrees<T: PartialEq + std::fmt::Debug>(
    value: &str,
    scanner: fn(&str) -> Result<T, WireError>,
    model: fn(&str) -> Result<T, WireError>,
) {
    let got = text(scanner(value));
    if value.contains('+') {
        assert_eq!(got.ok(), model(&value.replace('+', "x")).ok(), "{value:?}");
    } else {
        assert_eq!(got, text(model(value)), "{value:?}");
    }
}

/// White space the way `str::trim` sees it: space, tab, vertical tab,
/// no-break space, next line, ideographic space.
macro_rules! space {
    () => {
        "( |\t|\u{b}|\u{a0}|\u{85}|\u{3000})"
    };
}

/// Numbers, with and without a sign, at and past `u64::MAX`.
macro_rules! number {
    () => {
        "([0-9]{1,3}|007|18446744073709551615|18446744073709551616|99999999999999999999|\\+[0-9])"
    };
}

/// A range-ish piece: optional numbers around a dash, with white space
/// anywhere it may or may not go.
macro_rules! piece {
    () => {
        concat!(
            space!(),
            "?",
            number!(),
            "?",
            space!(),
            "?-",
            space!(),
            "?",
            number!(),
            "?",
            space!(),
            "?"
        )
    };
}

/// Range headers that are mostly nearly right, then stray bytes.
const RANGE_SOUP: &str = concat!(
    "(bytes=|bytes |bytes|",
    space!(),
    ")?",
    piece!(),
    "(,",
    piece!(),
    "){0,4}(,|-|x|é|=)?"
);

/// `Content-Range` values the same way.
const CONTENT_RANGE_SOUP: &str = concat!(
    "(bytes |bytes=|bytes|",
    space!(),
    ")?",
    piece!(),
    "(/|-|,)?",
    space!(),
    "?(\\*|",
    number!(),
    ")?",
    space!(),
    "?(/|\\*|x|é)?"
);

proptest! {
    /// Hostile strings: both parsers agree with their models.
    #[test]
    fn range_parsers_agree_with_the_models_on_hostile_strings(
        ranges in RANGE_SOUP,
        content_range in CONTENT_RANGE_SOUP,
    ) {
        for soup in [ranges, content_range] {
            agrees(&soup, parse_range_header, model_range_header);
            agrees(&soup, ContentRange::parse, model_content_range);
            for prefix in ["bytes=", "bytes "] {
                let value = format!("{prefix}{soup}");
                agrees(&value, parse_range_header, model_range_header);
                agrees(&value, ContentRange::parse, model_content_range);
            }
        }
    }

    /// Arbitrary bytes, read as text the lossy way.
    #[test]
    fn range_parsers_agree_with_the_models_on_arbitrary_text(
        bytes in proptest::collection::vec(any::<u8>(), 0..40),
        prefix in 0usize..3,
    ) {
        let value = format!("{}{}", ["", "bytes=", "bytes "][prefix], String::from_utf8_lossy(&bytes));
        agrees(&value, parse_range_header, model_range_header);
        agrees(&value, ContentRange::parse, model_content_range);
    }

    /// Well-formed headers, spaced out wherever white space may go, and
    /// then, now and then, one token dropped in anywhere.
    #[test]
    fn range_parsers_agree_with_the_models_on_nearly_right_headers(
        specs in proptest::collection::vec(
            (0u8..3, any::<u64>(), any::<u64>(), 0usize..7, 0usize..7), 1..12),
        small in any::<bool>(),
        total in 0u8..4,
        edit in proptest::option::of((any::<u16>(), 0usize..12)),
    ) {
        const SPACE: [&str; 7] = ["", " ", "\t", "\u{b}", "\u{a0}", "\u{85}", "\u{3000}"];
        const TOKENS: [&str; 12] =
            ["+", "-", ",", "/", "*", "x", "é", " ", "\u{3000}", "0", "18446744073709551616", "bytes="];
        let damage = |mut s: String| {
            if let Some((at, token)) = edit {
                let mut at = at as usize % (s.len() + 1);
                while !s.is_char_boundary(at) {
                    at -= 1;
                }
                s.insert_str(at, TOKENS[token]);
            }
            s
        };
        let mut header = String::from("bytes=");
        for (i, &(kind, a, b, before, after)) in specs.iter().enumerate() {
            let (a, b) = if small { (a % 1000, b % 1000) } else { (a, b) };
            let (lo, hi) = (a.min(b), a.max(b));
            let (s, t) = (SPACE[before], SPACE[after]);
            let spec = match kind {
                0 => format!("{lo}-{hi}"),
                1 => format!("{lo}-"),
                _ => format!("-{hi}"),
            };
            header.push_str(&format!("{}{s}{spec}{t}", if i == 0 { "" } else { "," }));
            let total = match total {
                0 => "*".to_string(),
                1 => hi.to_string(),
                2 => hi.saturating_add(1 + a % 7).to_string(),
                _ => b.to_string(),
            };
            let content_range = damage(format!("{t}bytes {s}{lo}{t}-{s}{hi}{t}/{s}{total}{t}"));
            agrees(&content_range, ContentRange::parse, model_content_range);
        }
        let header = damage(header);
        agrees(&header, parse_range_header, model_range_header);
    }
}

/// A number with a sign: the one place the scanners and the models part.
#[test]
fn only_a_signed_number_parts_the_scanners_from_the_models() {
    assert!(model_range_header("bytes=+0-+9").is_ok());
    assert!(parse_range_header("bytes=+0-+9").is_err());
    assert!(model_content_range("bytes +0-+9/10").is_ok());
    assert!(ContentRange::parse("bytes +0-+9/10").is_err());
}

// -- multipart part heads ----------------------------------------------------

/// The bytes of an RFC 7230 `token`.
fn model_is_token(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b))
}

/// The part reader's head parse as it was: the block `HeadScan` delimits,
/// checked as UTF-8 whole, split into lines, each line a field.
/// `Content-Range` values go through today's `ContentRange::parse`, so the
/// only change this model sees is the head's one pass.
fn model_part_range(block: &[u8]) -> Result<ContentRange, WireError> {
    let text = std::str::from_utf8(block)
        .map_err(|_| WireError::BadHeader("non-UTF-8 bytes in message head".to_string()))?;
    let mut range = None;
    let lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    for line in lines.take_while(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .filter(|(name, _)| model_is_token(name))
            .map(|(name, value)| (name, value.trim()))
            .ok_or_else(|| WireError::BadHeader(line.to_string()))?;
        if name.eq_ignore_ascii_case("content-range")
            && range.replace(ContentRange::parse(value)?).is_some()
        {
            return Err(WireError::BadMultipart("part with two Content-Range".to_string()));
        }
    }
    range.ok_or_else(|| WireError::BadMultipart("part without Content-Range".to_string()))
}

fn model_part_error(e: WireError) -> WireError {
    match e {
        WireError::Io(_) | WireError::UnexpectedEof | WireError::BadMultipart(_) => e,
        other => WireError::BadMultipart(format!("bad part head: {other}")),
    }
}

type Parts = Result<Vec<(ContentRange, Vec<u8>)>, String>;

/// The part reader as it was, over a whole body: a delimiter line read
/// and classified, then a head read and parsed, then the payload and its
/// CRLF.
fn model_parts(wire: &[u8], boundary: &str, limit: u64) -> Parts {
    let delimiter = format!("--{boundary}");
    let (mut at, mut started, mut parts) = (0, false, Vec::new());
    let fail = |e: WireError| Err(model_part_error(e).to_string());
    loop {
        let rest = &wire[at..];
        if rest.is_empty() {
            return fail(WireError::UnexpectedEof);
        }
        let len = match rest[..rest.len().min(MAX_HEAD_BYTES)].iter().position(|&b| b == b'\n') {
            Some(nl) => nl + 1,
            None if rest.len() >= MAX_HEAD_BYTES => {
                return fail(WireError::HeadTooLarge(MAX_HEAD_BYTES))
            }
            None => rest.len(),
        };
        at += len;
        let line = rest[..len].strip_suffix(b"\n").unwrap_or(&rest[..len]);
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        match line.strip_prefix(delimiter.as_bytes()) {
            Some(b"--") => return Ok(parts),
            Some(b"") => {}
            _ if started => {
                return fail(WireError::BadMultipart(
                    "expected boundary after part payload".to_string(),
                ))
            }
            _ => continue,
        }
        started = true;
        let head = &wire[at..];
        let end = match HeadScan::default().find(head) {
            Ok(Some(end)) => end,
            Ok(None) => return fail(WireError::UnexpectedEof),
            Err(e) => return fail(e),
        };
        let range = match model_part_range(&head[..end]) {
            Ok(range) => range,
            Err(e) => return fail(e),
        };
        at += end;
        if range.len() > limit {
            return fail(WireError::BadMultipart(format!(
                "part Content-Range {range} declares {} bytes, over the {limit}-byte limit",
                range.len()
            )));
        }
        let n = range.len() as usize;
        let Some(payload) = wire.get(at..at + n) else { return fail(WireError::UnexpectedEof) };
        let Some(crlf) = wire.get(at + n..at + n + 2) else {
            return fail(WireError::UnexpectedEof);
        };
        if crlf != b"\r\n" {
            return fail(WireError::BadMultipart("payload not followed by CRLF".to_string()));
        }
        parts.push((range, payload.to_vec()));
        at += n + 2;
    }
}

/// A transport that hands out `wire` in the pieces `ends` delimit.
struct Deliveries<'a> {
    wire: &'a [u8],
    pos: usize,
    ends: Vec<usize>,
}

impl Read for Deliveries<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.ends.iter().copied().find(|&e| e > self.pos).unwrap_or(self.wire.len());
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The reader over `wire` delivered in pieces, through a `BufReader` of
/// `cap` bytes, payloads read into buffers of the caller's.
fn parts(wire: &[u8], boundary: &str, limit: u64, cuts: &[usize], cap: usize) -> Parts {
    let mut ends: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    ends.sort_unstable();
    let transport = Deliveries { wire, pos: 0, ends };
    let mut reader = MultipartReader::new(BufReader::with_capacity(cap, transport), boundary)
        .with_part_limit(limit);
    let mut parts = Vec::new();
    while let Some(range) = reader.next_range().map_err(|e| e.to_string())? {
        let mut data = vec![0xAA; range.len() as usize];
        reader.payload_into(&mut data).map_err(|e| e.to_string())?;
        parts.push((range, data));
    }
    Ok(parts)
}

/// Byte strings a hostile or broken server might put into a body.
const INSERTS: [&[u8]; 16] = [
    b"\r\n",
    b"\n",
    b"\r",
    b"--B",
    b"--B--",
    b"\r\n--B\r\n",
    b"Content-Range: bytes 0-3/100\r\n",
    b"content-range: bytes 2-2/*\r\n",
    b"X-Pad: y\r\n",
    b"no colon\r\n",
    b" : x\r\n",
    b"\xff\xfe",
    b"\xc3",
    b"\xe3\x80\x80",
    b"+",
    b"Content-Range: bytes 0-99999999999999999999/1\r\n",
];

proptest! {
    /// Bodies written by `MultipartWriter`, then damaged — bytes
    /// overwritten, strings inserted, a stretch cut out, the end cut off —
    /// and read whole and in pieces: the one-pass reader gives the model's
    /// parts or the model's error, word for word.
    #[test]
    fn part_reader_agrees_with_the_model(
        payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..40), 0..6),
        preamble in 0usize..3,
        edits in proptest::collection::vec((0u8..12, any::<u16>(), any::<u8>()), 0..3),
        limit in 0u64..400,
        cuts in proptest::collection::vec(0usize..2048, 0..8),
        cap in 1usize..64,
    ) {
        let mut w = MultipartWriter::new(Vec::new(), "B");
        let mut first = 5;
        for p in &payloads {
            let last = first + p.len() as u64 - 1;
            w.write_part("text/plain", ContentRange { first, last, total: Some(1000) }, p).unwrap();
            first = last + 3;
        }
        let mut wire = b"preamble line\r\n".repeat(preamble);
        wire.extend(w.finish().unwrap());
        for (kind, at, byte) in edits {
            let at = at as usize % (wire.len() + 1);
            match kind {
                0..=2 if at < wire.len() => wire[at] = byte,
                3..=9 => drop(wire.splice(at..at, INSERTS[byte as usize % 16].iter().copied())),
                10 => drop(wire.drain(at..(at + byte as usize % 24).min(wire.len()))),
                _ => wire.truncate(at),
            }
        }
        let want = model_parts(&wire, "B", limit);
        prop_assert_eq!(&parts(&wire, "B", limit, &[], 64 * 1024), &want);
        prop_assert_eq!(&parts(&wire, "B", limit, &cuts, cap), &want);
    }
}

/// Heads at and over the head budget, with lines that would each be an
/// error: the size limit and the end of the input decide first, as before.
#[test]
fn part_reader_agrees_with_the_model_at_the_head_budget() {
    for body_len in [MAX_HEAD_BYTES - 40, MAX_HEAD_BYTES - 1, MAX_HEAD_BYTES, MAX_HEAD_BYTES + 50] {
        for ends_head in [false, true] {
            let mut wire = b"\r\n--B\r\nContent-Range: bytes 0-2/9\r\nno colon\r\nX: ".to_vec();
            wire.resize(body_len, b'a');
            if ends_head {
                wire.extend_from_slice(b"\r\n\r\nabc\r\n--B--\r\n");
            }
            let want = model_parts(&wire, "B", 100);
            assert_eq!(parts(&wire, "B", 100, &[], 64 * 1024), want, "{body_len} {ends_head}");
            assert_eq!(parts(&wire, "B", 100, &[4096, 70_000], 1000), want, "{body_len}");
        }
    }
}

/// A part head of a generated body: its lines, each with its line end.
fn part_head(change: u8, cr_first: bool, range: &str) -> Vec<u8> {
    let mut content_type = b"Content-Type: text/plain\r\n".to_vec();
    let mut content_range = format!("Content-Range: bytes {range}\r\n").into_bytes();
    match change {
        4 => content_type = b"Content-Type: text/html\r\n".to_vec(),
        6 => drop(content_range.remove(content_range.len() - 2)), // a bare LF
        _ => {}
    }
    let mut fields = [content_type, content_range];
    if cr_first != (change == 5) {
        fields.reverse();
    }
    let mut head = fields.concat();
    match change {
        7 => head.extend_from_slice(b"X-Pad: \xff\r\n"),
        8 => head.extend_from_slice(b"Content-Range: bytes 0-0/1\r\n"),
        _ => {}
    }
    head.extend_from_slice(b"\r\n");
    head
}

proptest! {
    /// Bodies whose part heads mostly repeat the one before but for their
    /// `Content-Range` digits — what the head match takes — and otherwise
    /// differ from it in one way the match must leave to the full scan: a
    /// changed field value, the fields in the other order, a bare LF, a
    /// byte that is not UTF-8, a second `Content-Range`, a 21-digit number;
    /// the numbers have 1 to 20 digits. Cut at every byte and read from one
    /// buffer (heads matched where they lie), they give the model's parts
    /// or its error, word for word; so does the reader through a one-byte
    /// buffer (no head is ever whole in it, so each takes the full scan),
    /// on the whole body and at every 32nd cut.
    #[test]
    fn a_matched_part_head_reads_as_the_full_scan_reads_it(
        heads in proptest::collection::vec((0u8..10, any::<u64>(), 1u32..21, 1usize..8), 1..6),
        cr_first in any::<bool>(),
    ) {
        let mut wire = Vec::new();
        for (i, &(change, seed, digits, len)) in heads.iter().enumerate() {
            let change = if i == 0 { 0 } else { change };
            let low = 10u64.pow(digits - 1);
            let first = low + seed % if digits == 20 { u64::MAX - low - 64 } else { 9 * low };
            let last = first + len as u64 - 1;
            let total = match seed % 3 {
                0 => "*".to_string(),
                _ => (last + 1 + seed % 7).to_string(),
            };
            let first = match change {
                9 => format!("{first}{}", seed % 10), // 21 digits from 20
                _ => first.to_string(),
            };
            wire.extend_from_slice(b"\r\n--B\r\n");
            wire.extend(part_head(change, cr_first, &format!("{first}-{last}/{total}")));
            wire.extend((0..len).map(|k| (seed >> (k % 8 * 8)) as u8));
        }
        wire.extend_from_slice(b"\r\n--B--\r\n");
        const LIMIT: u64 = 1 << 20;
        for cut in 0..=wire.len() {
            let body = &wire[..cut];
            let matched = parts(body, "B", LIMIT, &[], wire.len() + 1);
            prop_assert_eq!(&matched, &model_parts(body, "B", LIMIT), "cut at {}", cut);
            if cut % 32 == 0 || cut == wire.len() {
                prop_assert_eq!(&matched, &parts(body, "B", LIMIT, &[], 1), "cut at {}", cut);
            }
        }
    }
}
