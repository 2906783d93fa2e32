//! Byte-range machinery: `Range` and `Content-Range` headers plus the range
//! algebra used by vectored I/O (sorting, clamping, coalescing).
//!
//! HTTP ranges are *inclusive* (`bytes=0-99` is 100 bytes). The helpers here
//! convert between that convention and the `(offset, length)` pairs used by
//! the I/O layers.

use crate::codec::HIGH_BITS;
use crate::WireError;
use std::fmt;

/// One element of a `Range: bytes=...` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSpec {
    /// `start-end`, both inclusive.
    FromTo(u64, u64),
    /// `start-`: from `start` to the end of the entity.
    From(u64),
    /// `-n`: the final `n` bytes of the entity.
    Suffix(u64),
}

impl RangeSpec {
    /// Resolve against an entity of `size` bytes into an inclusive
    /// `(first, last)` pair, or `None` when unsatisfiable.
    pub fn resolve(self, size: u64) -> Option<(u64, u64)> {
        if size == 0 {
            return None;
        }
        match self {
            RangeSpec::FromTo(a, b) => {
                if a > b || a >= size {
                    None
                } else {
                    Some((a, b.min(size - 1)))
                }
            }
            RangeSpec::From(a) => {
                if a >= size {
                    None
                } else {
                    Some((a, size - 1))
                }
            }
            RangeSpec::Suffix(n) => {
                if n == 0 {
                    None
                } else {
                    Some((size.saturating_sub(n), size - 1))
                }
            }
        }
    }
}

impl fmt::Display for RangeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeSpec::FromTo(a, b) => write!(f, "{a}-{b}"),
            RangeSpec::From(a) => write!(f, "{a}-"),
            RangeSpec::Suffix(n) => write!(f, "-{n}"),
        }
    }
}

/// A cursor over a range header's text, as bytes. The parsers look at it a
/// byte at a time, with no `str` split per range and no `str::parse` per
/// number: a 500-range header is one pass. White space is what `str::trim` takes
/// (any Unicode white space), and a number is RFC 7233's `1*DIGIT` — no
/// sign, which `u64::from_str` would take.
struct Scan<'a> {
    text: &'a [u8],
    at: usize,
}

impl Scan<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.get(self.at).copied()
    }

    /// Step over `byte` if it comes next.
    fn eat(&mut self, byte: u8) -> bool {
        let next = self.peek() == Some(byte);
        self.at += next as usize;
        next
    }

    fn expect(&mut self, byte: u8) -> Option<()> {
        self.eat(byte).then_some(())
    }

    fn skip_space(&mut self) {
        // Almost every call finds a digit or a separator: nothing to skip.
        if self.peek().is_some_and(|b| b > b' ' && b.is_ascii()) {
            return;
        }
        while let Some(byte) = self.peek() {
            // The ASCII white space of `char::is_whitespace`, then the rest.
            if byte == b' ' || (b'\t'..=b'\r').contains(&byte) {
                self.at += 1;
            } else if byte.is_ascii() {
                return;
            } else {
                // The character this byte leads, when it is one.
                let width = byte.leading_ones() as usize;
                let text = self.text.get(self.at..self.at + width);
                match text.and_then(|c| std::str::from_utf8(c).ok()?.chars().next()) {
                    Some(c) if c.is_whitespace() => self.at += width,
                    _ => return,
                }
            }
        }
    }

    /// The digits at the cursor as a number; `None` when there are none or
    /// they do not fit a `u64`. Where eight bytes are left, the first eight
    /// digits are read from one word (`eight_digits`) — all of almost every
    /// offset in a range header — and any after them a digit at a time.
    fn number(&mut self) -> Option<u64> {
        let start = self.at;
        let mut n = 0u64;
        if let Some(word) = self.text[start..].first_chunk::<8>() {
            // A digit's byte xor `0` is its value, 0..=9; any other byte's is
            // over 9, and adding 0x76 to it sets its high bit. A carry out of
            // such a byte only spoils the bytes after it.
            let values = u64::from_le_bytes(*word) ^ ZEROS;
            let others = (values | values.wrapping_add(0x7676_7676_7676_7676)) & HIGH_BITS;
            let len = others.trailing_zeros() as usize / 8;
            if len < 8 {
                self.at += len;
                // The digits moved to the word's end, zeros before them.
                return (len > 0).then(|| eight_digits(values << (64 - 8 * len)));
            }
            n = eight_digits(values);
            self.at += 8;
        }
        while let Some(digit) = self.peek().filter(u8::is_ascii_digit) {
            if self.at - start == U64_DIGITS - 1 {
                return self.long_number(start);
            }
            n = n * 10 + (digit - b'0') as u64;
            self.at += 1;
        }
        (self.at > start).then_some(n)
    }

    /// [`number`](Self::number) from `start` again, checked: nineteen
    /// digits cannot pass `u64::MAX`, twenty may.
    #[cold]
    fn long_number(&mut self, start: usize) -> Option<u64> {
        self.at = start;
        let mut n = 0u64;
        while let Some(digit) = self.peek().filter(u8::is_ascii_digit) {
            n = n.checked_mul(10)?.checked_add((digit - b'0') as u64)?;
            self.at += 1;
        }
        Some(n)
    }

    /// One element of a `Range` header, white space around it skipped.
    fn range_spec(&mut self) -> Option<RangeSpec> {
        self.skip_space();
        let spec = if self.eat(b'-') {
            RangeSpec::Suffix(self.number()?)
        } else {
            let first = self.number()?;
            self.expect(b'-')?;
            if self.peek().is_some_and(|b| b.is_ascii_digit()) {
                let last = self.number().filter(|&last| first <= last)?;
                RangeSpec::FromTo(first, last)
            } else {
                RangeSpec::From(first)
            }
        };
        self.skip_space();
        Some(spec)
    }

    /// `first-last/total` (or `/*`), white space around each part skipped,
    /// up to the end of the text.
    fn content_range(&mut self) -> Option<ContentRange> {
        self.skip_space();
        let first = self.number()?;
        self.skip_space();
        self.expect(b'-')?;
        self.skip_space();
        let last = self.number()?;
        self.skip_space();
        self.expect(b'/')?;
        self.skip_space();
        let total = if self.eat(b'*') { None } else { Some(self.number()?) };
        self.skip_space();
        self.at_end().then_some(ContentRange { first, last, total })
    }

    fn at_end(&self) -> bool {
        self.at == self.text.len()
    }
}

/// The number whose eight decimal digits are the bytes of `values` (each
/// 0..=9), the first digit in the lowest byte: pairs, then fours, then the
/// whole, each step one multiply whose high bits fall away.
fn eight_digits(values: u64) -> u64 {
    let pairs = (values.wrapping_mul((10 << 8) | 1) >> 8) & 0x00FF_00FF_00FF_00FF;
    let fours = (pairs.wrapping_mul((100 << 16) | 1) >> 16) & 0x0000_FFFF_0000_FFFF;
    fours.wrapping_mul((10_000 << 32) | 1) >> 32
}

/// Parse a `Range` header value (`bytes=0-99,200-,-5`).
pub fn parse_range_header(value: &str) -> Result<Vec<RangeSpec>, WireError> {
    let mut out = Vec::with_capacity(value.bytes().filter(|&b| b == b',').count() + 1);
    each_range_spec(value, |spec| out.push(spec))?;
    Ok(out)
}

/// A `Range` header value resolved against an entity of `size` bytes as it
/// is read, with no list of specs in between: how many ranges the header
/// names, satisfiable or not, and the satisfiable ones in header order.
/// Malformed is [`WireError::BadRange`], as with [`parse_range_header`].
pub fn resolve_range_header(
    value: &str,
    size: u64,
) -> Result<(usize, Vec<ContentRange>), WireError> {
    let mut parts = Vec::with_capacity(value.bytes().filter(|&b| b == b',').count() + 1);
    let named = each_range_spec(value, |spec| {
        if let Some((first, last)) = spec.resolve(size) {
            parts.push(ContentRange { first, last, total: Some(size) });
        }
    })?;
    Ok((named, parts))
}

/// Hand each spec of a `Range` header value to `each`, in order, in one
/// pass; returns how many there were.
fn each_range_spec(value: &str, mut each: impl FnMut(RangeSpec)) -> Result<usize, WireError> {
    let bad = || WireError::BadRange(value.to_string());
    let rest = value.trim().strip_prefix("bytes=").ok_or_else(bad)?;
    let mut scan = Scan { text: rest.as_bytes(), at: 0 };
    let mut named = 0;
    loop {
        each(scan.range_spec().ok_or_else(bad)?);
        named += 1;
        if scan.at_end() {
            return Ok(named);
        }
        scan.expect(b',').ok_or_else(bad)?;
    }
}

/// Most decimal digits of a `u64`.
pub(crate) const U64_DIGITS: usize = 20;

/// Write the decimal digits of `n` at `buf[at..]`, which has room for
/// [`U64_DIGITS`] bytes whatever `n` is; returns where the digits end, and
/// leaves what follows them in that room for the caller to write over. A
/// vectored read formats a thousand numbers per request and the server a
/// thousand more per answer; `fmt` costs several times the digits
/// themselves. A number under 10^8 — every offset of an object under
/// 100 MB — is made in one word ([`eight_ascii`]); a longer one a digit at
/// a time.
fn put_decimal(buf: &mut [u8], at: usize, mut n: u64) -> usize {
    if n < 100_000_000 {
        let ascii = eight_ascii(n);
        // The leading zeros are the lowest bytes; one digit stays for 0.
        let zeros = ((ascii ^ ZEROS).trailing_zeros() as usize / 8).min(7);
        let digits = (ascii >> (8 * zeros)).to_le_bytes();
        buf[at..at + 8].copy_from_slice(&digits);
        return at + 8 - zeros;
    }
    let end = at + decimal_len(n);
    for digit in buf[at..end].iter_mut().rev() {
        *digit = b'0' + (n % 10) as u8;
        n /= 10;
    }
    end
}

/// `0` in every byte of a word.
const ZEROS: u64 = 0x3030_3030_3030_3030;

/// The eight decimal digits of `n` < 10^8, leading zeros included, as
/// ASCII, the first digit in the lowest byte: four digits to each half of
/// the word, two to each quarter, one to each byte, each step one
/// multiply-shift per lane for the quotient (`x / 100` is `x · 10486 >> 20`
/// below 10^4, `x / 10` is `x · 103 >> 10` below 100).
fn eight_ascii(n: u64) -> u64 {
    let fours = (n / 10_000) | ((n % 10_000) << 32);
    let hundreds = ((fours * 10_486) >> 20) & 0x0000_007F_0000_007F;
    let pairs = hundreds | ((fours - hundreds * 100) << 16);
    let tens = ((pairs * 103) >> 10) & 0x000F_000F_000F_000F;
    tens | ((pairs - tens * 10) << 8) | ZEROS
}

/// The decimal digits of `n`, written into `buf`.
pub(crate) fn decimal(n: u64, buf: &mut [u8; U64_DIGITS]) -> &str {
    let end = put_decimal(buf, 0, n);
    std::str::from_utf8(&buf[..end]).expect("ASCII digits")
}

/// How many digits [`decimal`] writes for `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Format `(offset, length)` fragments as a `Range` header value.
/// Zero-length fragments are skipped.
pub fn format_range_header(fragments: &[(u64, usize)]) -> String {
    // Bytes, made text once at the end: the digits are ASCII by
    // construction, and a check per number cost more than the digits.
    const PREFIX: &[u8] = b"bytes=";
    let mut text = Vec::with_capacity(PREFIX.len() + fragments.len() * 16);
    text.extend_from_slice(PREFIX);
    for &(off, len) in fragments.iter().filter(|&&(_, len)| len > 0) {
        if text.len() > PREFIX.len() {
            text.push(b',');
        }
        let at = text.len();
        text.resize(at + 2 * U64_DIGITS + 1, 0);
        let dash = put_decimal(&mut text, at, off);
        text[dash] = b'-';
        let end = put_decimal(&mut text, dash + 1, off + len as u64 - 1);
        text.truncate(end);
    }
    String::from_utf8(text).expect("ASCII")
}

/// A `Content-Range: bytes first-last/total` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentRange {
    /// First byte position (inclusive).
    pub first: u64,
    /// Last byte position (inclusive).
    pub last: u64,
    /// Total entity size, when known (`*` otherwise).
    pub total: Option<u64>,
}

impl ContentRange {
    /// Length of the enclosed range in bytes.
    pub fn len(&self) -> u64 {
        self.last - self.first + 1
    }

    /// Ranges are never empty (`first <= last` is enforced on parse).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Parse a `Content-Range` header value.
    pub fn parse(value: &str) -> Result<ContentRange, WireError> {
        let bad = || WireError::BadRange(value.to_string());
        let rest = value.trim().strip_prefix("bytes ").ok_or_else(bad)?;
        ContentRange::from_digits(rest.as_bytes()).ok_or_else(bad)
    }

    /// `first-last/total` (or `/*`), what follows `bytes ` in a header
    /// value; `None` where [`parse`](Self::parse) would refuse the value.
    pub(crate) fn from_digits(digits: &[u8]) -> Option<ContentRange> {
        Scan { text: digits, at: 0 }
            .content_range()
            .filter(|cr| cr.first <= cr.last && cr.total.is_none_or(|total| cr.last < total))
    }
}

/// Longest `Content-Range` value: `bytes ` + first + `-` + last + `/` + total.
const CONTENT_RANGE_MAX: usize = "bytes ".len() + CONTENT_RANGE_DIGITS_MAX;
/// Longest `first-last/total`, what follows `bytes `.
pub(crate) const CONTENT_RANGE_DIGITS_MAX: usize = 3 * U64_DIGITS + 2;

impl ContentRange {
    /// `first-last/total`, the header value after `bytes `, written at
    /// `buf[at..]`, which has room for [`CONTENT_RANGE_DIGITS_MAX`] bytes;
    /// returns where it ends. What follows it in that room is not kept.
    pub(crate) fn put_digits(&self, buf: &mut [u8], at: usize) -> usize {
        let at = put_decimal(buf, at, self.first);
        buf[at] = b'-';
        let at = put_decimal(buf, at + 1, self.last);
        buf[at] = b'/';
        match self.total {
            Some(total) => put_decimal(buf, at + 1, total),
            None => {
                buf[at + 1] = b'*';
                at + 2
            }
        }
    }

    /// Length of the header value, without producing it.
    pub(crate) fn encoded_len(&self) -> usize {
        "bytes -/".len()
            + decimal_len(self.first)
            + decimal_len(self.last)
            + self.total.map_or(1, decimal_len)
    }
}

impl fmt::Display for ContentRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = [0; CONTENT_RANGE_MAX];
        text[..6].copy_from_slice(b"bytes ");
        let end = self.put_digits(&mut text, 6);
        f.write_str(std::str::from_utf8(&text[..end]).expect("ASCII"))
    }
}

/// Sort `(offset, length)` fragments and merge any that touch or overlap, or
/// whose gap is at most `max_gap` bytes (reading a small gap is cheaper than
/// paying another part boundary / round trip). Returns merged fragments in
/// ascending offset order. Zero-length fragments are dropped.
pub fn coalesce_fragments(fragments: &[(u64, usize)], max_gap: u64) -> Vec<(u64, u64)> {
    let mut v: Vec<(u64, u64)> = fragments
        .iter()
        .filter(|&&(_, len)| len > 0)
        .map(|&(off, len)| (off, off + len as u64))
        .collect();
    v.sort_unstable();
    // Merged in place: `merged` ranges, each `(start, end)`, are done.
    let mut merged = 0usize;
    for i in 0..v.len() {
        let (start, end) = v[i];
        if merged > 0 && start <= v[merged - 1].1.saturating_add(max_gap) {
            v[merged - 1].1 = v[merged - 1].1.max(end);
        } else {
            v[merged] = (start, end);
            merged += 1;
        }
    }
    v.truncate(merged);
    v.into_iter().map(|(s, e)| (s, e - s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_range() {
        assert_eq!(parse_range_header("bytes=0-99").unwrap(), vec![RangeSpec::FromTo(0, 99)]);
        assert_eq!(parse_range_header("bytes=100-").unwrap(), vec![RangeSpec::From(100)]);
        assert_eq!(parse_range_header("bytes=-500").unwrap(), vec![RangeSpec::Suffix(500)]);
    }

    #[test]
    fn parse_multi_range() {
        let v = parse_range_header("bytes=0-0, 10-19 ,-1").unwrap();
        assert_eq!(
            v,
            vec![RangeSpec::FromTo(0, 0), RangeSpec::FromTo(10, 19), RangeSpec::Suffix(1)]
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_range_header("0-99").is_err());
        assert!(parse_range_header("bytes=").is_err());
        assert!(parse_range_header("bytes=-").is_err());
        assert!(parse_range_header("bytes=9-1").is_err());
        assert!(parse_range_header("bytes=a-b").is_err());
        assert!(parse_range_header("bytes=1-2,,3-4").is_err());
    }

    /// A number read from one word is the number its digits spell, at every
    /// length and whatever byte ends it; one of eight digits or more, or
    /// with fewer than eight bytes left, is read a digit at a time.
    #[test]
    fn numbers_read_from_a_word_are_their_digits() {
        let ends = ["", "-", "/", " ", ",", ":", "\u{a0}", "9"];
        for digits in 1..=U64_DIGITS + 1 {
            for lead in ['1', '9', '0'] {
                let number: String = std::iter::once(lead)
                    .chain((1..digits).map(|i| char::from(b'0' + (i * 7 % 10) as u8)))
                    .collect();
                for end in ends {
                    for pad in ["", "--------"] {
                        let text = format!("{number}{end}{pad}");
                        let mut scan = Scan { text: text.as_bytes(), at: 0 };
                        let got = scan.number();
                        let spelled = text.bytes().take_while(u8::is_ascii_digit).count();
                        assert_eq!(got, text[..spelled].parse().ok(), "{text:?}");
                        if got.is_some() {
                            assert_eq!(scan.at, spelled, "{text:?}");
                        }
                    }
                }
            }
        }
        assert_eq!(Scan { text: b"x1234567", at: 0 }.number(), None);
        assert_eq!(Scan { text: b"-0000000", at: 1 }.number(), Some(0));
    }

    /// One pass over the header gives what parsing it whole and then
    /// resolving each spec gives.
    #[test]
    fn a_header_resolves_as_its_specs_do() {
        for value in ["bytes=0-99", "bytes=0-0, 10-19 ,-1", "bytes=900-,50-60,-0,2000-3000", "0-9"]
        {
            for size in [0, 1, 55, 1_000] {
                let want = parse_range_header(value).map(|specs| {
                    let parts = specs.iter().filter_map(|s| s.resolve(size));
                    let parts =
                        parts.map(|(first, last)| ContentRange { first, last, total: Some(size) });
                    (specs.len(), parts.collect::<Vec<_>>())
                });
                let got = resolve_range_header(value, size).map_err(|e| e.to_string());
                assert_eq!(got, want.map_err(|e| e.to_string()), "{value} of {size}");
            }
        }
    }

    #[test]
    fn resolve_against_size() {
        assert_eq!(RangeSpec::FromTo(0, 99).resolve(50), Some((0, 49)));
        assert_eq!(RangeSpec::FromTo(50, 99).resolve(50), None);
        assert_eq!(RangeSpec::From(10).resolve(50), Some((10, 49)));
        assert_eq!(RangeSpec::From(50).resolve(50), None);
        assert_eq!(RangeSpec::Suffix(10).resolve(50), Some((40, 49)));
        assert_eq!(RangeSpec::Suffix(100).resolve(50), Some((0, 49)));
        assert_eq!(RangeSpec::Suffix(0).resolve(50), None);
        assert_eq!(RangeSpec::FromTo(0, 0).resolve(0), None);
    }

    #[test]
    fn format_fragments() {
        assert_eq!(format_range_header(&[(0, 100), (200, 50)]), "bytes=0-99,200-249");
        assert_eq!(format_range_header(&[(0, 0), (5, 1)]), "bytes=5-5");
    }

    #[test]
    fn content_range_roundtrip() {
        let cr = ContentRange { first: 0, last: 99, total: Some(700) };
        assert_eq!(cr.to_string(), "bytes 0-99/700");
        assert_eq!(ContentRange::parse("bytes 0-99/700").unwrap(), cr);
        let cr = ContentRange { first: 5, last: 5, total: None };
        assert_eq!(ContentRange::parse("bytes 5-5/*").unwrap(), cr);
        assert_eq!(cr.len(), 1);
    }

    #[test]
    fn hand_written_decimals_agree_with_fmt() {
        // Every number with one to four digits, and both sides of every
        // power of ten: 10^8 is where the one-word path hands over to the
        // digit loop.
        let powers = (1..U64_DIGITS as u32).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e)]);
        let spread = (0..100_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (i % 64));
        for n in (0..10_000).chain(powers).chain(spread) {
            assert_eq!(decimal(n, &mut [0; U64_DIGITS]), n.to_string());
        }
        let edges = [0, 1, 9, 10, 99, 100, 4_294_967_295, 4_294_967_296, u64::MAX - 1, u64::MAX];
        for &a in &edges {
            assert_eq!(decimal(a, &mut [0; U64_DIGITS]), a.to_string());
            assert_eq!(decimal_len(a), a.to_string().len());
            for total in [None, Some(a)] {
                let cr = ContentRange { first: a / 2, last: a, total };
                let want = match total {
                    Some(t) => format!("bytes {}-{}/{t}", a / 2, a),
                    None => format!("bytes {}-{}/*", a / 2, a),
                };
                assert_eq!(cr.to_string(), want);
                assert_eq!(cr.encoded_len(), want.len());
            }
        }
        assert_eq!(
            format_range_header(&[(u64::MAX - 10, 10), (0, 1)]),
            format!("bytes={}-{},0-0", u64::MAX - 10, u64::MAX - 1)
        );
    }

    #[test]
    fn content_range_rejects_malformed() {
        assert!(ContentRange::parse("0-99/700").is_err());
        assert!(ContentRange::parse("bytes 99-0/700").is_err());
        assert!(ContentRange::parse("bytes 0-700/700").is_err());
        assert!(ContentRange::parse("bytes 0-99").is_err());
    }

    /// RFC 7233 numbers are `1*DIGIT`; `u64::from_str` also takes a `+`.
    #[test]
    fn a_number_with_a_sign_is_not_a_range() {
        for value in ["bytes=+0-+9", "bytes=+0-9", "bytes=0-+9", "bytes=-+9", "bytes=+5-"] {
            assert!(parse_range_header(value).is_err(), "{value}");
        }
        for value in ["bytes +0-+9/10", "bytes +0-9/10", "bytes 0-+9/10", "bytes 0-9/+10"] {
            assert!(ContentRange::parse(value).is_err(), "{value}");
        }
        // White space around the numbers is still taken, as `str::trim` takes it.
        assert_eq!(
            parse_range_header(" bytes= 0-9 ,\u{3000}20-\t, -5 ").unwrap(),
            [RangeSpec::FromTo(0, 9), RangeSpec::From(20), RangeSpec::Suffix(5)]
        );
        assert_eq!(
            ContentRange::parse("bytes  0 -\u{a0}9 / * ").unwrap(),
            ContentRange { first: 0, last: 9, total: None }
        );
    }

    #[test]
    fn numbers_past_u64_are_refused() {
        let max = u64::MAX;
        assert_eq!(parse_range_header(&format!("bytes={max}-")).unwrap(), [RangeSpec::From(max)]);
        assert!(parse_range_header("bytes=18446744073709551616-").is_err());
        assert!(parse_range_header("bytes=-18446744073709551616").is_err());
        let cr = ContentRange::parse(&format!("bytes 0-{}/{max}", max - 1)).unwrap();
        assert_eq!(cr.last, max - 1);
        assert!(ContentRange::parse("bytes 0-1/18446744073709551616").is_err());
    }

    #[test]
    fn coalesce_merges_overlaps_and_touches() {
        let frags = [(100, 50), (0, 10), (150, 10), (10, 5), (300, 1)];
        let merged = coalesce_fragments(&frags, 0);
        assert_eq!(merged, vec![(0, 15), (100, 60), (300, 1)]);
    }

    #[test]
    fn coalesce_respects_gap_budget() {
        let frags = [(0, 10), (15, 10), (100, 10)];
        assert_eq!(coalesce_fragments(&frags, 0), vec![(0, 10), (15, 10), (100, 10)]);
        assert_eq!(coalesce_fragments(&frags, 5), vec![(0, 25), (100, 10)]);
        assert_eq!(coalesce_fragments(&frags, 1000), vec![(0, 110)]);
    }

    #[test]
    fn coalesce_drops_empty_fragments() {
        assert_eq!(coalesce_fragments(&[(5, 0), (1, 2)], 0), vec![(1, 2)]);
        assert!(coalesce_fragments(&[], 0).is_empty());
    }
}
