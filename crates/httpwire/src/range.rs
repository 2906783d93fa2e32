//! Byte-range machinery: `Range` and `Content-Range` headers plus the range
//! algebra used by vectored I/O (sorting, clamping, coalescing).
//!
//! HTTP ranges are *inclusive* (`bytes=0-99` is 100 bytes). The helpers here
//! convert between that convention and the `(offset, length)` pairs used by
//! the I/O layers.

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

/// Parse a `Range` header value (`bytes=0-99,200-,-5`).
pub fn parse_range_header(value: &str) -> Result<Vec<RangeSpec>, WireError> {
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

/// Most decimal digits of a `u64`.
pub(crate) const U64_DIGITS: usize = 20;

/// The decimal digits of `n`, written at the end of `buf`. A vectored read
/// formats a thousand of these per request and the server a thousand more
/// per answer; `fmt` costs several times the digits themselves.
pub(crate) fn decimal(mut n: u64, buf: &mut [u8; U64_DIGITS]) -> &str {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    std::str::from_utf8(&buf[at..]).expect("ASCII digits")
}

/// How many digits [`decimal`] writes for `n`.
fn decimal_len(n: u64) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Format `(offset, length)` fragments as a `Range` header value.
/// Zero-length fragments are skipped.
pub fn format_range_header(fragments: &[(u64, usize)]) -> String {
    let mut digits = [0u8; U64_DIGITS];
    let mut s = String::with_capacity("bytes=".len() + fragments.len() * 16);
    s.push_str("bytes=");
    let mut first = true;
    for &(off, len) in fragments {
        if len == 0 {
            continue;
        }
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(decimal(off, &mut digits));
        s.push('-');
        s.push_str(decimal(off + len as u64 - 1, &mut digits));
    }
    s
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
        let first: u64 =
            first.trim().parse().map_err(|_| WireError::BadRange(value.to_string()))?;
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
}

/// Longest `Content-Range` value: `bytes ` + first + `-` + last + `/` + total.
pub(crate) const CONTENT_RANGE_MAX: usize = 6 + 3 * U64_DIGITS + 2;

impl ContentRange {
    /// The header value (`bytes first-last/total`), written into `text`.
    pub(crate) fn encode<'b>(&self, text: &'b mut [u8; CONTENT_RANGE_MAX]) -> &'b str {
        let mut len = 0;
        let mut push = |piece: &str| {
            text[len..len + piece.len()].copy_from_slice(piece.as_bytes());
            len += piece.len();
        };
        let mut digits = [0u8; U64_DIGITS];
        push("bytes ");
        push(decimal(self.first, &mut digits));
        push("-");
        push(decimal(self.last, &mut digits));
        push("/");
        push(self.total.map_or("*", |t| decimal(t, &mut digits)));
        std::str::from_utf8(&text[..len]).expect("ASCII")
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
        f.write_str(self.encode(&mut [0; CONTENT_RANGE_MAX]))
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
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (start, end) in v {
        match out.last_mut() {
            Some((_, prev_end)) if start <= prev_end.saturating_add(max_gap) => {
                *prev_end = (*prev_end).max(end);
            }
            _ => out.push((start, end)),
        }
    }
    out.into_iter().map(|(s, e)| (s, e - s)).collect()
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
