//! Property-based tests for the HTTP wire formats: every serializer/parser
//! pair must round-trip arbitrary valid inputs, and the range algebra must
//! preserve coverage.

use httpwire::parse::{read_request_head, read_response_head, BodyLen, BodyReader, ChunkedWriter};
use httpwire::range::{coalesce_fragments, format_range_header, parse_range_header};
use httpwire::{ContentRange, HeaderMap, Method, RequestHead, ResponseHead, StatusCode};
use proptest::prelude::*;
use std::io::{Cursor, Write};

fn header_name() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,20}".prop_map(|s| s)
}

fn header_value() -> impl Strategy<Value = String> {
    // Visible ASCII without leading/trailing spaces (we trim on parse).
    "[!-~][ -~]{0,40}".prop_map(|s| s.trim().to_string())
}

proptest! {
    /// Request heads survive serialize → parse.
    #[test]
    fn request_head_roundtrips(
        target in "/[a-zA-Z0-9/_.%-]{0,40}",
        headers in proptest::collection::vec((header_name(), header_value()), 0..8),
    ) {
        let mut head = RequestHead::new(Method::Get, target.clone());
        for (n, v) in &headers {
            head.headers.append(n, v.clone());
        }
        let bytes = head.to_bytes();
        let parsed = read_request_head(&mut Cursor::new(bytes)).unwrap().unwrap();
        prop_assert_eq!(parsed.method, Method::Get);
        prop_assert_eq!(parsed.target, target);
        prop_assert_eq!(parsed.headers.len(), head.headers.len());
        for (n, v) in &headers {
            prop_assert!(parsed.headers.get_all(n).any(|pv| pv == v));
        }
    }

    /// Response heads survive serialize → parse.
    #[test]
    fn response_head_roundtrips(
        code in 100u16..599,
        headers in proptest::collection::vec((header_name(), header_value()), 0..8),
    ) {
        let mut head = ResponseHead::new(StatusCode(code));
        for (n, v) in &headers {
            head.headers.append(n, v.clone());
        }
        let bytes = head.to_bytes();
        let parsed = read_response_head(&mut Cursor::new(bytes)).unwrap();
        prop_assert_eq!(parsed.status, StatusCode(code));
        prop_assert_eq!(parsed.headers.len(), head.headers.len());
    }

    /// Chunked bodies round-trip regardless of how writes are split.
    #[test]
    fn chunked_roundtrips(chunks in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..300), 0..12)
    ) {
        let mut wire = Vec::new();
        {
            let mut w = ChunkedWriter::new(&mut wire);
            for c in &chunks {
                w.write_all(c).unwrap();
            }
            w.finish().unwrap();
        }
        let mut c = Cursor::new(wire);
        let body = BodyReader::new(&mut c, BodyLen::Chunked).read_all().unwrap();
        let expect: Vec<u8> = chunks.concat();
        prop_assert_eq!(body, expect);
    }

    /// Range headers round-trip through format → parse → resolve.
    #[test]
    fn range_header_roundtrips(frags in proptest::collection::vec(
        (0u64..1_000_000, 1usize..10_000), 1..20)
    ) {
        let header = format_range_header(&frags);
        let specs = parse_range_header(&header).unwrap();
        prop_assert_eq!(specs.len(), frags.len());
        for (spec, (off, len)) in specs.iter().zip(&frags) {
            let resolved = spec.resolve(u64::MAX).unwrap();
            prop_assert_eq!(resolved.0, *off);
            prop_assert_eq!(resolved.1, off + *len as u64 - 1);
        }
    }

    /// Coalescing preserves exact byte coverage (gap 0), never overlaps, and
    /// is sorted.
    #[test]
    fn coalesce_preserves_coverage(frags in proptest::collection::vec(
        (0u64..10_000, 0usize..200), 0..30)
    ) {
        let merged = coalesce_fragments(&frags, 0);
        // sorted, non-overlapping, non-touching
        for w in merged.windows(2) {
            prop_assert!(w[0].0 + w[0].1 < w[1].0);
        }
        // coverage equality via interval membership sampling on fragment
        // endpoints (sufficient: merged intervals are unions of inputs)
        let covered = |x: u64| merged.iter().any(|&(s, l)| x >= s && x < s + l);
        for &(off, len) in &frags {
            if len == 0 { continue; }
            prop_assert!(covered(off));
            prop_assert!(covered(off + len as u64 - 1));
        }
        let total_in: u64 = {
            // measure true union size with a sweep
            let mut pts: Vec<(u64, i32)> = Vec::new();
            for &(off, len) in &frags {
                if len > 0 {
                    pts.push((off, 1));
                    pts.push((off + len as u64, -1));
                }
            }
            pts.sort_unstable();
            let mut depth = 0;
            let mut start = 0u64;
            let mut covered = 0u64;
            for (x, d) in pts {
                if depth > 0 {
                    covered += x - start;
                }
                depth += d;
                start = x;
            }
            covered
        };
        let total_out: u64 = merged.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(total_in, total_out);
    }

    /// Multipart bodies round-trip for arbitrary non-overlapping parts.
    #[test]
    fn multipart_roundtrips(parts in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..200), 0..8)
    ) {
        use httpwire::{MultipartReader, MultipartWriter};
        // Lay parts end to end with a 7-byte gap so ranges are valid.
        let mut off = 0u64;
        let mut ranges = Vec::new();
        for p in &parts {
            ranges.push(ContentRange { first: off, last: off + p.len() as u64 - 1, total: None });
            off += p.len() as u64 + 7;
        }
        let mut w = MultipartWriter::new(Vec::new(), "PBT");
        for (r, p) in ranges.iter().zip(&parts) {
            w.write_part("application/octet-stream", *r, p).unwrap();
        }
        let wire = w.finish().unwrap();
        let decoded = MultipartReader::new(Cursor::new(wire), "PBT").read_all_parts().unwrap();
        prop_assert_eq!(decoded.len(), parts.len());
        for (d, (r, p)) in decoded.iter().zip(ranges.iter().zip(&parts)) {
            prop_assert_eq!(&d.data, p);
            prop_assert_eq!(&d.range, r);
        }
    }

    /// The block-and-spans `HeaderMap` is, after every step of any
    /// `set`/`append`/`remove` sequence, what a list of `(String, String)`
    /// pairs would be: same lookups, same order, same text.
    #[test]
    fn headermap_model(ops in proptest::collection::vec(
        (0u8..3, header_name(), header_value()), 0..40)
    ) {
        let mut h = HeaderMap::new();
        let mut model: Vec<(String, String)> = Vec::new();
        for (op, name, value) in ops {
            // Names that differ only in case are one field: make them meet.
            let name = if op == 2 { name.to_ascii_uppercase() } else { name };
            match op {
                0 => {
                    model.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
                    model.push((name.clone(), value.clone()));
                    h.set(&name, &value);
                }
                1 => {
                    model.push((name.clone(), value.clone()));
                    h.append(&name, &value);
                }
                _ => {
                    let before = model.len();
                    model.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
                    prop_assert_eq!(h.remove(&name), model.len() != before);
                }
            }
            prop_assert_eq!(h.len(), model.len());
            prop_assert_eq!(h.is_empty(), model.is_empty());
            let pairs: Vec<(&str, &str)> =
                model.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
            prop_assert_eq!(h.iter().collect::<Vec<_>>(), pairs.clone());
            prop_assert_eq!((&h).into_iter().collect::<Vec<_>>(), pairs);
            let text: String = model.iter().map(|(n, v)| format!("{n}: {v}\r\n")).collect();
            prop_assert_eq!(h.to_string(), text);
            for probe in model.iter().map(|(n, _)| n.to_ascii_lowercase()).chain([name]) {
                let all: Vec<&str> = model
                    .iter()
                    .filter(|(n, _)| n.eq_ignore_ascii_case(&probe))
                    .map(|(_, v)| v.as_str())
                    .collect();
                prop_assert_eq!(h.get(&probe), all.first().copied());
                prop_assert_eq!(h.contains(&probe), !all.is_empty());
                prop_assert_eq!(h.get_all(&probe).collect::<Vec<_>>(), all);
            }
            prop_assert_eq!(&h.clone(), &h);
        }
    }
}
