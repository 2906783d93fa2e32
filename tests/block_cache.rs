//! Integration tests for the shared block cache (PR 4): single-flight
//! de-duplication, adaptive read-ahead (including its EOF clamp),
//! cache-keyed-by-origin survival across replica fail-over, the ≥ 5×
//! upstream-request elimination on sequential re-reads, and the
//! `DavPosix::stat` size fallback that rides along (HEAD without
//! `Content-Length` must probe, not report an empty file).

use bytes::Bytes;
use davix::{Config, DavixClient};
use davix_repro::testbed::{Testbed, TestbedConfig, FED};
use davix_sync::{AtomicUsize, Ordering};
use httpd::ServerConfig;
use httpwire::parse::read_request_head;
use httpwire::Method;
use netsim::{LinkSpec, Listener as _, Runtime as _, SimNet};
use objstore::{ObjectStore, StorageNode, StorageOptions};
use std::io::{BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 83 + 29) % 249) as u8).collect()
}

fn sim(delay_ms: u64) -> SimNet {
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link(
        "c",
        "s",
        LinkSpec { delay: Duration::from_millis(delay_ms), ..Default::default() },
    );
    net
}

fn storage(net: &SimNet, data: Vec<u8>) {
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data));
    StorageNode::start(
        store,
        Box::new(net.bind("s", 80).unwrap()),
        net.runtime(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
}

fn client(net: &SimNet, cfg: Config) -> DavixClient {
    DavixClient::new(net.connector("c"), net.runtime(), cfg)
}

fn cache_cfg() -> Config {
    Config::default().no_retry().with_cache(16 * 1024 * 1024)
}

/// THE single-flight regression: N threads reading the same cold block
/// concurrently must cost exactly **one** upstream GET — the losers park
/// on the winner's in-flight fetch instead of racing N identical requests.
#[test]
fn n_concurrent_same_block_readers_cost_one_upstream_get() {
    const READERS: usize = 8;
    let data = payload(256 * 1024);
    let net = sim(50); // slow link: all readers arrive while the fetch flies
    storage(&net, data.clone());
    let _g = net.enter();
    let client = client(&net, cache_cfg());
    let file = Arc::new(client.open("http://s/f").unwrap());
    let before = client.metrics();

    let done = net.runtime().signal();
    let live = Arc::new(AtomicUsize::new(READERS));
    let expected = Arc::new(data);
    for w in 0..READERS {
        let file = Arc::clone(&file);
        let done = Arc::clone(&done);
        let live = Arc::clone(&live);
        let expected = Arc::clone(&expected);
        net.spawn(&format!("reader-{w}"), move || {
            let mut buf = vec![0u8; 4096];
            // Same cold block for everyone (offsets within block 0).
            let off = (w * 128) as u64;
            let n = file.pread(off, &mut buf).unwrap();
            assert_eq!(n, 4096);
            assert_eq!(&buf, &expected[off as usize..off as usize + 4096]);
            if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                done.set();
            }
        });
    }
    done.wait(None);
    let d = client.metrics().since(&before);
    assert_eq!(d.requests, 1, "{READERS} same-block readers must share one GET");
    assert_eq!(d.cache_misses, 1);
    assert_eq!(
        d.singleflight_waits,
        (READERS - 1) as u64,
        "every reader but the fetcher must have parked on the flight"
    );
    // And the handle's round-trip accounting agrees: 8 reads, 1 round trip.
    let io = file.io_stats();
    assert_eq!(io.reads, READERS as u64);
    assert_eq!(io.round_trips, 1);
}

/// Sequential re-read: the cache must eliminate at least 5× the upstream
/// requests (the PR's acceptance criterion; the fig5_cache bench asserts
/// the same thing with a table around it).
#[test]
fn sequential_reread_eliminates_5x_upstream_requests() {
    let data = payload(1024 * 1024);
    let run = |cfg: Config| -> (u64, Vec<u8>) {
        let net = sim(2);
        storage(&net, data.clone());
        let _g = net.enter();
        let client = client(&net, cfg);
        let file = client.open("http://s/f").unwrap();
        let before = client.metrics();
        let mut out = Vec::new();
        let mut buf = vec![0u8; 16 * 1024];
        for _pass in 0..2 {
            let mut off = 0u64;
            out.clear();
            loop {
                let n = file.pread(off, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                out.extend_from_slice(&buf[..n]);
                off += n as u64;
            }
        }
        (client.metrics().since(&before).requests, out)
    };
    let (uncached, got_u) = run(Config::default().no_retry());
    let (cached, got_c) = run(cache_cfg());
    assert_eq!(got_u, data);
    assert_eq!(got_c, data, "cached bytes must be identical");
    assert!(
        uncached >= cached * 5,
        "expected >=5x fewer upstream requests (uncached={uncached}, cached={cached})"
    );
}

/// Read-ahead at EOF: a sequential scan whose growing window shoots past
/// the end of the file must neither error nor poison the cache.
#[test]
fn readahead_clamps_at_eof_without_error_or_poison() {
    let size = 800 * 1024; // 3 blocks of 256 KiB + a short tail
    let data = payload(size);
    let net = sim(2);
    storage(&net, data.clone());
    let _g = net.enter();
    // Window opens at one block and doubles to 16 (4 MiB) — far past EOF
    // by the fourth read.
    let client = client(&net, cache_cfg().with_readahead());
    let file = client.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 16 * 1024];
    let mut off = 0u64;
    let mut got = Vec::new();
    loop {
        let n = file.pread(off, &mut buf).unwrap();
        if n == 0 {
            break;
        }
        got.extend_from_slice(&buf[..n]);
        off += n as u64;
    }
    assert_eq!(got, data);
    // Reads at and past EOF stay clean.
    assert_eq!(file.pread(size as u64, &mut buf).unwrap(), 0);
    assert_eq!(file.pread(size as u64 + 1, &mut buf).unwrap(), 0);
    // Let any stragglers land, then prove the cache was not poisoned: a
    // full re-read is byte-identical and all hits.
    net.runtime().sleep(Duration::from_millis(200));
    let before = client.metrics();
    let mut all = vec![0u8; size];
    let mut off = 0usize;
    while off < size {
        let n = file.pread(off as u64, &mut all[off..]).unwrap();
        assert!(n > 0);
        off += n;
    }
    assert_eq!(all, data);
    assert_eq!(client.metrics().since(&before).requests, 0, "re-read must be all hits");
    assert!(client.metrics().bytes_prefetched > 0, "the scan must have prefetched");
}

/// A cold vectored read through the cache keeps the §2.3 round-trip
/// profile: all missing blocks arrive in ONE multi-range request.
#[test]
fn cold_vectored_read_through_cache_is_one_round_trip() {
    let data = payload(512 * 1024);
    let net = sim(2);
    storage(&net, data.clone());
    let _g = net.enter();
    let client = client(&net, cache_cfg());
    let file = client.open("http://s/f").unwrap();
    let before = client.metrics();
    let frags: Vec<(u64, usize)> = (0..32).map(|i| (i * 16_000, 100)).collect();
    let got = file.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    assert_eq!(client.metrics().since(&before).requests, 1, "one multi-range GET, as uncached");
}

/// Fail-over cache survival: blocks cached from replica A are keyed by the
/// origin resource, so after A dies (1) already-read spans are served from
/// memory with zero network traffic, and (2) new spans fail over to
/// replica B and join the same cache.
#[test]
fn cached_blocks_survive_replica_switch() {
    let data = payload(400 * 1024);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm2.cern.ch".to_string(), LinkSpec::lan()),
        ],
        data: Bytes::from(data.clone()),
        with_federation: true,
        ..Default::default()
    });
    let _g = tb.net.enter();
    let cfg = cache_cfg().with_metalink_base(format!("http://{FED}/myfed").parse().unwrap());
    let client = tb.davix_client(cfg);
    let file = client.open_failover(&tb.url(0)).unwrap();

    // Warm the first 128 KiB from dpm1.
    let mut buf = vec![0u8; 128 * 1024];
    assert_eq!(file.pread(0, &mut buf).unwrap(), buf.len());
    assert_eq!(&buf, &data[..buf.len()]);
    assert_eq!(file.current_uri().host, "dpm1.cern.ch");

    // Kill the replica that served everything so far.
    tb.net.set_host_down("dpm1.cern.ch", true);

    // (1) The warmed span is served from cache: zero requests, zero
    // fail-overs, even though the serving replica is gone.
    let before = client.metrics();
    assert_eq!(file.pread(64 * 1024, &mut buf[..1024]).unwrap(), 1024);
    assert_eq!(&buf[..1024], &data[64 * 1024..64 * 1024 + 1024]);
    let d = client.metrics().since(&before);
    assert_eq!(d.requests, 0, "cached span must not touch the dead network");
    assert_eq!(d.failovers, 0);

    // (2) A cold span fails over to dpm2 and lands in the same cache.
    let n = file.pread(300 * 1024, &mut buf[..4096]).unwrap();
    assert_eq!(n, 4096);
    assert_eq!(&buf[..4096], &data[300 * 1024..300 * 1024 + 4096]);
    assert!(client.metrics().failovers > 0, "cold read must have failed over");
    let before = client.metrics();
    assert_eq!(file.pread(300 * 1024, &mut buf[..4096]).unwrap(), 4096);
    assert_eq!(
        client.metrics().since(&before).requests,
        0,
        "the failed-over fetch must have populated the origin-keyed cache"
    );
}

/// The cached `ReplicaFile::pread_vec` keeps the uncached EOF contract: an
/// out-of-range fragment errors instead of silently truncating.
#[test]
fn cached_replica_pread_vec_rejects_out_of_bounds() {
    let data = payload(100_000);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
        data: Bytes::from(data),
        ..Default::default()
    });
    let _g = tb.net.enter();
    let client = tb.davix_client(cache_cfg());
    let file = client.open_failover(&tb.url(0)).unwrap();
    assert!(file.pread_vec(&[(99_999, 2)]).is_err(), "beyond-EOF fragment must error");
    assert!(file.pread_vec(&[(99_999, 1)]).is_ok());
}

/// `DavPosix::stat` against a server whose HEAD omits `Content-Length`:
/// the seed reported `size: 0` (a silent lie); now a 1-byte ranged GET
/// recovers the real size, and the ETag is surfaced alongside it.
#[test]
fn stat_probes_size_when_head_has_no_content_length() {
    let net = sim(1);
    raw_sizeless_server(&net, 54_321, true);
    let _g = net.enter();
    let client = client(&net, Config::default().no_retry());
    let st = client.posix().stat("http://s/f").unwrap();
    assert_eq!(st.size, 54_321, "size must come from the ranged probe, not default to 0");
    assert!(!st.is_dir);
    assert_eq!(st.etag.as_deref(), Some("\"v7\""));
    // DavFile::open over the same server also recovers (the seed errored).
    let f = client.open("http://s/f").unwrap();
    assert_eq!(f.size_hint().unwrap(), 54_321);
    assert_eq!(f.stat().etag.as_deref(), Some("\"v7\""));
}

/// When the ranged probe is rejected outright too, stat falls back to
/// PROPFIND's `getcontentlength`.
#[test]
fn stat_falls_back_to_propfind_when_probe_rejected() {
    let net = sim(1);
    raw_sizeless_server(&net, 98_765, false);
    let _g = net.enter();
    let client = client(&net, Config::default().no_retry());
    let st = client.posix().stat("http://s/f").unwrap();
    assert_eq!(st.size, 98_765);
    assert_eq!(st.etag.as_deref(), Some("\"v7\""));
}

/// A hand-rolled HTTP server (the `httpd` crate always adds
/// `Content-Length`, which is exactly what this server must *not* do):
/// HEAD answers 200 + ETag with no `Content-Length`; ranged GETs answer
/// `206` with the total in `Content-Range` when `ranged` (else `416`);
/// PROPFIND answers a depth-0 multistatus with `getcontentlength`.
fn raw_sizeless_server(net: &SimNet, size: u64, ranged: bool) {
    let listener = net.bind("s", 80).unwrap();
    let rt = net.runtime();
    rt.spawn(
        "raw-sizeless-server",
        Box::new(move || loop {
            let Ok((stream, _peer)) = listener.accept() else { return };
            let Ok(mut writer) = stream.try_clone() else { return };
            let mut reader = BufReader::new(stream);
            while let Ok(Some(head)) = read_request_head(&mut reader) {
                let resp: String = match head.method {
                    Method::Head => "HTTP/1.1 200 OK\r\nETag: \"v7\"\r\n\r\n".to_string(),
                    Method::Get if ranged => format!(
                        "HTTP/1.1 206 Partial Content\r\nETag: \"v7\"\r\n\
                         Content-Range: bytes 0-0/{size}\r\nContent-Length: 1\r\n\r\nX"
                    ),
                    Method::Get => {
                        "HTTP/1.1 416 Range Not Satisfiable\r\nContent-Length: 0\r\n\r\n"
                            .to_string()
                    }
                    Method::Propfind => {
                        let body = format!(
                            "<multistatus><response><href>/f</href><propstat><prop>\
                             <getcontentlength>{size}</getcontentlength>\
                             </prop></propstat></response></multistatus>"
                        );
                        format!(
                            "HTTP/1.1 207 Multi-Status\r\nContent-Type: application/xml\r\n\
                             Content-Length: {}\r\n\r\n{body}",
                            body.len()
                        )
                    }
                    _ => "HTTP/1.1 405 Method Not Allowed\r\nContent-Length: 0\r\n\r\n".to_string(),
                };
                if writer.write_all(resp.as_bytes()).is_err() {
                    break;
                }
            }
        }),
    );
}
