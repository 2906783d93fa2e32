//! Integration tests for Metalink checksum verification (§2.4 lists the
//! checksum among a Metalink's metadata; davix verifies whole-file
//! multi-stream downloads against it).

use bytes::Bytes;
use davix::{multistream_download_verified, Config, DavixClient, DavixError, MultistreamOptions};
use davix_repro::testbed::{Testbed, TestbedConfig, DATA_PATH, FED};
use netsim::LinkSpec;
use std::sync::{Arc, Mutex};

/// A verified multi-stream download into memory: the entity, or the error.
fn verified(client: &DavixClient, url: &str, opts: &MultistreamOptions) -> davix::Result<Vec<u8>> {
    let entity = Arc::new(Mutex::new(Vec::new()));
    let n = multistream_download_verified(client, url, opts, entity.clone())?;
    let got = std::mem::take(&mut *entity.lock().unwrap());
    assert_eq!(n, got.len() as u64, "the size returned is the bytes written");
    Ok(got)
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131 + 17) % 241) as u8).collect()
}

fn three_replica_testbed(data: &[u8]) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm2.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm3.cern.ch".to_string(), LinkSpec::lan()),
        ],
        data: Bytes::from(data.to_vec()),
        with_federation: true,
        ..Default::default()
    })
}

fn fed_config() -> Config {
    Config::default().with_metalink_base(format!("http://{FED}/myfed").parse().unwrap())
}

#[test]
fn replica_set_carries_size_and_crc32() {
    let data = payload(64_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let set = client.resolve_replica_set(&tb.url(0)).unwrap();
    assert_eq!(set.uris.len(), 3);
    assert_eq!(set.size, Some(64_000));
    let expected = ioapi::checksum::to_hex(ioapi::checksum::crc32(&data));
    assert_eq!(set.hash("crc32"), Some(expected.as_str()));
    assert_eq!(set.hash("CRC32"), Some(expected.as_str()), "algo lookup is case-insensitive");
    assert_eq!(set.hash("sha-256"), None);
}

#[test]
fn verified_multistream_accepts_intact_data() {
    let data = payload(300_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let opts = MultistreamOptions { streams: 3, chunk_size: 32 * 1024 };
    let got = verified(&client, &tb.url(0), &opts).unwrap();
    assert_eq!(got, data);
}

#[test]
fn verified_multistream_detects_corrupt_replica() {
    let data = payload(300_000);
    let tb = three_replica_testbed(&data);
    // Replica 2 silently serves different bytes of the same size (bit rot /
    // truncated-then-padded object): the assembled download must fail the
    // Metalink crc32.
    let mut corrupt = data.clone();
    for b in corrupt.iter_mut().step_by(1000) {
        *b ^= 0xFF;
    }
    tb.nodes[1].store.put(DATA_PATH, Bytes::from(corrupt));
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let opts = MultistreamOptions { streams: 3, chunk_size: 32 * 1024 };
    let err = verified(&client, &tb.url(0), &opts).unwrap_err();
    match err {
        DavixError::ChecksumMismatch { algo, expected, got } => {
            assert_eq!(algo, "crc32");
            assert_ne!(expected, got);
        }
        other => panic!("expected ChecksumMismatch, got {other}"),
    }
}

#[test]
fn verified_multistream_detects_size_mismatch() {
    let data = payload(300_000);
    let tb = three_replica_testbed(&data);
    // Every replica serves a shorter object than the catalogue declares
    // (e.g. the catalogue is stale after a partial rewrite).
    for node in &tb.nodes {
        node.store.put(DATA_PATH, Bytes::from(data[..200_000].to_vec()));
    }
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let opts = MultistreamOptions { streams: 2, chunk_size: 64 * 1024 };
    // Each replica's disagreement is that replica's failure in the
    // fail-over walk, found at its HEAD — before anything is sized from it,
    // let alone downloaded or hashed.
    let err = verified(&client, &tb.url(0), &opts).unwrap_err();
    match err {
        DavixError::AllReplicasFailed { tried: 3, last } => {
            assert!(matches!(*last, DavixError::Protocol(_)), "{last}")
        }
        other => panic!("every replica disagrees with the declared size: {other}"),
    }
    let fetched = client.metrics().bytes_in;
    assert!(fetched < 4096, "only the Metalink document was fetched, got {fetched} bytes");
}

#[test]
fn unknown_hash_algorithms_are_skipped() {
    // A metalink declaring only an unverifiable algorithm must not fail the
    // download (davix semantics: verify what you can).
    let data = payload(50_000);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm2.cern.ch".to_string(), LinkSpec::lan()),
        ],
        data: Bytes::from(data.clone()),
        with_federation: true,
        ..Default::default()
    });
    let fed = tb.federation.as_ref().unwrap();
    fed.catalog.set_hash(DATA_PATH, "sha-256", "0123456789abcdef");
    // Replace the crc32 entry with a wrong sha-256-only story: keep crc32
    // correct but also declare sha-256 — only crc32 is checked, sha-256 is
    // skipped, and the download succeeds.
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let opts = MultistreamOptions { streams: 2, chunk_size: 16 * 1024 };
    let got = verified(&client, &tb.url(0), &opts).unwrap();
    assert_eq!(got, data);
}

/// A testbed whose catalogue declares `adler32 = adler` beside the
/// correct `crc32`.
fn crc32_and_adler32_testbed(data: &[u8], adler: u32) -> Testbed {
    let tb = three_replica_testbed(data);
    let fed = tb.federation.as_ref().unwrap();
    fed.catalog.set_hash(DATA_PATH, "adler32", ioapi::checksum::to_hex(adler));
    tb
}

#[test]
fn a_catalog_declaring_both_digests_verifies_intact_data() {
    let data = payload(300_000);
    let tb = crc32_and_adler32_testbed(&data, ioapi::checksum::adler32(&data));
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let set = client.resolve_replica_set(&tb.url(0)).unwrap();
    assert!(set.hash("crc32").is_some() && set.hash("adler32").is_some(), "{:?}", set.hashes);
    let opts = MultistreamOptions { streams: 3, chunk_size: 32 * 1024 };
    let got = verified(&client, &tb.url(0), &opts).unwrap();
    assert_eq!(got, data);
}

#[test]
fn a_wrong_adler32_beside_a_right_crc32_fails() {
    let data = payload(300_000);
    let wrong = ioapi::checksum::adler32(&data) ^ 1;
    let tb = crc32_and_adler32_testbed(&data, wrong);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let opts = MultistreamOptions { streams: 3, chunk_size: 32 * 1024 };
    let err = verified(&client, &tb.url(0), &opts).unwrap_err();
    match err {
        DavixError::ChecksumMismatch { algo, expected, got } => {
            assert_eq!(algo, "adler32");
            assert_eq!(expected, ioapi::checksum::to_hex(wrong));
            assert_eq!(got, ioapi::checksum::to_hex(ioapi::checksum::adler32(&data)));
        }
        other => panic!("expected ChecksumMismatch, got {other}"),
    }
}
