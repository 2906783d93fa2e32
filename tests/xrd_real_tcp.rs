//! The xrdlite baseline over **real loopback TCP**: the same client/server
//! code the simulator benchmarks, bound to `RealRuntime` + OS sockets —
//! proving the protocol stack is transport-generic, exactly like the davix
//! side's real-TCP test.

use bytes::Bytes;
use ioapi::RandomAccess;
use netsim::{RealRuntime, Runtime, TcpConnector, TcpListenerWrap};
use objstore::ObjectStore;
use std::sync::Arc;
use xrdlite::server::XrdServerConfig;
use xrdlite::{XrdClient, XrdClientOptions, XrdServer};

fn start_server(data: &[u8]) -> (std::net::SocketAddr, Arc<XrdServer>) {
    let store = Arc::new(ObjectStore::new());
    store.put("/events.root", Bytes::from(data.to_vec()));
    store.put("/tiny", Bytes::from_static(b"xyz"));
    let listener = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = XrdServer::new(store, XrdServerConfig::default());
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    server.serve(Box::new(listener), rt);
    (addr, server)
}

fn connect(addr: std::net::SocketAddr) -> XrdClient {
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    XrdClient::connect(
        &TcpConnector,
        rt,
        &addr.ip().to_string(),
        addr.port(),
        XrdClientOptions::default(),
    )
    .unwrap()
}

#[test]
fn open_stat_read_over_real_sockets() {
    let data: Vec<u8> = (0..100_000u32).map(|i| (i % 239) as u8).collect();
    let (addr, server) = start_server(&data);
    let client = connect(addr);

    assert_eq!(client.stat("/events.root").unwrap(), data.len() as u64);
    let f = client.open("/events.root").unwrap();
    assert_eq!(f.size_bytes(), data.len() as u64);

    let mut buf = vec![0u8; 4096];
    let n = f.read_at(32_768, &mut buf).unwrap();
    assert_eq!(&buf[..n], &data[32_768..32_768 + n]);
    assert!(server.requests.load(davix_sync::Ordering::Relaxed) >= 3);
}

#[test]
fn vectored_read_over_real_sockets_is_one_round_trip() {
    let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
    let (addr, _server) = start_server(&data);
    let client = connect(addr);
    let f = client.open("/events.root").unwrap();
    let frags: Vec<(u64, usize)> = (0..64).map(|i| (i * 15_000, 200)).collect();
    let before = client.round_trips();
    let got = f.read_vec(&frags).unwrap();
    assert_eq!(client.round_trips() - before, 1);
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
}

#[test]
fn chunked_large_responses_reassemble_over_real_sockets() {
    // A read larger than the server's 64 KiB frame chunk arrives as several
    // FLAG_PARTIAL frames; the client must reassemble transparently.
    let data: Vec<u8> = (0..2_000_000u32).map(|i| (i % 233) as u8).collect();
    let (addr, _server) = start_server(&data);
    let client = connect(addr);
    let f = client.open("/events.root").unwrap();
    let got = f.read_vec(&[(100_000, 700_000)]).unwrap();
    assert_eq!(got.len(), 1);
    assert_eq!(got[0], &data[100_000..800_000]);
}

#[test]
fn concurrent_readers_multiplex_one_connection() {
    let data: Vec<u8> = (0..500_000u32).map(|i| (i % 229) as u8).collect();
    let (addr, server) = start_server(&data);
    let client = Arc::new(connect(addr));
    let f = Arc::new(client.open("/events.root").unwrap());

    let mut handles = Vec::new();
    for t in 0..8u64 {
        let f = Arc::clone(&f);
        let data = data.clone();
        handles.push(std::thread::spawn(move || {
            for i in 0..16u64 {
                let off = (t * 16 + i) * 3_000;
                let mut buf = vec![0u8; 1_000];
                let n = f.read_at(off, &mut buf).unwrap();
                assert_eq!(&buf[..n], &data[off as usize..off as usize + n]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    // All of that went over exactly one TCP connection.
    assert_eq!(server.connections.load(davix_sync::Ordering::Relaxed), 1);
}

#[test]
fn missing_files_error_cleanly_over_real_sockets() {
    let (addr, _server) = start_server(b"data");
    let client = connect(addr);
    assert!(client.open("/no-such-file").is_err());
    assert!(client.stat("/no-such-file").is_err());
}
