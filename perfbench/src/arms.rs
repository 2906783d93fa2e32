//! Extra arms of the traced run: paths no end-to-end metric covers today,
//! measured once so later changes (streaming request bodies, one buffer
//! type) have a baseline to quote. Each arm belongs to the workload whose
//! data it reuses and reports a median over a few repetitions.

use crate::gen;
use crate::stack::Loopback;
use crate::stats::{median, MIB};
use crate::trace::{self, Layer};
use crate::workload::analysis_sparse as sparse;
use crate::wrap::TimedSource;
use bytes::Bytes;
use davix::{multistream_upload, BodyProvider, UploadOptions};
use httpwire::body::BodySource;
use ioapi::RandomAccess;
use netsim::{Listener, RealRuntime, Runtime, TcpConnector, TcpListenerWrap};
use objstore::ObjectStore;
use rootio::{JobReport, TreeReader};
use std::sync::Arc;
use std::time::Instant;

const REPS: usize = 3;

/// Median MiB/s of `REPS` runs of `op`, each moving `bytes`.
fn mib_per_s(bytes: usize, mut op: impl FnMut()) -> f64 {
    let rates: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            op();
            bytes as f64 / MIB / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// `DavPosix::get` of one `big` -byte object (64 MiB at full size): the
/// collect-to-`Vec` path.
pub fn collect_get_mib_per_s(stack: &Loopback, seed: u64, big: usize) -> f64 {
    let data = Bytes::from(gen::object_bytes(seed, 64, big));
    stack.store.put("/arm/get64", data.clone());
    let posix = stack.client.posix();
    let url = stack.url("/arm/get64");
    let rate = mib_per_s(data.len(), || {
        let got = posix.get(&url).expect("whole-object GET");
        assert!(got == data, "whole-object GET returned wrong bytes");
    });
    stack.store.delete("/arm/get64");
    rate
}

/// A body whose length the client does not know: travels chunked.
struct Unsized(Bytes);

impl BodyProvider for Unsized {
    fn content_length(&self) -> Option<u64> {
        None
    }

    fn open(&self) -> davix::Result<BodySource<'_>> {
        Ok(BodySource::chunked(std::io::Cursor::new(self.0.as_ref())))
    }
}

/// The write-path arms: chunked PUT, PUT throughput scaling from a
/// `big / 4` to a `big` body (16 to 64 MiB at full size), and the parallel
/// upload in 2 streams of `big / 16` chunks (4 MiB).
pub fn put_arms(stack: &Loopback, seed: u64, big: usize) -> Vec<(&'static str, f64)> {
    let posix = stack.client.posix();
    let big = Bytes::from(gen::object_bytes(seed, 65, big));
    let small = big.slice(..big.len() / 4);
    let stored_is = |path: &str, want: &Bytes| {
        let ok = stack.store.get(path).map(|m| m.data == *want).unwrap_or(false);
        assert!(ok, "{path} holds wrong bytes after upload");
        stack.store.delete(path);
    };

    let chunked = mib_per_s(small.len(), || {
        posix.put_stream(&stack.url("/arm/chunked"), &Unsized(small.clone())).expect("chunked PUT");
        stored_is("/arm/chunked", &small);
    });
    let put16 = mib_per_s(small.len(), || {
        posix.put_stream(&stack.url("/arm/put16"), &small).expect("small PUT");
        stored_is("/arm/put16", &small);
    });
    let put64 = mib_per_s(big.len(), || {
        posix.put_stream(&stack.url("/arm/put64"), &big).expect("big PUT");
        stored_is("/arm/put64", &big);
    });
    let opts =
        UploadOptions { streams: Some(2), chunk_size: Some(big.len() / 16), ..Default::default() };
    let multistream = mib_per_s(small.len(), || {
        let source = Arc::new(small.clone());
        multistream_upload(&stack.client, &stack.url("/arm/multi"), source, &opts)
            .expect("multistream upload");
        stored_is("/arm/multi", &small);
    });
    vec![
        ("httpd.put_chunked_mib_per_s", chunked),
        ("httpd.put_size_scaling", put64 / put16),
        ("core.upload.multistream_mib_per_s", multistream),
    ]
}

/// The `analysis_sparse` pass over the paper's comparator: an `XrdServer`
/// and `XrdClient` on loopback, same tree, same job, same cache window.
pub fn xrd_analysis(tree: Bytes, reference: &JobReport, ops: usize) -> Vec<(&'static str, f64)> {
    let store = Arc::new(ObjectStore::new());
    store.put(sparse::PATH, tree);
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    let listener = TcpListenerWrap::bind("127.0.0.1:0").expect("bind a loopback port");
    let port = listener.local_port();
    let server = xrdlite::XrdServer::new(store, xrdlite::server::XrdServerConfig::default());
    server.serve(Box::new(listener), Arc::clone(&rt));
    let client = xrdlite::XrdClient::connect(
        &TcpConnector,
        Arc::clone(&rt),
        "127.0.0.1",
        port,
        xrdlite::XrdClientOptions::default(),
    )
    .expect("xrd connect");
    let file = Arc::new(client.open(sparse::PATH).expect("xrd open"));
    let source: Arc<dyn RandomAccess> = Arc::new(TimedSource(file));
    let reader = Arc::new(TreeReader::open(source).expect("tree over xrd"));

    let before = trace::totals();
    let t0 = Instant::now();
    for _ in 0..ops {
        sparse::pass(&reader, &rt, reference, false).expect("xrd analysis pass");
    }
    let wall = t0.elapsed().as_secs_f64();
    let reads = trace::totals().since(&before).of(Layer::CoreReadVec);
    drop(reader);
    drop(client);
    server.stop();
    vec![
        ("xrdlite.analysis_ops_per_s", ops as f64 / wall),
        ("xrdlite.read_vec_us", reads.total_ns as f64 / 1e3 / reads.count.max(1) as f64),
    ]
}
