//! Property test: for any set of responses and any chunk granularity, the
//! server-side FrameScheduler and the client-side Reassembler are exact
//! inverses — every stream's payload arrives intact, whatever interleaving
//! the round-robin writer produced.

use netsim::{LinkSpec, Runtime, SimNet};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use xrdlite::wire::Frame;
use xrdlite::{FrameScheduler, Reassembler};

/// Stream ID → (status code, reassembled payload).
type Received = HashMap<u16, (u8, Vec<u8>)>;

fn run_roundtrip(payloads: Vec<Vec<u8>>, chunk: usize) -> Received {
    let net = SimNet::new();
    net.add_host("a");
    net.add_host("b");
    net.set_link("a", "b", LinkSpec::lan());
    let listener = net.bind("b", 9).unwrap();
    let n = payloads.len();
    let received: Arc<Mutex<Received>> = Arc::new(Mutex::new(HashMap::new()));
    let received2 = Arc::clone(&received);
    net.spawn("sink", move || {
        let (mut s, _) = listener.accept_sim().unwrap();
        let mut re = Reassembler::new();
        loop {
            let frame = match Frame::read_from(&mut s) {
                Ok(f) => f,
                Err(_) => return,
            };
            let sid = frame.stream_id;
            if let Some((code, payload)) = re.push(frame) {
                received2.lock().insert(sid, (code, payload));
                if received2.lock().len() == n {
                    return;
                }
            }
        }
    });
    let _g = net.enter();
    let stream = net.connect("a", "b", 9).unwrap();
    let rt: Arc<dyn Runtime> = net.runtime();
    let sched = FrameScheduler::spawn(&rt, "sched", Box::new(stream), chunk);
    for (i, p) in payloads.into_iter().enumerate() {
        sched.enqueue(i as u16, (i % 2) as u8, p).unwrap();
    }
    net.sleep(Duration::from_secs(30));
    sched.close();
    let out = received.lock().clone();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scheduler_and_reassembler_are_inverses(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..5_000), 1..8),
        chunk in 1usize..2_048,
    ) {
        let expect: Vec<Vec<u8>> = payloads.clone();
        let got = run_roundtrip(payloads, chunk);
        prop_assert_eq!(got.len(), expect.len());
        for (i, p) in expect.iter().enumerate() {
            let (code, data) = got.get(&(i as u16)).expect("stream delivered");
            prop_assert_eq!(*code, (i % 2) as u8);
            prop_assert_eq!(data, p);
        }
    }
}
