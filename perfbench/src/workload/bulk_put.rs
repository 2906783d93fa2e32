//! `bulk_put`: one thread streaming 16 MiB bodies with
//! `DavPosix::put_stream` (`Content-Length` framing, `Expect:
//! 100-continue`) to four rotating names.

use super::{check_window, single_thread_rep, Counters, Instance, Params, Rep, Stacks};
use crate::gen;
use bytes::Bytes;
use objstore::ObjectStore;
use std::sync::Arc;

const NAMES: usize = 4;
const OBJECT_LEN: usize = 16 << 20;
const OPS: usize = 12;

pub(crate) struct BulkPut {
    seed: u64,
    ops: usize,
    stacks: Stacks,
    payload: Bytes,
    crc32: u32,
}

fn path(op: usize) -> String {
    format!("/put/o{}", op % NAMES)
}

impl BulkPut {
    pub(crate) fn setup(p: Params) -> BulkPut {
        let payload = Bytes::from(gen::object_bytes(p.seed, 0, p.size(OBJECT_LEN)));
        let crc32 = ioapi::checksum::crc32(&payload);
        let stacks = Stacks::start(Arc::new(ObjectStore::new()), p);
        BulkPut { seed: p.seed, ops: p.ops(OPS), stacks, payload, crc32 }
    }
}

impl Instance for BulkPut {
    fn rep(&mut self, traced: bool) -> Rep {
        let stack = self.stacks.pick(traced);
        let posix = stack.client.posix();
        let (seed, payload) = (self.seed, &self.payload);
        single_thread_rep(self.ops, traced, |i| {
            posix.put_stream(&stack.url(&path(i)), payload).map_err(|e| e.to_string())?;
            let stored = stack.store.get(&path(i)).ok_or("object missing after PUT")?;
            check_window(seed, i as u64, &stored.data, payload)?;
            Ok(payload.len() as u64)
        })
    }

    /// Every name written so far must hold exactly the payload, by bytes and
    /// by the store's own CRC-32.
    fn verify(&mut self) -> (u64, u64) {
        let store = &self.stacks.pick(false).store;
        let mut missed = 0;
        let mut checked = 0;
        for name in 0..NAMES {
            if let Some(stored) = store.get(&path(name)) {
                checked += 1;
                if stored.crc32 != self.crc32 || stored.data != self.payload {
                    missed += 1;
                }
            }
        }
        (checked, missed)
    }

    fn corrupt(&mut self) {
        let store = &self.stacks.pick(false).store;
        let mut data = self.payload.to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        store.put(&path(0), Bytes::from(data));
    }

    fn counters(&self, traced: bool) -> Counters {
        Counters::of_loopback(self.stacks.pick(traced))
    }

    fn extra_arms(&mut self) -> Vec<(&'static str, f64)> {
        crate::arms::put_arms(self.stacks.pick(false), self.seed, 4 * self.payload.len())
    }
}
