//! `small_get`: two client threads sharing one `DavixClient`, each issuing
//! `DavPosix::get` for 1 KiB objects in a seeded order.

use super::{check_window, timed_ops, Counters, Instance, Params, Rep, Stacks};
use crate::gen;
use bytes::Bytes;
use objstore::ObjectStore;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const THREADS: usize = 2;
const OBJECTS: u32 = 1024;
const OBJECT_LEN: usize = 1024;
const OPS_PER_THREAD: usize = 25_000;

pub(crate) struct SmallGet {
    seed: u64,
    stacks: Stacks,
    objects: Vec<Bytes>,
    /// Per thread: the object each op fetches.
    orders: Vec<Vec<u32>>,
}

fn path(object: u32) -> String {
    format!("/small/o{object:04}")
}

impl SmallGet {
    pub(crate) fn setup(p: Params) -> SmallGet {
        let store = Arc::new(ObjectStore::new());
        let objects: Vec<Bytes> = (0..OBJECTS)
            .map(|o| Bytes::from(gen::object_bytes(p.seed, o as u64, OBJECT_LEN)))
            .collect();
        for (o, data) in objects.iter().enumerate() {
            store.put(&path(o as u32), data.clone());
        }
        let orders = (0..THREADS)
            .map(|t| gen::request_order(p.seed, t as u64, p.ops(OPS_PER_THREAD), OBJECTS))
            .collect();
        SmallGet { seed: p.seed, stacks: Stacks::start(store, p), objects, orders }
    }
}

impl Instance for SmallGet {
    fn rep(&mut self, traced: bool) -> Rep {
        let stack = self.stacks.pick(traced);
        let urls: Vec<String> = (0..OBJECTS).map(|o| stack.url(&path(o))).collect();
        let start = Barrier::new(THREADS + 1);
        let (seed, objects, urls) = (self.seed, &self.objects, &urls);
        let mut rep = Rep::default();
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .orders
                .iter()
                .enumerate()
                .map(|(t, order)| {
                    let posix = stack.client.posix();
                    let start = &start;
                    std::thread::Builder::new()
                        .name(format!("pb-client-{t}"))
                        .spawn_scoped(scope, move || {
                            start.wait();
                            timed_ops(order.len(), traced, (t as u64) << 48, |i| {
                                let o = order[i] as usize;
                                let got = posix.get(&urls[o]).map_err(|e| e.to_string())?;
                                check_window(seed, i as u64, &got, &objects[o])?;
                                Ok(got.len() as u64)
                            })
                        })
                        .expect("spawn client thread")
                })
                .collect();
            start.wait();
            let t0 = Instant::now();
            for w in workers {
                rep.absorb(w.join().expect("client thread panicked"));
            }
            rep.wall_ns = t0.elapsed().as_nanos() as u64;
        });
        rep
    }

    fn verify(&mut self) -> (u64, u64) {
        let mut missed = 0;
        let mut checked = 0;
        for (_, stack) in self.stacks.each() {
            let posix = stack.client.posix();
            for (o, want) in self.objects.iter().enumerate() {
                checked += 1;
                if posix.get(&stack.url(&path(o as u32))).ok().as_deref() != Some(&want[..]) {
                    missed += 1;
                }
            }
        }
        (checked, missed)
    }

    fn corrupt(&mut self) {
        let store = &self.stacks.pick(false).store;
        let mut data = self.objects[0].to_vec();
        data[OBJECT_LEN / 2] ^= 0x01;
        store.put(&path(0), Bytes::from(data));
    }

    fn counters(&self, traced: bool) -> Counters {
        Counters::of_loopback(self.stacks.pick(traced))
    }
}
