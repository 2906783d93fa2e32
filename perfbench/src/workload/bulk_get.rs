//! `bulk_get`: one thread reading 16 MiB objects front to back with
//! `DavFile::pread` into a reused 1 MiB buffer.

use super::{check_window, single_thread_rep, Counters, Instance, Params, Rep, Stacks};
use crate::gen;
use bytes::Bytes;
use davix::DavFile;
use objstore::ObjectStore;
use std::sync::Arc;

/// Four objects in rotation: a 64 MiB working set, well past the last-level
/// cache, so the store's bytes come from memory as they would in service.
const OBJECTS: u32 = 4;
const OBJECT_LEN: usize = 16 << 20;
const READ_LEN: usize = 1 << 20;
const OPS: usize = 100;

pub(crate) struct BulkGet {
    seed: u64,
    stacks: Stacks,
    objects: Vec<Bytes>,
    order: Vec<u32>,
    /// Open handles per stack (`[bare, traced]`), one per object: the open
    /// (a HEAD) is set-up, the timed op is the read.
    files: [Vec<DavFile>; 2],
    buf: Vec<u8>,
}

fn path(object: u32) -> String {
    format!("/bulk/o{object}")
}

impl BulkGet {
    pub(crate) fn setup(p: Params) -> BulkGet {
        let store = Arc::new(ObjectStore::new());
        let len = p.size(OBJECT_LEN);
        let objects: Vec<Bytes> =
            (0..OBJECTS).map(|o| Bytes::from(gen::object_bytes(p.seed, o as u64, len))).collect();
        for (o, data) in objects.iter().enumerate() {
            store.put(&path(o as u32), data.clone());
        }
        let stacks = Stacks::start(store, p);
        let mut files = [Vec::new(), Vec::new()];
        for (traced, stack) in stacks.each() {
            files[traced as usize] = (0..OBJECTS)
                .map(|o| stack.client.open(&stack.url(&path(o))).expect("open bulk object"))
                .collect();
        }
        BulkGet {
            seed: p.seed,
            stacks,
            objects,
            order: gen::request_order(p.seed, 0, p.ops(OPS), OBJECTS),
            files,
            buf: vec![0u8; READ_LEN],
        }
    }

    /// Read `file` front to back through `buf`, handing each chunk to
    /// `sink(offset, bytes)`.
    fn read_through(
        file: &DavFile,
        buf: &mut [u8],
        len: usize,
        mut sink: impl FnMut(usize, &[u8]) -> Result<(), String>,
    ) -> Result<u64, String> {
        let mut off = 0usize;
        while off < len {
            let n = file.pread(off as u64, buf).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err(format!("eof at {off} of {len}"));
            }
            sink(off, &buf[..n])?;
            off += n;
        }
        Ok(off as u64)
    }
}

impl Instance for BulkGet {
    fn rep(&mut self, traced: bool) -> Rep {
        let (seed, objects, order, buf) = (self.seed, &self.objects, &self.order, &mut self.buf);
        let files = &self.files[traced as usize];
        single_thread_rep(order.len(), traced, |i| {
            let o = order[i] as usize;
            let want = &objects[o];
            Self::read_through(&files[o], buf, want.len(), |off, got| {
                check_window(seed, i as u64, got, &want[off..off + got.len()])
            })
        })
    }

    fn verify(&mut self) -> (u64, u64) {
        let mut missed = 0;
        let mut checked = 0;
        for (traced, _) in self.stacks.each() {
            for (o, want) in self.objects.iter().enumerate() {
                checked += 1;
                let same = Self::read_through(
                    &self.files[traced as usize][o],
                    &mut self.buf,
                    want.len(),
                    |off, got| {
                        (got == &want[off..off + got.len()])
                            .then_some(())
                            .ok_or_else(|| "wrong bytes".to_string())
                    },
                );
                if same.is_err() {
                    missed += 1;
                }
            }
        }
        (checked, missed)
    }

    fn corrupt(&mut self) {
        let mut data = self.objects[0].to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        self.stacks.pick(false).store.put(&path(0), Bytes::from(data));
    }

    fn counters(&self, traced: bool) -> Counters {
        Counters::of_loopback(self.stacks.pick(traced))
    }

    fn extra_arms(&mut self) -> Vec<(&'static str, f64)> {
        vec![(
            "core.executor.collect_get_mib_per_s",
            crate::arms::collect_get_mib_per_s(
                self.stacks.pick(false),
                self.seed,
                4 * self.objects[0].len(),
            ),
        )]
    }
}
