//! BAD fixture: a guard that is merely *used* in a blocking call's
//! arguments is not handed to it. Expected findings: lock-discipline at
//! line 12 (`*pos`: the cursor lock stays held across the network read —
//! the shape of the old `DavFile::read`), line 19 (`st.deadline`) and
//! line 25 (`slots[0]`). Only the guard itself (`guard`, `&guard`,
//! `&mut guard`) passed as a whole argument is the condvar hand-off, which
//! line 31 shows stays clean.

pub fn read(&self, buf: &mut [u8]) -> usize {
    let mut pos = self.pos.lock();
    // Two threads sharing this cursor: the second blocks on a plain mutex.
    let n = self.stream.read(*pos, buf);
    *pos += n as u64;
    n
}

pub fn pause(&self) {
    let st = self.state.lock();
    self.runtime.sleep(st.deadline);
}

pub fn drain(&self) {
    let slots = self.slots.lock();
    // Indexing through the guard is a use, too.
    self.stream.write_all(slots[0]);
}

pub fn block_until_done(&self) {
    let mut st = self.state.lock();
    while !st.done {
        self.cv.wait_for(&mut st, self.tick);
    }
}
