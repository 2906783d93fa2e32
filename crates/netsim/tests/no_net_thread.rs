//! A `SimNet` costs no OS thread: the threads that block on it move its
//! clock. Alone in this test binary, so that no sibling test's threads are
//! in the count.

use netsim::SimNet;
use std::time::Duration;

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn sixty_four_live_nets_add_no_thread() {
    let before = os_threads();
    let nets: Vec<SimNet> = (0..64).map(|_| SimNet::new()).collect();
    for net in &nets {
        let _g = net.enter();
        net.sleep(Duration::from_secs(1));
        assert_eq!(net.now(), Duration::from_secs(1));
    }
    assert_eq!(os_threads(), before, "a live SimNet must not own a thread");
}
