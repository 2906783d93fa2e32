//! BAD fixture when linted as client code (a path under `crates/core/src/`):
//! runtime threads started beside the I/O pool, which `Config::io_threads`
//! never counts. Expected findings there: thread-hygiene at lines 8 and 13.

pub fn fan_out(&self, rt: &Arc<dyn Runtime>) {
    // One thread per batch, whatever the pool's cap says.
    for (n, batch) in self.batches().enumerate() {
        rt.spawn(&format!("davix-par-{n}"), Box::new(move || batch.fetch()));
    }
}

pub fn start_prober(self: &Arc<Self>) {
    self.rt.spawn("davix-replica-prober", Box::new(move || self.probe_forever()));
}

#[cfg(test)]
mod tests {
    fn server(net: &SimNet) {
        // Test servers are the test's business.
        net.spawn("test-server", || {});
    }
}
