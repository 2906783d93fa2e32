//! BAD fixture when linted as server code (a path under `crates/httpd/src/`,
//! `crates/xrdlite/src/server.rs` or `crates/netsim/src/conn.rs`): an
//! accept loop of its own with a thread per connection and per request.
//! Expected findings there: thread-hygiene at lines 8, 15 and 23.

pub fn serve(self: &Arc<Self>, listener: Box<dyn Listener>, rt: Arc<dyn Runtime>) {
    let server = Arc::clone(self);
    let join = rt.spawn_joinable(
        "accept",
        Box::new(move || {
            while let Ok((stream, _)) = listener.accept() {
                let server = Arc::clone(&server);
                let rt2 = Arc::clone(&rt);
                // One thread per connection.
                rt.spawn("conn", Box::new(move || server.handle(stream, &rt2)));
            }
        }),
    );
    self.joins.lock().push(join);
}

fn handle(self: Arc<Self>, frame: Frame, rt: &Arc<dyn Runtime>) {
    rt.spawn("request", Box::new(move || self.dispatch(&frame)));
}

#[cfg(test)]
mod tests {
    fn client(net: &SimNet) {
        // Test clients are the test's business.
        net.spawn("test-client", || {});
    }
}
