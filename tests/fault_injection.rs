//! Fault-injection integration tests: transient server errors vs the retry
//! policy, unavailability windows, redirect chains and loops, and slow
//! servers vs the I/O timeout. These are the failure modes §2.4 motivates
//! ("the unavailability of an input data … is often the main cause of
//! [job] failure").

use bytes::Bytes;
use davix::{Config, DavixClient, DavixError, PreparedRequest, RetryPolicy};
use davix_repro::testbed::{Testbed, TestbedConfig};
use davix_sync::{AtomicU32, Ordering};
use httpd::{HttpServer, Response, ServerConfig};
use httpwire::StatusCode;
use netsim::{LinkSpec, SimNet};
use std::sync::Arc;
use std::time::Duration;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 73 + 5) % 251) as u8).collect()
}

fn one_node(data: &[u8]) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
        data: Bytes::from(data.to_vec()),
        ..Default::default()
    })
}

#[test]
fn transient_500s_are_absorbed_by_retries() {
    let data = payload(10_000);
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(2); // exactly as many as the retry budget
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default()); // retries: 2
    let file = client.open(&tb.url(0)).unwrap();
    let mut buf = vec![0u8; 100];
    file.pread(0, &mut buf).unwrap();
    assert_eq!(&buf, &data[..100]);
    let m = client.metrics();
    assert!(m.retries >= 2, "retries must be recorded (got {})", m.retries);
}

#[test]
fn errors_beyond_the_retry_budget_surface() {
    let data = payload(10_000);
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(10);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let err = client.open(&tb.url(0)).unwrap_err();
    assert!(
        matches!(err, DavixError::Http { status, .. } if status.is_server_error()),
        "got {err}"
    );
}

#[test]
fn retry_backoff_spends_virtual_time() {
    let data = payload(1_000);
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(2);
    let _g = tb.net.enter();
    let backoff = Duration::from_millis(100);
    let client =
        tb.davix_client(Config { retry: RetryPolicy { retries: 2, backoff }, ..Config::default() });
    let t0 = tb.net.now();
    client.open(&tb.url(0)).unwrap();
    // Two retries: backoff + 2*backoff doubling.
    assert!(
        tb.net.now() - t0 >= backoff * 3,
        "backoff must be observed in virtual time ({:?})",
        tb.net.now() - t0
    );
}

#[test]
fn unavailability_window_fails_then_recovers() {
    let data = payload(5_000);
    let tb = one_node(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    tb.nodes[0].handler.set_unavailable(true);
    assert!(client.open(&tb.url(0)).is_err());
    tb.nodes[0].handler.set_unavailable(false);
    let f = client.open(&tb.url(0)).unwrap();
    assert_eq!(f.size_hint().unwrap(), data.len() as u64);
}

/// A hand-mounted handler that 302-redirects `/old/*` to `/data/*` on a
/// second host, then serves normally there: the executor must follow.
#[test]
fn redirects_are_followed_across_hosts() {
    let data = payload(20_000);
    let tb = one_node(&data);
    let net = &tb.net;
    net.add_host("redirector.cern.ch");
    net.set_link("worker-node", "redirector.cern.ch", LinkSpec::lan());
    let target = tb.url(0);
    let redirect = HttpServer::new(
        Arc::new(move |req: httpd::Request| {
            let _ = &req;
            Response::empty(StatusCode::FOUND).header("Location", target.clone())
        }),
        ServerConfig::default(),
    );
    redirect.serve(Box::new(net.bind("redirector.cern.ch", 80).unwrap()), net.runtime());

    let _g = net.enter();
    let client = tb.davix_client(Config::default());
    let file = client.open("http://redirector.cern.ch/old/events.root").unwrap();
    let mut buf = vec![0u8; 64];
    file.pread(512, &mut buf).unwrap();
    assert_eq!(&buf, &data[512..576]);
    // The handle adopts the redirect target, so later reads go direct
    // (davix's "avoid useless … redirections" criterion, §2.2).
    assert_eq!(file.uri().host, tb.hosts[0]);
}

#[test]
fn redirect_loops_are_cut_off() {
    let net = SimNet::new();
    net.add_host("client");
    net.add_host("loopy.cern.ch");
    net.set_link("client", "loopy.cern.ch", LinkSpec::lan());
    let hops = Arc::new(AtomicU32::new(0));
    let hops2 = Arc::clone(&hops);
    let server = HttpServer::new(
        Arc::new(move |req: httpd::Request| {
            let n = hops2.fetch_add(1, Ordering::SeqCst);
            let _ = &req;
            Response::empty(StatusCode::FOUND)
                .header("Location", format!("http://loopy.cern.ch/hop{n}"))
        }),
        ServerConfig::default(),
    );
    server.serve(Box::new(net.bind("loopy.cern.ch", 80).unwrap()), net.runtime());

    let _g = net.enter();
    let client = DavixClient::new(
        net.connector("client"),
        net.runtime(),
        Config { max_redirects: 4, ..Config::default() }.no_retry(),
    );
    let err = client.open("http://loopy.cern.ch/start").unwrap_err();
    assert!(matches!(err, DavixError::RedirectLoop(4)), "got {err}");
    assert!(hops.load(Ordering::SeqCst) >= 4);
}

#[test]
fn slow_server_hits_io_timeout() {
    let data = payload(1_000);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
        data: Bytes::from(data),
        server_delay: Duration::from_secs(10),
        ..Default::default()
    });
    let _g = tb.net.enter();
    let client =
        tb.davix_client(Config { io_timeout: Duration::from_secs(2), ..Config::default() });
    let t0 = tb.net.now();
    let err = client.open(&tb.url(0)).unwrap_err();
    assert!(matches!(err, DavixError::Timeout(_)), "got {err}");
    // Default retry policy re-tries timeouts: 3 attempts × 2 s + backoffs.
    let elapsed = tb.net.now() - t0;
    assert!(elapsed >= Duration::from_secs(6), "all attempts must time out ({elapsed:?})");
}

#[test]
fn head_requests_survive_fault_free_path_without_body() {
    let data = payload(4_096);
    let tb = one_node(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let uri = client.parse_url(&tb.url(0)).unwrap();
    let resp = client.executor().execute_expect(&PreparedRequest::head(uri), "head").unwrap();
    assert!(resp.body.is_empty(), "HEAD must not carry a body");
    assert_eq!(resp.head.headers.content_length().unwrap(), Some(4096));
}

#[test]
fn idempotent_put_is_retried_but_post_is_not() {
    use httpwire::Method;
    let data = payload(1_000);

    // PUT is idempotent (RFC 7231 §4.2.2): one injected 500 is absorbed.
    let tb = one_node(&data);
    tb.nodes[0].handler.fail_next(1);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    client
        .posix()
        .put(&format!("http://{}{}", tb.hosts[0], "/new-object"), vec![1u8; 10])
        .expect("idempotent PUT retries through a transient 500");
    assert!(client.metrics().retries >= 1);

    // POST is not: the same injected 500 surfaces immediately.
    tb.nodes[0].handler.fail_next(1);
    let uri = client.parse_url(&format!("http://{}{}", tb.hosts[0], "/post-target")).unwrap();
    let before = client.metrics().retries;
    let resp = client
        .executor()
        .execute(&PreparedRequest::new(Method::Post, uri))
        .expect("transport ok; server answered 500");
    assert!(resp.head.status.is_server_error(), "the 500 must surface for POST");
    assert_eq!(client.metrics().retries, before, "no retry may be recorded for POST");
}

/// A one-connection-at-a-time server on `host` that appends every byte it
/// receives to `log` and answers each request head with `respond(target)`.
fn logging_server(
    net: &SimNet,
    host: &str,
    log: Arc<std::sync::Mutex<Vec<u8>>>,
    respond: impl Fn(&str) -> String + Send + 'static,
) {
    use std::io::{BufRead, Write};
    let listener = net.bind(host, 80).unwrap();
    net.spawn(&format!("logging-server-{}", host.len()), move || loop {
        let Ok((stream, _)) = listener.accept_sim() else { return };
        let mut w = netsim::Stream::try_clone(&stream).unwrap();
        let mut r = std::io::BufReader::new(stream);
        loop {
            let mut head = String::new();
            while !head.ends_with("\r\n\r\n") {
                if r.read_line(&mut head).unwrap_or(0) == 0 {
                    break;
                }
            }
            log.lock().unwrap().extend_from_slice(head.as_bytes());
            let Some(target) = head.split(' ').nth(1) else { break };
            if w.write_all(respond(target).as_bytes()).is_err() {
                break;
            }
        }
    });
}

#[test]
fn a_line_break_in_a_metalink_url_or_a_location_is_a_typed_error_and_never_on_the_wire() {
    // The mirror's name is the injection itself, and it exists: a client
    // that took the Metalink's word for it could connect and say
    // `Host: mirror\r\nX-Evil: 1`.
    const EVIL_HOST: &str = "mirror\r\nX-Evil: 1";
    let net = SimNet::new();
    for host in ["client", "origin", EVIL_HOST] {
        net.add_host(host);
    }
    net.set_link("client", "origin", LinkSpec::lan());
    net.set_link("client", EVIL_HOST, LinkSpec::lan());
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let ok =
        |body: &str| format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    logging_server(&net, "origin", Arc::clone(&log), move |target| {
        if target.ends_with("?metalink") {
            ok(&format!(
                "<?xml version=\"1.0\"?><metalink xmlns=\"urn:ietf:params:xml:ns:metalink\">\
                 <file name=\"f\"><url priority=\"1\">http://{EVIL_HOST}/f</url>\
                 <url priority=\"2\">http://origin/f\r\nX-Evil: 2</url></file></metalink>"
            ))
        } else if target == "/moved" {
            // A bare CR: the head parser strips only a trailing one.
            "HTTP/1.1 302 Found\r\nLocation: /f\rX-Evil: 3\r\nContent-Length: 0\r\n\r\n".to_string()
        } else {
            ok("data")
        }
    });
    logging_server(&net, EVIL_HOST, Arc::clone(&log), move |_| ok("data"));

    let _g = net.enter();
    let client = DavixClient::new(net.connector("client"), net.runtime(), Config::default());
    let err = client.resolve_replicas("http://origin/f").unwrap_err();
    assert!(matches!(err, DavixError::Metalink(_)), "got {err}");
    let err = client.posix().get("http://origin/moved").unwrap_err();
    assert!(matches!(err, DavixError::Protocol(_)), "got {err}");
    // A URL the caller types is held to the same rule.
    let err = client.posix().get("http://origin/f\r\nX-Evil: 4").unwrap_err();
    assert!(matches!(err, DavixError::Protocol(_)), "got {err}");

    let seen = String::from_utf8_lossy(&log.lock().unwrap()).into_owned();
    assert!(seen.contains("GET /f?metalink HTTP/1.1\r\n"), "the fetches themselves: {seen:?}");
    assert!(!seen.contains("Evil"), "a line of the peer's choosing went out: {seen:?}");
}
