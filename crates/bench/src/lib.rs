//! # davix-bench — the harness that regenerates every figure and table
//!
//! One binary per paper artefact:
//!
//! | binary              | artefact | claim |
//! |---------------------|----------|-------|
//! | `fig1_pipelining`   | Fig. 1 + §2.2 | pipelining head-of-line blocking vs pool dispatch |
//! | `fig2_pool`         | Fig. 2 + §2.2 | session recycling amortizes handshake + slow start |
//! | `fig3_vectored`     | Fig. 3 + §2.3 | multi-range GET collapses N reads into 1 round trip |
//! | `fig4_analysis`     | Fig. 4 (headline) | davix ≈ XRootD on LAN, XRootD ahead on WAN |
//! | `fig5_cache`        | client cache | block cache + read-ahead eliminate repeat requests |
//! | `fig6_upload`       | write path | parallel chunked upload ≥2× a serial buffered PUT |
//! | `tab5_failover`     | §2.4     | Metalink fail-over cost and guarantee |
//! | `tab6_multistream`  | §2.4     | multi-stream bandwidth vs server load |
//! | `tab7_tls`          | §2.2     | TLS handshake cost vs session recycling |
//! | `tab8_degradation`  | §2.4     | scheduler health scoring under replica decay |
//!
//! All experiments run on virtual time: results are deterministic and a
//! "300 ms" link costs nothing to simulate. Numbers are printed next to the
//! paper's where the paper gives any.
//!
//! The harness has no HTTP client of its own: every request a bench makes
//! is the shipped client's, through the executor or, where a bench picks
//! the connection strategy itself (fig1's serial and pipelined arms,
//! fig7's non-blocking load generator), through `davix::Exchange`.

#![forbid(unsafe_code)]

use bytes::Bytes;
use davix::{Config, DavixClient, PreparedRequest};
use httpd::ServerConfig;
use netsim::{LinkSpec, SimNet};
use objstore::{ObjectStore, StorageNode, StorageOptions};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// A simple aligned text table for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Render with per-column alignment.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}", c, w = widths[i]));
                } else {
                    s.push_str(&format!("  {:>w$}", c, w = widths[i]));
                }
            }
            println!("{s}");
        };
        line(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            line(row);
        }
    }
}

/// Machine-readable result sink for one bench binary, so CI can persist a
/// trajectory of every figure/table across commits.
///
/// Each binary builds one report (headline numbers via [`metric`], whole
/// [`Table`]s via [`table`], free-form context via [`label`]) and calls
/// [`write`] at the end of `main`. `write` is a no-op unless the
/// `DAVIX_BENCH_JSON_DIR` environment variable names a directory, in which
/// case `BENCH_<name>.json` is (over)written there — the CI bench-smoke job
/// sets it and uploads the directory as the `bench-trajectory` artifact.
/// The JSON is hand-rolled (no serde in the tree): a flat
/// `{schema, bench, labels, metrics, tables}` object with insertion order
/// preserved, so trajectory diffs stay line-stable.
///
/// [`metric`]: BenchReport::metric
/// [`table`]: BenchReport::table
/// [`label`]: BenchReport::label
/// [`write`]: BenchReport::write
pub struct BenchReport {
    bench: String,
    labels: Vec<(String, String)>,
    metrics: Vec<(String, f64)>,
    tables: Vec<(String, Vec<String>, Vec<Vec<String>>)>,
}

impl BenchReport {
    /// Start a report for the binary `bench` (use the binary's own name,
    /// e.g. `"fig1_pipelining"` — it becomes the output file name).
    pub fn new(bench: &str) -> BenchReport {
        BenchReport {
            bench: bench.to_string(),
            labels: Vec::new(),
            metrics: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Attach a free-form string label (workload description, link name…).
    pub fn label(&mut self, key: &str, value: impl Into<String>) {
        self.labels.push((key.to_string(), value.into()));
    }

    /// Record one headline number. Keys are dotted paths by convention
    /// (`"lan.pool.total_s"`), so downstream tooling can group them.
    pub fn metric(&mut self, key: &str, value: f64) {
        self.metrics.push((key.to_string(), value));
    }

    /// Record a duration metric in milliseconds.
    pub fn metric_ms(&mut self, key: &str, d: Duration) {
        self.metric(key, d.as_secs_f64() * 1e3);
    }

    /// Snapshot a whole [`Table`] (headers + rows, all cells as strings).
    pub fn table(&mut self, key: &str, table: &Table) {
        self.tables.push((key.to_string(), table.headers.clone(), table.rows.clone()));
    }

    /// Render the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": 1,\n");
        out.push_str(&format!("  \"bench\": {},\n", json_str(&self.bench)));
        out.push_str("  \"labels\": {");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    {}: {}", json_str(k), json_str(v)));
        }
        out.push_str(if self.labels.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    {}: {}", json_str(k), json_num(*v)));
        }
        out.push_str(if self.metrics.is_empty() { "},\n" } else { "\n  },\n" });
        out.push_str("  \"tables\": {");
        for (i, (k, headers, rows)) in self.tables.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            out.push_str(&format!("{sep}    {}: {{\n", json_str(k)));
            out.push_str(&format!("      \"headers\": {},\n", json_str_array(headers)));
            out.push_str("      \"rows\": [");
            for (j, row) in rows.iter().enumerate() {
                let rsep = if j == 0 { "\n" } else { ",\n" };
                out.push_str(&format!("{rsep}        {}", json_str_array(row)));
            }
            out.push_str(if rows.is_empty() { "]\n    }" } else { "\n      ]\n    }" });
        }
        out.push_str(if self.tables.is_empty() { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Write `BENCH_<name>.json` into `$DAVIX_BENCH_JSON_DIR` (creating the
    /// directory), or do nothing when the variable is unset. Panics on I/O
    /// errors: a CI job that asked for the artifact must not silently lose
    /// it.
    pub fn write(&self) {
        let Some(dir) = std::env::var_os("DAVIX_BENCH_JSON_DIR") else { return };
        let dir = PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("DAVIX_BENCH_JSON_DIR {}: {e}", dir.display()));
        let path = dir.join(format!("BENCH_{}.json", self.bench));
        std::fs::write(&path, self.to_json())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("bench-json: wrote {}", path.display());
    }
}

/// JSON string literal (quotes + escapes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values have no JSON spelling and become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str_array(xs: &[String]) -> String {
    let cells: Vec<String> = xs.iter().map(|x| json_str(x)).collect();
    format!("[{}]", cells.join(", "))
}

/// A `usize` knob from the environment, for CI smoke runs that want the
/// harness exercised end-to-end with a tiny workload (`DAVIX_BENCH_*`
/// variables; see each binary's header). Unset → `default`; set but
/// unparsable → panic, so a typo in a CI smoke step cannot silently run
/// the full paper-scale workload instead.
pub fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var_os(name) {
        None => default,
        Some(v) => v
            .to_str()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name}={v:?} is not a valid unsigned integer")),
    }
}

/// The one-server testbed: hosts `client` and `server` joined by `link`,
/// and a storage node with default options on `server:80` holding
/// `objects` (path, bytes). Returns the net and the node's store.
pub fn single_server(
    link: LinkSpec,
    server: &str,
    objects: impl IntoIterator<Item = (String, Bytes)>,
) -> (SimNet, Arc<ObjectStore>) {
    let net = SimNet::new();
    net.add_host("client");
    net.add_host(server);
    net.set_link("client", server, link);
    let store = Arc::new(ObjectStore::new());
    for (path, data) in objects {
        store.put(&path, data);
    }
    StorageNode::start(
        Arc::clone(&store),
        Box::new(net.bind(server, 80).unwrap()),
        net.runtime(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
    (net, store)
}

/// `n` sequential GETs of `url` from `client` with a default davix client:
/// all on one recycled keep-alive session, or, with `fresh_conns`, each
/// asking the server to close (a connection per request, HTTP/1.0 style).
/// Returns the virtual time they took and the sessions the client opened.
pub fn sequential_gets(net: &SimNet, url: &str, n: usize, fresh_conns: bool) -> (Duration, u64) {
    let _g = net.enter();
    let client = DavixClient::new(net.connector("client"), net.runtime(), Config::default());
    let uri: httpwire::Uri = url.parse().unwrap();
    let t0 = net.now();
    for _ in 0..n {
        let mut req = PreparedRequest::get(uri.clone());
        if fresh_conns {
            req = req.header("Connection", "close");
        }
        client.executor().execute_expect(&req, "get").unwrap();
    }
    (net.now() - t0, client.metrics().sessions_created)
}

/// Mean and (population) standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

/// Format a virtual duration in seconds with 2 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Format a virtual duration in milliseconds with 1 decimal.
pub fn millis(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_without_panicking() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["x".into(), "123".into()]);
        t.print();
    }

    #[test]
    fn mean_std_math() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50");
        assert_eq!(millis(Duration::from_micros(2500)), "2.5");
    }

    #[test]
    fn report_json_shape_and_escaping() {
        let mut t = Table::new(&["k", "v"]);
        t.row(vec!["a \"quoted\"".into(), "1".into()]);
        let mut r = BenchReport::new("unit_test");
        r.label("workload", "line1\nline2");
        r.metric("total_s", 1.5);
        r.metric("bad", f64::NAN);
        r.table("main", &t);
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"unit_test\""));
        assert!(json.contains("\"workload\": \"line1\\nline2\""));
        assert!(json.contains("\"total_s\": 1.5"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("\"headers\": [\"k\", \"v\"]"));
        assert!(json.contains("[\"a \\\"quoted\\\"\", \"1\"]"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the tree).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON:\n{json}");
    }

    #[test]
    fn empty_report_is_still_valid() {
        let json = BenchReport::new("empty").to_json();
        assert!(json.contains("\"labels\": {}"));
        assert!(json.contains("\"metrics\": {}"));
        assert!(json.contains("\"tables\": {}"));
    }
}
