//! # davix-cli — command-line tools over the davix library
//!
//! The real libdavix ships a set of small utilities (`davix-get`,
//! `davix-put`, `davix-ls`, `davix-rm`, `davix-mkdir`); this crate
//! reproduces them as one multi-command binary, **running over real TCP**
//! (the same [`davix`] client the simulator benchmarks exercise, bound to
//! [`netsim::TcpConnector`] instead of a virtual network):
//!
//! ```text
//! davix serve --root ./data --addr 127.0.0.1:8080      # a DPM-like node
//! davix get http://127.0.0.1:8080/data/events.root -o events.root
//! davix get http://127.0.0.1:8080/big --ranges 0-1023,1048576-1049599
//! davix put local.bin http://127.0.0.1:8080/remote.bin
//! davix ls -l http://127.0.0.1:8080/data/
//! davix stat / rm / mkdir / replicas …
//! ```
//!
//! Every command is a thin, testable function; `main` only parses arguments
//! and maps errors to exit codes.

use bytes::Bytes;
use davix::{multistream_download_verified, Config, DavixClient, MultistreamOptions};
use netsim::{RealRuntime, TcpConnector, TcpListenerWrap};
use objstore::{ObjectStore, StorageNode, StorageOptions};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Everything that can go wrong in a command.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line; print usage and exit 2.
    Usage(String),
    /// A davix-level failure (connection, HTTP status, metalink …).
    Davix(davix::DavixError),
    /// Local filesystem / socket trouble.
    Io(io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Davix(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<davix::DavixError> for CliError {
    fn from(e: davix::DavixError) -> Self {
        CliError::Davix(e)
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

/// Exit code for an error (sysexits-flavoured).
pub fn exit_code(e: &CliError) -> i32 {
    match e {
        CliError::Usage(_) => 2,
        CliError::Davix(_) => 1,
        CliError::Io(_) => 1,
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Download an object (whole, ranged, fail-over or multi-stream).
    Get {
        url: String,
        output: Option<PathBuf>,
        ranges: Vec<(u64, usize)>,
        failover: bool,
        streams: Option<usize>,
        /// Block-cache capacity in MiB (`--cache-mb`); `None` = cache off.
        cache_mb: Option<usize>,
        /// Enable adaptive read-ahead (`--readahead`; implies a default
        /// cache when `--cache-mb` is not given).
        readahead: bool,
    },
    /// Upload a local file (`-` = stdin).
    Put {
        file: PathBuf,
        url: String,
        /// Parallel upload streams (`--streams`); `Some` switches to the
        /// chunked multistream upload path (files only).
        streams: Option<usize>,
        /// Chunk size in MiB for the multistream upload (`--chunk-mb`).
        chunk_mb: Option<usize>,
    },
    /// List a collection.
    Ls { url: String, long: bool },
    /// Stat a path.
    Stat { url: String },
    /// Delete an object.
    Rm { url: String },
    /// Rename an object on one server (WebDAV MOVE).
    Mv { from: String, to: String },
    /// Create a collection.
    Mkdir { url: String },
    /// Print the Metalink replica list of a resource.
    Replicas { url: String },
    /// Run a DPM-like storage node over real TCP.
    Serve { addr: String, root: Option<PathBuf> },
}

/// The usage text (`davix help`).
pub const USAGE: &str = "\
davix — HTTP I/O tools (libdavix reproduction)

USAGE:
  davix get <url> [-o FILE] [--ranges A-B[,C-D…]] [--strategy S]
            [--failover] [--streams N] [--cache-mb N] [--readahead]
  davix put <file|-> <url> [--streams N] [--chunk-mb N]
  davix ls [-l] <url>
  davix stat <url>
  davix rm <url>
  davix mv <from-url> <to-url>
  davix mkdir <url>
  davix replicas <url>
  davix serve [--addr HOST:PORT] [--root DIR]
  davix help

OPTIONS:
  -o FILE        write the download to FILE instead of stdout
  --ranges R     fetch only the given inclusive byte ranges, as one
                 vectored multi-range request (e.g. 0-1023,4096-8191)
  --strategy S   replica strategy: `direct` (no Metalink, the default),
                 `failover` (one replica at a time, health-ranked
                 fail-over) or `multistream` (parallel chunks from the
                 healthiest replicas)
  --failover     shorthand for --strategy failover
  --streams N    get: multi-stream download, N parallel streams across the
                 Metalink replicas (implies --strategy multistream)
                 put: chunked parallel upload over N streams (S3-style
                 multipart or segmented PUT + MOVE, auto-detected), with
                 end-to-end checksum verification before commit
  --chunk-mb N   put: chunk size in MiB for the parallel upload (default 4;
                 implies --streams with the default stream count)
  --cache-mb N   enable the client-side block cache with N MiB capacity:
                 block-aligned fetches, de-duplicated across concurrent
                 readers, repeats served from memory
  --readahead    adaptive read-ahead: sequential reads prefetch a growing
                 window (256 KiB up to 4 MiB) in the background; enables
                 a 64 MiB cache unless --cache-mb is given
  -l             long listing (type, size, name)
  --addr A       listen address for `serve` (default 127.0.0.1:8080)
  --root DIR     preload every file under DIR into the served namespace
";

/// Parse `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Command, CliError> {
    let usage = |m: &str| Err(CliError::Usage(m.to_string()));
    let Some(cmd) = argv.first() else {
        return usage("missing command (try `davix help`)");
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "get" => {
            let mut url = None;
            let mut output = None;
            let mut ranges = Vec::new();
            let mut failover = false;
            let mut streams = None;
            let mut strategy: Option<String> = None;
            let mut cache_mb = None;
            let mut readahead = false;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--strategy" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("--strategy needs a name".to_string())
                        })?;
                        match v.as_str() {
                            "direct" | "failover" | "multistream" => {
                                strategy = Some(v.clone());
                            }
                            other => {
                                return usage(&format!(
                                    "unknown strategy {other:?} (want direct, failover or \
                                     multistream)"
                                ));
                            }
                        }
                        i += 2;
                    }
                    "-o" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("-o needs a file argument".to_string())
                        })?;
                        output = Some(PathBuf::from(v));
                        i += 2;
                    }
                    "--ranges" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("--ranges needs an argument".to_string())
                        })?;
                        ranges = parse_ranges(v)?;
                        i += 2;
                    }
                    "--failover" => {
                        failover = true;
                        i += 1;
                    }
                    "--cache-mb" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("--cache-mb needs a size in MiB".to_string())
                        })?;
                        let n: usize = v
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| CliError::Usage(format!("bad cache size {v:?}")))?;
                        cache_mb = Some(n);
                        i += 2;
                    }
                    "--readahead" => {
                        readahead = true;
                        i += 1;
                    }
                    "--streams" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("--streams needs a count".to_string())
                        })?;
                        let n: usize = v
                            .parse()
                            .map_err(|_| CliError::Usage(format!("bad stream count {v:?}")))?;
                        streams = Some(n);
                        i += 2;
                    }
                    a if a.starts_with('-') => {
                        return usage(&format!("unknown get option {a:?}"));
                    }
                    a => {
                        if url.replace(a.to_string()).is_some() {
                            return usage("get takes exactly one url");
                        }
                        i += 1;
                    }
                }
            }
            let Some(url) = url else { return usage("get needs a url") };
            // `--strategy` is the declarative surface over the older flags.
            match strategy.as_deref() {
                Some("failover") => {
                    if streams.is_some() {
                        return usage("--strategy failover conflicts with --streams");
                    }
                    failover = true;
                }
                Some("multistream") => {
                    if failover {
                        return usage("--strategy multistream conflicts with --failover");
                    }
                    streams = Some(streams.unwrap_or(MultistreamOptions::default().streams));
                }
                Some("direct") => {
                    if failover || streams.is_some() {
                        return usage("--strategy direct conflicts with --failover/--streams");
                    }
                }
                Some(_) | None => {}
            }
            if streams.is_some() && (!ranges.is_empty() || failover) {
                return usage("--streams cannot be combined with --ranges/--failover");
            }
            if streams.is_some() && (cache_mb.is_some() || readahead) {
                // Multi-stream pulls each chunk exactly once; caching the
                // bytes would only double the memory footprint.
                return usage("--cache-mb/--readahead cannot be combined with --streams");
            }
            Ok(Command::Get { url, output, ranges, failover, streams, cache_mb, readahead })
        }
        "put" => {
            let mut positional: Vec<String> = Vec::new();
            let mut streams = None;
            let mut chunk_mb = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--streams" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("--streams needs a count".to_string())
                        })?;
                        let n: usize =
                            v.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                                CliError::Usage(format!("bad stream count {v:?}"))
                            })?;
                        streams = Some(n);
                        i += 2;
                    }
                    "--chunk-mb" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("--chunk-mb needs a size in MiB".to_string())
                        })?;
                        let n: usize = v
                            .parse()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| CliError::Usage(format!("bad chunk size {v:?}")))?;
                        chunk_mb = Some(n);
                        i += 2;
                    }
                    a if a.starts_with("--") => return usage(&format!("unknown put option {a:?}")),
                    a => {
                        positional.push(a.to_string());
                        i += 1;
                    }
                }
            }
            let [file, url] = positional.as_slice() else {
                return usage("put needs <file> <url>");
            };
            if (streams.is_some() || chunk_mb.is_some()) && file == "-" {
                return usage("--streams/--chunk-mb need random access; cannot chunk stdin");
            }
            Ok(Command::Put { file: PathBuf::from(file), url: url.clone(), streams, chunk_mb })
        }
        "ls" => match rest {
            [url] => Ok(Command::Ls { url: url.clone(), long: false }),
            [flag, url] if flag == "-l" => Ok(Command::Ls { url: url.clone(), long: true }),
            _ => usage("ls needs [-l] <url>"),
        },
        "stat" => match rest {
            [url] => Ok(Command::Stat { url: url.clone() }),
            _ => usage("stat needs <url>"),
        },
        "rm" => match rest {
            [url] => Ok(Command::Rm { url: url.clone() }),
            _ => usage("rm needs <url>"),
        },
        "mv" => match rest {
            [from, to] => Ok(Command::Mv { from: from.clone(), to: to.clone() }),
            _ => usage("mv needs <from-url> <to-url>"),
        },
        "mkdir" => match rest {
            [url] => Ok(Command::Mkdir { url: url.clone() }),
            _ => usage("mkdir needs <url>"),
        },
        "replicas" => match rest {
            [url] => Ok(Command::Replicas { url: url.clone() }),
            _ => usage("replicas needs <url>"),
        },
        "serve" => {
            let mut addr = "127.0.0.1:8080".to_string();
            let mut root = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--addr" => {
                        addr = rest
                            .get(i + 1)
                            .ok_or_else(|| CliError::Usage("--addr needs host:port".to_string()))?
                            .clone();
                        i += 2;
                    }
                    "--root" => {
                        let v = rest.get(i + 1).ok_or_else(|| {
                            CliError::Usage("--root needs a directory".to_string())
                        })?;
                        root = Some(PathBuf::from(v));
                        i += 2;
                    }
                    a => return usage(&format!("unknown serve option {a:?}")),
                }
            }
            Ok(Command::Serve { addr, root })
        }
        "help" | "--help" | "-h" => usage("help requested"),
        other => usage(&format!("unknown command {other:?}")),
    }
}

/// Parse `"0-1023,4096-8191"` (inclusive byte ranges) into
/// `(offset, length)` fragments.
pub fn parse_ranges(spec: &str) -> Result<Vec<(u64, usize)>, CliError> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let Some((a, b)) = part.split_once('-') else {
            return Err(CliError::Usage(format!("bad range {part:?} (want A-B)")));
        };
        let first: u64 =
            a.trim().parse().map_err(|_| CliError::Usage(format!("bad range start {a:?}")))?;
        let last: u64 =
            b.trim().parse().map_err(|_| CliError::Usage(format!("bad range end {b:?}")))?;
        if last < first {
            return Err(CliError::Usage(format!("range {part:?} ends before it starts")));
        }
        let Some(len) = (last - first).checked_add(1).and_then(|n| usize::try_from(n).ok()) else {
            return Err(CliError::Usage(format!("range {part:?} is too long")));
        };
        out.push((first, len));
    }
    if out.is_empty() {
        return Err(CliError::Usage("empty range list".to_string()));
    }
    Ok(out)
}

/// A davix client over real TCP sockets.
pub fn real_client(cfg: Config) -> DavixClient {
    DavixClient::new(Arc::new(TcpConnector), Arc::new(RealRuntime::new()), cfg)
}

/// The client configuration a command asks for: `get --cache-mb N` enables
/// the block cache, `--readahead` the adaptive prefetch window (with a
/// 64 MiB default cache when `--cache-mb` is absent). Every other command
/// runs on the defaults.
pub fn config_for(cmd: &Command) -> Config {
    let Command::Get { cache_mb, readahead, .. } = cmd else {
        return Config::default();
    };
    let mut cfg = Config::default();
    if let Some(mb) = cache_mb {
        cfg = cfg.with_cache(*mb as u64 * 1024 * 1024);
    }
    if *readahead {
        if cache_mb.is_none() {
            cfg = cfg.with_cache(64 * 1024 * 1024);
        }
        cfg = cfg.with_readahead();
    }
    cfg
}

/// Execute `cmd`, writing human output to `out`. Returns the number of
/// payload bytes written (0 for namespace commands).
pub fn run_command(
    client: &DavixClient,
    cmd: &Command,
    out: &mut dyn Write,
) -> Result<u64, CliError> {
    match cmd {
        Command::Get { url, output, ranges, failover, streams, cache_mb, readahead } => {
            let cached = cache_mb.is_some() || *readahead;
            let data = fetch(client, url, ranges, *failover, *streams, cached)?;
            match output {
                Some(path) => std::fs::write(path, &data)?,
                None => out.write_all(&data)?,
            }
            Ok(data.len() as u64)
        }
        Command::Put { file, url, streams, chunk_mb } => {
            if streams.is_some() || chunk_mb.is_some() {
                // Parallel chunked upload with checksum-verified commit.
                let source = Arc::new(davix::FileSource::open(file)?);
                let opts = davix::UploadOptions {
                    streams: *streams,
                    chunk_size: chunk_mb.map(|mb| mb * 1024 * 1024),
                    ..Default::default()
                };
                let report = davix::multistream_upload(client, url, source, &opts)?;
                writeln!(
                    out,
                    "uploaded {} bytes to {url} in {} chunk(s){}",
                    report.bytes,
                    report.chunks,
                    if report.verified { ", checksum verified" } else { "" },
                )?;
                return Ok(0);
            }
            if file.as_os_str() == "-" {
                // stdin has no length: buffer it (chunked framing would
                // also work, but a byte count in the report is worth more).
                let mut buf = Vec::new();
                io::stdin().read_to_end(&mut buf)?;
                let n = buf.len() as u64;
                client.posix().put(url, buf)?;
                writeln!(out, "uploaded {n} bytes to {url}")?;
            } else {
                // Stream the file from disk: bounded memory however big it is.
                let source = davix::FileSource::open(file)?;
                let n = source.size();
                client.posix().put_stream(url, &source)?;
                writeln!(out, "uploaded {n} bytes to {url}")?;
            }
            Ok(0)
        }
        Command::Ls { url, long } => {
            let entries = client.posix().opendir(url)?;
            for e in entries {
                if *long {
                    let kind = if e.is_dir { 'd' } else { '-' };
                    writeln!(out, "{kind} {:>12} {}", e.size, e.name)?;
                } else {
                    writeln!(out, "{}", e.name)?;
                }
            }
            Ok(0)
        }
        Command::Stat { url } => {
            let st = client.posix().stat(url)?;
            writeln!(
                out,
                "{} type={} size={}{}",
                url,
                if st.is_dir { "dir" } else { "file" },
                st.size,
                st.etag.as_deref().map(|e| format!(" etag={e}")).unwrap_or_default()
            )?;
            Ok(0)
        }
        Command::Rm { url } => {
            client.posix().unlink(url)?;
            writeln!(out, "deleted {url}")?;
            Ok(0)
        }
        Command::Mv { from, to } => {
            client.posix().rename(from, to)?;
            writeln!(out, "moved {from} -> {to}")?;
            Ok(0)
        }
        Command::Mkdir { url } => {
            client.posix().mkdir(url)?;
            writeln!(out, "created {url}")?;
            Ok(0)
        }
        Command::Replicas { url } => {
            let reps = client.resolve_replicas(url)?;
            for (i, uri) in reps.iter().enumerate() {
                writeln!(out, "{} {}", i + 1, uri)?;
            }
            Ok(0)
        }
        Command::Serve { .. } => unreachable!("serve is handled by main (blocks forever)"),
    }
}

/// The download paths of `davix get`. `cached` routes the plain whole-file
/// download through `DavFile::pread` (sequential reads the block cache and
/// read-ahead can serve) instead of one collect-to-memory GET — the cache
/// flags would otherwise be dead weight on the simplest path.
fn fetch(
    client: &DavixClient,
    url: &str,
    ranges: &[(u64, usize)],
    failover: bool,
    streams: Option<usize>,
    cached: bool,
) -> Result<Vec<u8>, CliError> {
    if let Some(streams) = streams {
        // Metalink-driven: resolve replicas, download in parallel, verify
        // the declared checksum.
        let opts = MultistreamOptions { streams, ..MultistreamOptions::default() };
        return Ok(multistream_download_verified(client, url, &opts)?);
    }
    if !ranges.is_empty() {
        // One vectored multi-range request; fragments are concatenated in
        // request order (like `davix-get --ranges`).
        let file = client.open(url)?;
        let parts = file.pread_vec(ranges)?;
        return Ok(parts.concat());
    }
    if failover {
        return read_fully(&client.open_failover(url)?, "failover");
    }
    if cached {
        return read_fully(&client.open(url)?, "cached");
    }
    Ok(client.posix().get(url)?)
}

/// Pull a whole remote file through positional reads (the path the block
/// cache, read-ahead and fail-over all hook into).
fn read_fully(file: &dyn ioapi::RandomAccess, what: &str) -> Result<Vec<u8>, CliError> {
    let size = file.size()?;
    let mut data = vec![0u8; size as usize];
    let mut off = 0u64;
    while off < size {
        let n = file.read_at(off, &mut data[off as usize..])?;
        if n == 0 {
            return Err(CliError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("short read during {what} download"),
            )));
        }
        off += n as u64;
    }
    Ok(data)
}

/// Start a DPM-like storage node on `addr` over real TCP, preloading every
/// regular file under `root` (when given) at its path relative to `root`.
/// Returns the node and the bound address (useful with port 0).
///
/// The node answers `?metalink` with a self-referential Metalink carrying
/// the object's size and CRC-32 — enough for `davix get --failover` /
/// `--streams` (which then verifies the download) and `davix replicas`
/// against a single standalone server, like a one-node DPM.
pub fn start_server(
    addr: &str,
    root: Option<&Path>,
) -> Result<(StorageNode, SocketAddr, usize), CliError> {
    let store = Arc::new(ObjectStore::new());
    let mut loaded = 0usize;
    if let Some(root) = root {
        loaded = load_dir(&store, root, Path::new("/"))?;
    }
    let listener = TcpListenerWrap::bind(addr)?;
    let local = listener.local_addr()?;
    let meta_store = Arc::clone(&store);
    let opts = StorageOptions {
        metalink: Some(Arc::new(move |path: &str| {
            let meta = meta_store.get(path)?;
            let mut f = metalink::MetaFile::new(path.trim_start_matches('/'));
            f.size = Some(meta.data.len() as u64);
            f.hashes.push(metalink::Hash {
                algo: "crc32".to_string(),
                value: ioapi::checksum::to_hex(meta.crc32),
            });
            f.add_url(metalink::UrlRef::new(format!("http://{local}{path}")).priority(1));
            Some(metalink::Metalink::single(f).to_xml())
        })),
        ..Default::default()
    };
    let rt: Arc<dyn netsim::Runtime> = Arc::new(RealRuntime::new());
    let node =
        StorageNode::start(store, Box::new(listener), rt, opts, httpd::ServerConfig::default());
    Ok((node, local, loaded))
}

/// Recursively load `dir` into the store under `prefix`; returns the number
/// of files loaded.
fn load_dir(store: &ObjectStore, dir: &Path, prefix: &Path) -> Result<usize, CliError> {
    let mut n = 0usize;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let sub = prefix.join(&name);
        let ft = entry.file_type()?;
        if ft.is_dir() {
            store.mkdir(&sub.to_string_lossy());
            n += load_dir(store, &entry.path(), &sub)?;
        } else if ft.is_file() {
            let data = std::fs::read(entry.path())?;
            store.put(&sub.to_string_lossy(), Bytes::from(data));
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_get_all_options() {
        let cmd =
            parse_args(&args(&["get", "http://h/p", "-o", "out.bin", "--ranges", "0-9,100-199"]))
                .unwrap();
        assert_eq!(
            cmd,
            Command::Get {
                url: "http://h/p".into(),
                output: Some(PathBuf::from("out.bin")),
                ranges: vec![(0, 10), (100, 100)],
                failover: false,
                streams: None,
                cache_mb: None,
                readahead: false,
            }
        );
    }

    #[test]
    fn parse_get_cache_flags() {
        let cmd =
            parse_args(&args(&["get", "http://h/p", "--cache-mb", "8", "--readahead"])).unwrap();
        assert!(matches!(cmd, Command::Get { cache_mb: Some(8), readahead: true, .. }));
        let cfg = config_for(&cmd);
        assert_eq!(cfg.cache_capacity_bytes, 8 * 1024 * 1024);
        assert!(cfg.readahead);
        // --readahead alone implies a default cache.
        let cmd = parse_args(&args(&["get", "http://h/p", "--readahead"])).unwrap();
        let cfg = config_for(&cmd);
        assert_eq!(cfg.cache_capacity_bytes, 64 * 1024 * 1024);
        // Without either flag the cache and read-ahead stay off.
        let cmd = parse_args(&args(&["get", "http://h/p"])).unwrap();
        assert_eq!(config_for(&cmd).cache_capacity_bytes, 0);
        assert!(!config_for(&cmd).readahead);
        // Bad/conflicting spellings.
        for bad in [
            &["get", "http://h/p", "--cache-mb"][..],
            &["get", "http://h/p", "--cache-mb", "0"][..],
            &["get", "http://h/p", "--cache-mb", "x"][..],
            &["get", "http://h/p", "--streams", "2", "--cache-mb", "8"][..],
            &["get", "http://h/p", "--streams", "2", "--readahead"][..],
        ] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "should reject: {bad:?}"
            );
        }
    }

    #[test]
    fn parse_put_upload_flags() {
        let cmd = parse_args(&args(&[
            "put",
            "big.bin",
            "http://h/p",
            "--streams",
            "6",
            "--chunk-mb",
            "8",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Put {
                file: PathBuf::from("big.bin"),
                url: "http://h/p".into(),
                streams: Some(6),
                chunk_mb: Some(8),
            }
        );
        // Flags may precede the positionals.
        let cmd = parse_args(&args(&["put", "--streams", "2", "f", "http://h/p"])).unwrap();
        assert!(matches!(cmd, Command::Put { streams: Some(2), chunk_mb: None, .. }));
        // stdin cannot be chunk-uploaded (no random access for retries).
        for bad in [
            &["put", "-", "http://h/p", "--streams", "2"][..],
            &["put", "f", "http://h/p", "--streams", "0"][..],
            &["put", "f", "http://h/p", "--chunk-mb", "x"][..],
            &["put", "f", "http://h/p", "--streams"][..],
            &["put", "f", "http://h/p", "--frobnicate"][..],
        ] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "should reject: {bad:?}"
            );
        }
    }

    #[test]
    fn parse_get_failover_and_streams_conflict() {
        assert!(matches!(
            parse_args(&args(&["get", "http://h/p", "--streams", "3", "--failover"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_get_strategy_surface() {
        // --strategy failover == --failover.
        let cmd = parse_args(&args(&["get", "http://h/p", "--strategy", "failover"])).unwrap();
        assert!(matches!(cmd, Command::Get { failover: true, streams: None, .. }));
        // --strategy multistream picks the default stream count…
        let cmd = parse_args(&args(&["get", "http://h/p", "--strategy", "multistream"])).unwrap();
        assert!(matches!(
            cmd,
            Command::Get { failover: false, streams: Some(n), .. }
                if n == MultistreamOptions::default().streams
        ));
        // …unless --streams overrides it.
        let cmd = parse_args(&args(&[
            "get",
            "http://h/p",
            "--strategy",
            "multistream",
            "--streams",
            "6",
        ]))
        .unwrap();
        assert!(matches!(cmd, Command::Get { streams: Some(6), .. }));
        // direct is the default spelled out.
        let cmd = parse_args(&args(&["get", "http://h/p", "--strategy", "direct"])).unwrap();
        assert!(matches!(cmd, Command::Get { failover: false, streams: None, .. }));
    }

    #[test]
    fn parse_get_strategy_conflicts_and_junk() {
        for bad in [
            &["get", "http://h/p", "--strategy", "warp"][..],
            &["get", "http://h/p", "--strategy"][..],
            &["get", "http://h/p", "--strategy", "failover", "--streams", "2"][..],
            &["get", "http://h/p", "--strategy", "multistream", "--failover"][..],
            &["get", "http://h/p", "--strategy", "direct", "--failover"][..],
        ] {
            assert!(
                matches!(parse_args(&args(bad)), Err(CliError::Usage(_))),
                "should reject: {bad:?}"
            );
        }
    }

    #[test]
    fn parse_simple_commands() {
        assert_eq!(
            parse_args(&args(&["put", "f.bin", "http://h/p"])).unwrap(),
            Command::Put {
                file: PathBuf::from("f.bin"),
                url: "http://h/p".into(),
                streams: None,
                chunk_mb: None,
            }
        );
        assert_eq!(
            parse_args(&args(&["ls", "-l", "http://h/d/"])).unwrap(),
            Command::Ls { url: "http://h/d/".into(), long: true }
        );
        assert_eq!(
            parse_args(&args(&["rm", "http://h/p"])).unwrap(),
            Command::Rm { url: "http://h/p".into() }
        );
        assert_eq!(
            parse_args(&args(&["replicas", "http://h/p"])).unwrap(),
            Command::Replicas { url: "http://h/p".into() }
        );
    }

    #[test]
    fn parse_serve_defaults_and_overrides() {
        assert_eq!(
            parse_args(&args(&["serve"])).unwrap(),
            Command::Serve { addr: "127.0.0.1:8080".into(), root: None }
        );
        assert_eq!(
            parse_args(&args(&["serve", "--addr", "0.0.0.0:9000", "--root", "/tmp/x"])).unwrap(),
            Command::Serve { addr: "0.0.0.0:9000".into(), root: Some(PathBuf::from("/tmp/x")) }
        );
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(parse_args(&[]).is_err());
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&["get"])).is_err());
        assert!(parse_args(&args(&["get", "a", "b"])).is_err());
        assert!(parse_args(&args(&["put", "only-one"])).is_err());
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_ranges("0-0").unwrap(), vec![(0, 1)]);
        assert_eq!(parse_ranges("5-9,20-29").unwrap(), vec![(5, 5), (20, 10)]);
        assert!(parse_ranges("9-5").is_err());
        assert!(parse_ranges("abc").is_err());
        assert!(parse_ranges("1-x").is_err());
        assert!(parse_ranges("").is_err());
    }

    #[test]
    fn a_range_longer_than_u64_is_a_usage_error() {
        let max = u64::MAX;
        assert!(matches!(parse_ranges(&format!("0-{max}")), Err(CliError::Usage(_))));
        assert_eq!(parse_ranges(&format!("1-{max}")).unwrap(), vec![(1, usize::MAX)]);
        assert_eq!(parse_ranges(&format!("{max}-{max}")).unwrap(), vec![(max, 1)]);
    }

    /// End-to-end over real loopback TCP: serve a directory, then exercise
    /// every command against it.
    #[test]
    fn commands_roundtrip_over_real_tcp() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(tmp.join("sub")).unwrap();
        std::fs::write(tmp.join("hello.txt"), b"hello world").unwrap();
        std::fs::write(tmp.join("sub/data.bin"), vec![7u8; 4096]).unwrap();

        let (_node, addr, loaded) = start_server("127.0.0.1:0", Some(&tmp)).unwrap();
        assert_eq!(loaded, 2);
        let base = format!("http://{addr}");
        let client = real_client(Config::default());

        // get whole object
        let mut out = Vec::new();
        let n = run_command(
            &client,
            &Command::Get {
                url: format!("{base}/hello.txt"),
                output: None,
                ranges: vec![],
                failover: false,
                streams: None,
                cache_mb: None,
                readahead: false,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(n, 11);
        assert_eq!(out, b"hello world");

        // vectored ranges
        let mut out = Vec::new();
        run_command(
            &client,
            &Command::Get {
                url: format!("{base}/hello.txt"),
                output: None,
                ranges: vec![(0, 5), (6, 5)],
                failover: false,
                streams: None,
                cache_mb: None,
                readahead: false,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(out, b"helloworld");

        // put + stat + mv + rm
        let up = tmp.join("up.bin");
        std::fs::write(&up, vec![9u8; 1000]).unwrap();
        let mut out = Vec::new();
        run_command(
            &client,
            &Command::Put {
                file: up,
                url: format!("{base}/up.bin"),
                streams: None,
                chunk_mb: None,
            },
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        run_command(&client, &Command::Stat { url: format!("{base}/up.bin") }, &mut out).unwrap();
        let stat_line = String::from_utf8(out).unwrap();
        assert!(stat_line.contains("size=1000"), "{stat_line}");
        run_command(
            &client,
            &Command::Mv { from: format!("{base}/up.bin"), to: format!("{base}/moved.bin") },
            &mut Vec::new(),
        )
        .unwrap();
        let mut out = Vec::new();
        run_command(&client, &Command::Stat { url: format!("{base}/moved.bin") }, &mut out)
            .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("size=1000"));
        let mut out = Vec::new();
        run_command(&client, &Command::Rm { url: format!("{base}/moved.bin") }, &mut out).unwrap();
        let err = run_command(
            &client,
            &Command::Stat { url: format!("{base}/moved.bin") },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Davix(_)));

        // ls of the preloaded tree
        let mut out = Vec::new();
        run_command(&client, &Command::Ls { url: format!("{base}/"), long: true }, &mut out)
            .unwrap();
        let listing = String::from_utf8(out).unwrap();
        assert!(listing.contains("hello.txt"), "{listing}");
        assert!(listing.contains("sub"), "{listing}");

        // mkdir then ls shows it
        run_command(&client, &Command::Mkdir { url: format!("{base}/newdir/") }, &mut Vec::new())
            .unwrap();
        let mut out = Vec::new();
        run_command(&client, &Command::Ls { url: format!("{base}/"), long: false }, &mut out)
            .unwrap();
        assert!(String::from_utf8(out).unwrap().contains("newdir"));

        std::fs::remove_dir_all(&tmp).ok();
    }

    /// The standalone server's self-referential Metalink makes the
    /// resiliency commands work with no federation: `replicas` lists the
    /// node itself, `--failover` opens through the Metalink, and
    /// `--streams` downloads in parallel and verifies the CRC-32.
    #[test]
    fn metalink_commands_work_against_standalone_server() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-meta-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let payload: Vec<u8> = (0..1_000_000usize).map(|i| (i % 247) as u8).collect();
        std::fs::write(tmp.join("big.bin"), &payload).unwrap();

        let (_node, addr, _) = start_server("127.0.0.1:0", Some(&tmp)).unwrap();
        let client = real_client(Config::default());
        let url = format!("http://{addr}/big.bin");

        // replicas: exactly one, pointing back at this server.
        let mut out = Vec::new();
        run_command(&client, &Command::Replicas { url: url.clone() }, &mut out).unwrap();
        let listing = String::from_utf8(out).unwrap();
        assert!(listing.contains(&format!("http://{addr}/big.bin")), "{listing}");

        // --failover download.
        let mut out = Vec::new();
        run_command(
            &client,
            &Command::Get {
                url: url.clone(),
                output: None,
                ranges: vec![],
                failover: true,
                streams: None,
                cache_mb: None,
                readahead: false,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(out, payload);

        // --streams download (checksum-verified against the Metalink).
        let mut out = Vec::new();
        run_command(
            &client,
            &Command::Get {
                url,
                output: None,
                ranges: vec![],
                failover: false,
                streams: Some(3),
                cache_mb: None,
                readahead: false,
            },
            &mut out,
        )
        .unwrap();
        assert_eq!(out, payload);

        std::fs::remove_dir_all(&tmp).ok();
    }

    /// `--cache-mb` end-to-end over real TCP: the cached download is
    /// byte-identical and actually populates the cache.
    #[test]
    fn cached_get_roundtrips_over_real_tcp() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-cache-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let payload: Vec<u8> = (0..600_000usize).map(|i| ((i * 7) % 253) as u8).collect();
        std::fs::write(tmp.join("hot.bin"), &payload).unwrap();
        let (_node, addr, _) = start_server("127.0.0.1:0", Some(&tmp)).unwrap();

        let cmd = parse_args(&args(&[
            "get",
            &format!("http://{addr}/hot.bin"),
            "--cache-mb",
            "4",
            "--readahead",
        ]))
        .unwrap();
        let client = real_client(config_for(&cmd));
        let mut out = Vec::new();
        run_command(&client, &cmd, &mut out).unwrap();
        assert_eq!(out, payload);
        let m = client.metrics();
        assert!(m.cache_misses > 0, "download must go through the block cache");
        // Same command again on the same client: served from memory.
        let before = client.metrics();
        let mut out = Vec::new();
        run_command(&client, &cmd, &mut out).unwrap();
        assert_eq!(out, payload);
        let d = client.metrics().since(&before);
        assert_eq!(d.cache_misses, 0, "re-download must be all hits");
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// `put --streams/--chunk-mb` end-to-end over real TCP: the chunked
    /// parallel upload commits byte-identical data with the checksum
    /// verified, and a plain streaming put matches it.
    #[test]
    fn multistream_put_roundtrips_over_real_tcp() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-up-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let payload: Vec<u8> = (0..2_500_000usize).map(|i| ((i * 11 + 3) % 249) as u8).collect();
        let local = tmp.join("big.bin");
        std::fs::write(&local, &payload).unwrap();
        let (node, addr, _) = start_server("127.0.0.1:0", None).unwrap();
        let client = real_client(Config::default());

        let mut out = Vec::new();
        run_command(
            &client,
            &Command::Put {
                file: local.clone(),
                url: format!("http://{addr}/chunked.bin"),
                streams: Some(3),
                chunk_mb: Some(1),
            },
            &mut out,
        )
        .unwrap();
        let line = String::from_utf8(out).unwrap();
        assert!(line.contains("2500000 bytes"), "{line}");
        assert!(line.contains("3 chunk(s)"), "{line}");
        assert!(line.contains("checksum verified"), "{line}");
        assert_eq!(node.store.get("/chunked.bin").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(node.store.len(), 1, "no staging debris left behind");

        // Plain put now streams from disk instead of buffering the file.
        run_command(
            &client,
            &Command::Put {
                file: local,
                url: format!("http://{addr}/plain.bin"),
                streams: None,
                chunk_mb: None,
            },
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(node.store.get("/plain.bin").unwrap().data.as_ref(), &payload[..]);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn get_writes_to_output_file() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-out-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        std::fs::write(tmp.join("x.bin"), vec![3u8; 123]).unwrap();
        let (_node, addr, _) = start_server("127.0.0.1:0", Some(&tmp)).unwrap();
        let client = real_client(Config::default());
        let dest = tmp.join("fetched.bin");
        run_command(
            &client,
            &Command::Get {
                url: format!("http://{addr}/x.bin"),
                output: Some(dest.clone()),
                ranges: vec![],
                failover: false,
                streams: None,
                cache_mb: None,
                readahead: false,
            },
            &mut Vec::new(),
        )
        .unwrap();
        assert_eq!(std::fs::read(&dest).unwrap(), vec![3u8; 123]);
        std::fs::remove_dir_all(&tmp).ok();
    }
}
