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

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use bytes::Bytes;
use davix::{multistream_download_verified, ChunkSource, Config, DavixClient, MultistreamOptions};
use netsim::{RealRuntime, TcpConnector, TcpListenerWrap};
use objstore::{ObjectStore, StorageNode, StorageOptions};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

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
        CliError::Davix(_) | CliError::Io(_) => 1,
    }
}

/// How `davix get` fetches a whole object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The URL itself; no Metalink (no flag).
    Direct,
    /// The URL, failing over to the healthiest Metalink replica on a
    /// replica-eligible error (`--failover`).
    Failover,
    /// Parallel chunks over this many streams across the Metalink replicas,
    /// verified against the declared checksum (`--streams N`).
    Multistream(usize),
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Download an object (whole or ranged) by one [`Strategy`].
    Get {
        url: String,
        output: Option<PathBuf>,
        ranges: Vec<(u64, usize)>,
        strategy: Strategy,
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
  davix get <url> [-o FILE] [--ranges A-B[,C-D…]]
            [--failover | --streams N] [--cache-mb N] [--readahead]
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
  --failover     get: on a replica-eligible error, resolve the Metalink and
                 fail over to the healthiest replica (without --failover
                 or --streams, get reads the URL alone)
  --streams N    get: multi-stream download, N parallel streams across the
                 Metalink replicas, verified against the declared checksum
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

fn usage<T>(m: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(m.into()))
}

/// The arguments after a command, read left to right: every flag that takes
/// a value reads it here, so a missing or bad value is refused the same way
/// in every command.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Iterator for Args<'a> {
    type Item = &'a str;
    fn next(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }
}

impl<'a> Args<'a> {
    /// The argument after `flag`.
    fn value(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next().map_or_else(|| usage(format!("{flag} needs a value")), Ok)
    }

    /// A positive count of `unit`s after `flag` whose product with `unit`
    /// fits a `usize` (`--chunk-mb` and `--cache-mb` count MiB).
    fn positive(&mut self, flag: &str, unit: usize) -> Result<usize, CliError> {
        let v = self.value(flag)?;
        match v.parse::<usize>() {
            Ok(n) if n > 0 && n.checked_mul(unit).is_some() => Ok(n),
            Ok(n) if n > 0 => usage(format!("{flag} {n} is too large")),
            _ => usage(format!("{flag} needs a positive count, got {v:?}")),
        }
    }
}

const MIB: usize = 1024 * 1024;

/// `new` after `old` on one `get` command line: the later flag wins, but
/// `--failover` and `--streams` are two strategies, not one.
fn pick(old: Strategy, new: Strategy) -> Result<Strategy, CliError> {
    match (old, new) {
        (Strategy::Failover, Strategy::Multistream(_))
        | (Strategy::Multistream(_), Strategy::Failover) => {
            usage("--failover and --streams are two strategies: pick one")
        }
        _ => Ok(new),
    }
}

/// Parse `argv` (without the program name).
pub fn parse_args(argv: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return usage("missing command (try `davix help`)");
    };
    let mut args = Args(rest.iter());
    match cmd.as_str() {
        "get" => {
            let (mut url, mut output, mut ranges) = (None, None, Vec::new());
            let (mut strategy, mut cache_mb, mut readahead) = (Strategy::Direct, None, false);
            while let Some(a) = args.next() {
                match a {
                    "-o" => output = Some(PathBuf::from(args.value(a)?)),
                    "--ranges" => ranges = parse_ranges(args.value(a)?)?,
                    "--failover" => strategy = pick(strategy, Strategy::Failover)?,
                    "--streams" => {
                        strategy = pick(strategy, Strategy::Multistream(args.positive(a, 1)?))?;
                    }
                    "--cache-mb" => cache_mb = Some(args.positive(a, MIB)?),
                    "--readahead" => readahead = true,
                    a if a.starts_with('-') => return usage(format!("unknown get option {a:?}")),
                    a if url.is_some() => return usage(format!("get takes one url, not {a:?}")),
                    a => url = Some(a.to_string()),
                }
            }
            let Some(url) = url else { return usage("get needs a url") };
            // Multi-stream pulls each chunk exactly once, whole: there is
            // no range to select and nothing a cache would serve again.
            if matches!(strategy, Strategy::Multistream(_))
                && (!ranges.is_empty() || cache_mb.is_some() || readahead)
            {
                return usage("--streams cannot be combined with --ranges/--cache-mb/--readahead");
            }
            Ok(Command::Get { url, output, ranges, strategy, cache_mb, readahead })
        }
        "put" => {
            let (mut positional, mut streams, mut chunk_mb) = (Vec::new(), None, None);
            while let Some(a) = args.next() {
                match a {
                    "--streams" => streams = Some(args.positive(a, 1)?),
                    "--chunk-mb" => chunk_mb = Some(args.positive(a, MIB)?),
                    a if a.starts_with("--") => return usage(format!("unknown put option {a:?}")),
                    a => positional.push(a),
                }
            }
            let [file, url] = positional[..] else { return usage("put needs <file> <url>") };
            if (streams.is_some() || chunk_mb.is_some()) && file == "-" {
                return usage("--streams/--chunk-mb need random access; cannot chunk stdin");
            }
            Ok(Command::Put { file: PathBuf::from(file), url: url.to_string(), streams, chunk_mb })
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
            let (mut addr, mut root) = ("127.0.0.1:8080".to_string(), None);
            while let Some(a) = args.next() {
                match a {
                    "--addr" => addr = args.value(a)?.to_string(),
                    "--root" => root = Some(PathBuf::from(args.value(a)?)),
                    a => return usage(format!("unknown serve option {a:?}")),
                }
            }
            Ok(Command::Serve { addr, root })
        }
        "help" | "--help" | "-h" => usage("help requested"),
        other => usage(format!("unknown command {other:?}")),
    }
}

/// Parse `"0-1023,4096-8191"` (inclusive byte ranges) into
/// `(offset, length)` fragments.
pub fn parse_ranges(spec: &str) -> Result<Vec<(u64, usize)>, CliError> {
    let mut out = Vec::new();
    // `split` yields at least one part, so an empty spec is a bad range.
    for part in spec.split(',') {
        let Some((a, b)) = part.split_once('-') else {
            return usage(format!("bad range {part:?} (want A-B)"));
        };
        let (Ok(first), Ok(last)) = (a.trim().parse::<u64>(), b.trim().parse::<u64>()) else {
            return usage(format!("bad range {part:?} (want two byte offsets)"));
        };
        if last < first {
            return usage(format!("range {part:?} ends before it starts"));
        }
        let Some(len) = (last - first).checked_add(1).and_then(|n| usize::try_from(n).ok()) else {
            return usage(format!("range {part:?} is too long"));
        };
        out.push((first, len));
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
        cfg = cfg.with_cache((mb * MIB) as u64);
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
        Command::Get { url, output, ranges, strategy, cache_mb, readahead } => {
            let cached = cache_mb.is_some() || *readahead;
            write_output(output.as_deref(), out, |sink, part| {
                fetch(client, url, ranges, *strategy, cached, sink, part)
            })
        }
        Command::Put { file, url, streams, chunk_mb } => {
            if streams.is_some() || chunk_mb.is_some() {
                // Parallel chunked upload with checksum-verified commit.
                let source = Arc::new(davix::FileSource::open(file)?);
                let opts = davix::UploadOptions {
                    streams: *streams,
                    chunk_size: chunk_mb.map(|mb| mb * MIB),
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
            let reps = client.resolve_replica_set(url)?.uris;
            for (i, uri) in reps.iter().enumerate() {
                writeln!(out, "{} {}", i + 1, uri)?;
            }
            Ok(0)
        }
        Command::Serve { .. } => unreachable!("serve is handled by main (blocks forever)"),
    }
}

/// The download paths of `davix get`, written to `sink`, or at offsets to
/// `part` when `sink` is a part file; returns the bytes written. A plain
/// whole-object download streams the one GET's body, so memory stays flat
/// however big the object is, and a reset mid-body resumes within the
/// retry budget. Fail-over, the block cache and read-ahead copy through
/// one [`DavFile`](davix::DavFile) with
/// [`copy_to`](davix::DavFile::copy_to), as flat in memory (`cached` keeps
/// the cache flags from being dead weight on the plain path); ranges are
/// one vectored read. `--streams` writes each chunk at its offset in
/// `part`, holding at most `streams` chunks; any other output gets the
/// whole entity in one write once it is verified.
fn fetch(
    client: &DavixClient,
    url: &str,
    ranges: &[(u64, usize)],
    strategy: Strategy,
    cached: bool,
    sink: &mut dyn Write,
    part: Option<&std::fs::File>,
) -> Result<u64, CliError> {
    let file = match strategy {
        Strategy::Multistream(streams) => {
            // Metalink-driven: resolve replicas, download in parallel,
            // verify the declared checksum.
            let opts = MultistreamOptions { streams, ..MultistreamOptions::default() };
            if let Some(part) = part {
                let part = Arc::new(part.try_clone()?);
                return Ok(multistream_download_verified(client, url, &opts, part)?);
            }
            let entity = Arc::new(Mutex::new(Vec::new()));
            let n = multistream_download_verified(client, url, &opts, entity.clone())?;
            let entity =
                std::mem::take(&mut *entity.lock().unwrap_or_else(PoisonError::into_inner));
            sink.write_all(&entity)?;
            return Ok(n);
        }
        Strategy::Failover => client.open_failover(url)?,
        Strategy::Direct if cached || !ranges.is_empty() => client.open(url)?,
        Strategy::Direct => return Ok(client.posix().get_into(url, sink)?),
    };
    if !ranges.is_empty() {
        // A range past the entity must not size the buffer.
        let size = file.size_hint();
        if let Some((off, len)) = ranges.iter().find(|r| r.0.saturating_add(r.1 as u64) > size) {
            let what = format!("range {off}+{len} beyond entity size {size}");
            return Err(davix::DavixError::InvalidArgument(what).into());
        }
        // One vectored multi-range request, read into one buffer: the
        // fragments back to back in request order (like `davix-get
        // --ranges`).
        let mut data = vec![0u8; ranges.iter().map(|&(_, len)| len).sum()];
        file.pread_vec_into(ranges, &mut data)?;
        sink.write_all(&data)?;
        return Ok(data.len() as u64);
    }
    Ok(file.copy_to(sink)?)
}

/// Let `fill` write to `path` (`-o FILE`) or else to `out`; returns what
/// `fill` returns. A regular file is written through a sibling that
/// replaces it only once `fill` succeeds, so a download that fails midway
/// leaves `path` as it was: absent, or holding its earlier bytes. `fill`
/// is handed that sibling twice: as the stream, and as a file it may write
/// at any offset.
fn write_output(
    path: Option<&Path>,
    out: &mut dyn Write,
    fill: impl FnOnce(&mut dyn Write, Option<&std::fs::File>) -> Result<u64, CliError>,
) -> Result<u64, CliError> {
    let Some(path) = path else {
        return fill(out, None);
    };
    // Replace what a symlink points at, not the link; a device or a pipe
    // has no earlier bytes to keep and is written in place.
    let target = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let earlier = std::fs::metadata(&target).ok();
    if earlier.as_ref().is_some_and(|m| !m.is_file()) {
        return fill(&mut std::fs::File::create(&target)?, None);
    }
    if earlier.is_some() {
        // Refuse, before any request, a file that may not be written.
        std::fs::OpenOptions::new().write(true).open(&target)?;
    }
    let mut part = target.clone().into_os_string();
    part.push(".davix-part");
    let part = PathBuf::from(part);
    let written = std::fs::File::create(&part).map_err(CliError::from).and_then(|file| {
        let n = fill(&mut &file, Some(&file))?;
        if let Some(m) = &earlier {
            file.set_permissions(m.permissions())?;
        }
        std::fs::rename(&part, &target)?;
        Ok(n)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&part);
    }
    written
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

    fn get(url: &str, strategy: Strategy) -> Command {
        Command::Get {
            url: url.to_string(),
            output: None,
            ranges: vec![],
            strategy,
            cache_mb: None,
            readahead: false,
        }
    }

    fn put(file: &str, streams: Option<usize>, chunk_mb: Option<usize>) -> Command {
        Command::Put { file: PathBuf::from(file), url: "http://h/p".into(), streams, chunk_mb }
    }

    /// Every command line maps to one command, or (`None`) to a usage error.
    #[test]
    fn each_command_line_is_one_command_or_a_usage_error() {
        const H: &str = "http://h/p";
        // 2^44 MiB is 2^64 bytes: its byte count wraps to 0, one MiB more to 1 MiB.
        const MIB_2_44: &str = "17592186044416";
        const MIB_2_44_1: &str = "17592186044417";
        let table: Vec<(&[&str], Option<Command>)> = vec![
            // get: one spelling per strategy.
            (&["get", H], Some(get(H, Strategy::Direct))),
            (&["get", H, "--failover"], Some(get(H, Strategy::Failover))),
            (&["get", H, "--streams", "3"], Some(get(H, Strategy::Multistream(3)))),
            (
                &["get", "--streams", "2", H, "--streams", "6"],
                Some(get(H, Strategy::Multistream(6))),
            ),
            (&["get", H, "--strategy", "failover"], None),
            (&["get", H, "--strategy", "multistream"], None),
            (&["get", H, "--strategy", "direct"], None),
            (&["get", H, "--streams", "3", "--failover"], None),
            (&["get", H, "--failover", "--streams", "3"], None),
            (&["get", H, "--streams", "0"], None),
            (&["get", H, "--streams", "x"], None),
            (&["get", H, "--streams"], None),
            // get: output, ranges and the cache.
            (
                &["get", H, "-o", "out.bin", "--ranges", "0-9,100-199"],
                Some(Command::Get {
                    url: H.into(),
                    output: Some(PathBuf::from("out.bin")),
                    ranges: vec![(0, 10), (100, 100)],
                    strategy: Strategy::Direct,
                    cache_mb: None,
                    readahead: false,
                }),
            ),
            (
                &["get", H, "--cache-mb", "8", "--readahead"],
                Some(Command::Get {
                    url: H.into(),
                    output: None,
                    ranges: vec![],
                    strategy: Strategy::Direct,
                    cache_mb: Some(8),
                    readahead: true,
                }),
            ),
            (&["get", H, "-o"], None),
            (&["get", H, "--ranges", "9-5"], None),
            (&["get", H, "--cache-mb"], None),
            (&["get", H, "--cache-mb", "0"], None),
            (&["get", H, "--cache-mb", "x"], None),
            (&["get", H, "--cache-mb", MIB_2_44], None),
            (&["get", H, "--cache-mb", MIB_2_44_1], None),
            (&["get", H, "--streams", "2", "--cache-mb", "8"], None),
            (&["get", H, "--streams", "2", "--readahead"], None),
            (&["get", H, "--streams", "2", "--ranges", "0-9"], None),
            (&["get", H, "--frobnicate"], None),
            (&["get"], None),
            (&["get", "a", "b"], None),
            // put.
            (&["put", "f", H], Some(put("f", None, None))),
            (
                &["put", "f", H, "--streams", "6", "--chunk-mb", "8"],
                Some(put("f", Some(6), Some(8))),
            ),
            (&["put", "--streams", "2", "f", H], Some(put("f", Some(2), None))),
            (&["put", "-", H], Some(put("-", None, None))),
            (&["put", "-", H, "--streams", "2"], None),
            (&["put", "f", H, "--streams", "0"], None),
            (&["put", "f", H, "--chunk-mb", "x"], None),
            (&["put", "f", H, "--chunk-mb", MIB_2_44], None),
            (&["put", "f", H, "--chunk-mb", MIB_2_44_1], None),
            (&["put", "f", H, "--streams"], None),
            (&["put", "f", H, "--frobnicate"], None),
            (&["put", "only-one"], None),
            // The namespace commands and serve.
            (
                &["ls", "-l", "http://h/d/"],
                Some(Command::Ls { url: "http://h/d/".into(), long: true }),
            ),
            (&["ls", "http://h/d/"], Some(Command::Ls { url: "http://h/d/".into(), long: false })),
            (&["rm", H], Some(Command::Rm { url: H.into() })),
            (&["replicas", H], Some(Command::Replicas { url: H.into() })),
            (&["serve"], Some(Command::Serve { addr: "127.0.0.1:8080".into(), root: None })),
            (
                &["serve", "--addr", "0.0.0.0:9000", "--root", "/tmp/x"],
                Some(Command::Serve {
                    addr: "0.0.0.0:9000".into(),
                    root: Some(PathBuf::from("/tmp/x")),
                }),
            ),
            (&["serve", "--addr"], None),
            (&["serve", "--port", "1"], None),
            (&[], None),
            (&["frobnicate"], None),
            (&["help"], None),
        ];
        for (argv, want) in table {
            match (parse_args(&args(argv)), want) {
                (Ok(got), Some(want)) => assert_eq!(got, want, "{argv:?}"),
                (Err(CliError::Usage(_)), None) => {}
                (got, want) => panic!("{argv:?}: got {got:?}, want {want:?}"),
            }
        }
    }

    #[test]
    fn parse_get_cache_flags() {
        let cmd =
            parse_args(&args(&["get", "http://h/p", "--cache-mb", "8", "--readahead"])).unwrap();
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
        let n =
            run_command(&client, &get(&format!("{base}/hello.txt"), Strategy::Direct), &mut out)
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
                strategy: Strategy::Direct,
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
        run_command(&client, &get(&url, Strategy::Failover), &mut out).unwrap();
        assert_eq!(out, payload);

        // --streams download (checksum-verified against the Metalink).
        let mut out = Vec::new();
        run_command(&client, &get(&url, Strategy::Multistream(3)), &mut out).unwrap();
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

    /// A plain `get -o FILE` streams the one GET's body into the file: the
    /// bytes arrive whole and no body is ever collected in memory. A
    /// download that fails — a missing object, a body that breaks off
    /// midway — leaves `FILE` as it was: absent, or holding its earlier
    /// bytes, read-only or not.
    #[test]
    fn a_plain_get_streams_into_its_output_file() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-stream-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let payload: Vec<u8> = (0..3_000_000usize).map(|i| ((i * 13 + 5) % 251) as u8).collect();
        std::fs::write(tmp.join("big.bin"), &payload).unwrap();
        let (_node, addr, _) = start_server("127.0.0.1:0", Some(&tmp)).unwrap();
        let client = real_client(Config::default());
        let dest = tmp.join("fetched.bin");
        let part = tmp.join("fetched.bin.davix-part");
        let get_to = |name: &str| Command::Get {
            url: format!("http://{addr}/{name}"),
            output: Some(dest.clone()),
            ranges: vec![],
            strategy: Strategy::Direct,
            cache_mb: None,
            readahead: false,
        };
        let n = run_command(&client, &get_to("big.bin"), &mut Vec::new()).unwrap();
        assert_eq!(n, payload.len() as u64);
        assert_eq!(std::fs::read(&dest).unwrap(), payload);
        assert_eq!(client.metrics().peak_body_buffer, 0, "the body must stream, not collect");
        assert!(!part.exists());

        let fail_twice = || {
            assert!(run_command(&client, &get_to("missing.bin"), &mut Vec::new()).is_err());
            let broken = write_output(Some(&dest), &mut Vec::new(), |sink, _| {
                sink.write_all(b"the first bytes")?;
                Err(io::Error::from(io::ErrorKind::ConnectionReset).into())
            });
            assert!(broken.is_err());
            assert!(!part.exists(), "a failed download leaves no part file");
        };
        std::fs::remove_file(&dest).unwrap();
        fail_twice();
        assert!(!dest.exists(), "a failed download leaves no file behind");

        std::fs::write(&dest, b"an earlier copy").unwrap();
        fail_twice();
        assert_eq!(std::fs::read(&dest).unwrap(), b"an earlier copy");

        let mut perms = std::fs::metadata(&dest).unwrap().permissions();
        perms.set_readonly(true);
        std::fs::set_permissions(&dest, perms).unwrap();
        fail_twice();
        assert_eq!(std::fs::read(&dest).unwrap(), b"an earlier copy");
        // A download that succeeds replaces a read-only file only where the
        // file could be written in place, and keeps it read-only.
        let kept = match run_command(&client, &get_to("big.bin"), &mut Vec::new()) {
            Ok(_) => payload,
            Err(_) => b"an earlier copy".to_vec(),
        };
        assert_eq!(std::fs::read(&dest).unwrap(), kept);
        assert!(std::fs::metadata(&dest).unwrap().permissions().readonly());
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// A plain get whose body stalls midway (the client's read times out)
    /// sends the GET again and resumes where the output left off: the
    /// bytes arrive whole, one retry is spent and no body is collected.
    #[test]
    fn a_plain_get_resumes_after_a_stalled_body() {
        let payload: Vec<u8> = (0..1_000_000usize).map(|i| (i % 253) as u8).collect();
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body = payload.clone();
        let server = std::thread::spawn(move || {
            // The first connection stops halfway through its body and stays
            // open; the second serves the body whole.
            let mut stalled = Vec::new();
            for (n, conn) in listener.incoming().take(2).enumerate() {
                let mut conn = conn.unwrap();
                let mut head = Vec::new();
                let mut byte = [0u8; 1];
                while !head.ends_with(b"\r\n\r\n") {
                    conn.read_exact(&mut byte).unwrap();
                    head.push(byte[0]);
                }
                write!(
                    conn,
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nETag: \"v1\"\r\n\
                     Connection: close\r\n\r\n",
                    body.len()
                )
                .unwrap();
                let cut = if n == 0 { body.len() / 2 } else { body.len() };
                conn.write_all(&body[..cut]).unwrap();
                stalled.push(conn);
            }
        });
        let client = real_client(Config {
            io_timeout: std::time::Duration::from_millis(300),
            retry: davix::RetryPolicy { retries: 2, backoff: std::time::Duration::from_millis(1) },
            ..Config::default()
        });
        let mut got = Vec::new();
        let n = run_command(&client, &get(&format!("http://{addr}/f"), Strategy::Direct), &mut got)
            .unwrap();
        assert_eq!(n, payload.len() as u64);
        assert!(got == payload, "the resumed body must be byte-identical");
        let m = client.metrics();
        assert_eq!(m.retries, 1);
        assert_eq!(m.peak_body_buffer, 0, "the body must stream, not collect");
        server.join().unwrap();
    }

    /// A sink that keeps what it is given and the size of every `write`.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `--failover`, `--cache-mb` and `--readahead` copy the object to the
    /// output byte-identical, in more than one write and none larger than
    /// a copy buffer, so memory stays flat. Fail-over streams one GET after
    /// its open (a HEAD); the block cache reads a 1 MiB window at a time,
    /// one request for each window's missing blocks, and read-ahead fetches
    /// blocks on its own schedule.
    #[test]
    fn a_get_through_a_file_handle_streams_in_bounded_writes() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-window-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        let payload: Vec<u8> = (0..2_500_000usize).map(|i| ((i * 17 + 9) % 241) as u8).collect();
        std::fs::write(tmp.join("big.bin"), &payload).unwrap();
        let (_node, addr, _) = start_server("127.0.0.1:0", Some(&tmp)).unwrap();
        let url = format!("http://{addr}/big.bin");
        for (flags, requests) in [
            (&["--failover"][..], 1 + 1..=1 + 1),
            (&["--cache-mb", "4"], 1 + 3..=1 + 3),
            // Ten 256 KiB blocks, none fetched twice.
            (&["--readahead"], 1 + 1..=1 + 10),
        ] {
            let cmd = parse_args(&args(&[&["get", &url][..], flags].concat())).unwrap();
            let client = real_client(config_for(&cmd));
            let mut sink = CountingSink::default();
            let n = run_command(&client, &cmd, &mut sink).unwrap();
            assert_eq!(n, payload.len() as u64, "{flags:?}");
            assert!(sink.bytes == payload, "{flags:?}: the copy must be byte-identical");
            assert!(sink.writes.len() > 1, "{flags:?}: {} write(s)", sink.writes.len());
            assert!(sink.writes.iter().all(|&w| w <= 1 << 20), "{flags:?}: {:?}", sink.writes);
            let sent = client.metrics().requests;
            assert!(requests.contains(&sent), "{flags:?}: {sent} requests, want {requests:?}");
        }
        std::fs::remove_dir_all(&tmp).ok();
    }

    /// `get --streams 3 -o FILE` writes each chunk at its offset in the part
    /// file, which replaces FILE only once the download is verified; a
    /// failed one leaves FILE as it was and no part file behind. To stdout
    /// the verified entity goes in one write.
    #[test]
    fn a_streams_get_writes_its_chunks_into_the_part_file() {
        let tmp = std::env::temp_dir().join(format!("davix-cli-streams-{}", std::process::id()));
        std::fs::create_dir_all(&tmp).unwrap();
        // Three default-size chunks, the last one short.
        let chunk = MultistreamOptions::default().chunk_size;
        let payload: Vec<u8> = (0..2 * chunk + 54_321).map(|i| ((i * 7 + 3) % 253) as u8).collect();
        std::fs::write(tmp.join("big.bin"), &payload).unwrap();
        let (_node, addr, _) = start_server("127.0.0.1:0", Some(&tmp)).unwrap();
        let dest = tmp.join("got.bin");
        let part = tmp.join("got.bin.davix-part");
        let get = |name: &str, to: &[&str]| {
            let url = format!("http://{addr}/{name}");
            parse_args(&args(&[&["get", &url, "--streams", "3"][..], to].concat())).unwrap()
        };
        let to_dest = ["-o", dest.to_str().unwrap()];
        let client = real_client(Config::default());

        std::fs::write(&dest, b"an earlier copy").unwrap();
        assert!(run_command(&client, &get("missing.bin", &to_dest), &mut Vec::new()).is_err());
        assert_eq!(std::fs::read(&dest).unwrap(), b"an earlier copy");
        assert!(!part.exists(), "a failed download leaves no part file");

        let mut out = Vec::new();
        let n = run_command(&client, &get("big.bin", &to_dest), &mut out).unwrap();
        assert_eq!(n, payload.len() as u64);
        assert!(out.is_empty());
        assert!(std::fs::read(&dest).unwrap() == payload, "chunk bytes out of place");
        assert!(!part.exists(), "the part file became the output");
        let peak = client.metrics().peak_chunk_buffer;
        assert!(peak > 0 && peak <= 3 * chunk as u64, "{peak} bytes of chunks held at once");

        let mut sink = CountingSink::default();
        let n = run_command(&client, &get("big.bin", &[]), &mut sink).unwrap();
        assert_eq!(n, payload.len() as u64);
        assert!(sink.bytes == payload, "chunk bytes out of place");
        assert_eq!(sink.writes, [payload.len()], "one write of the verified entity");
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
                strategy: Strategy::Direct,
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
