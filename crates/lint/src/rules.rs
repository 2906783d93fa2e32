//! The three rule families and the suppression-marker policy.
//!
//! Everything here is a *conservative token-level* analysis over
//! [`crate::lexer`] output: no name resolution, no types. The rules are
//! tuned so that the disciplined patterns used across the workspace pass
//! clean, and anything that needs an exemption gets an explicit,
//! documented `// davix-lint: allow(<rule>) — <reason>` marker instead of
//! silently rotting in reviewer memory.

use crate::callgraph::CallGraph;
use crate::lexer::{scan, AllowMarker, Scanned, TokKind, Token};

/// A rule family. `BadAllow` is the meta-rule policing the markers
/// themselves and can never be suppressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rule {
    /// Ambient nondeterminism in sim-reachable code: `Instant::now`,
    /// `SystemTime::now`, `thread::sleep`, `rand::thread_rng`,
    /// `rand::random`. Bit-identical seeded sim runs (pinned by
    /// `crates/netsim/tests/determinism.rs`) only hold while virtual time
    /// is the *only* clock.
    Determinism,
    /// A lock guard still live at a call that can block (Signal waits,
    /// `execute*`, `connect`/`accept`, stream `read`/`write`, park/join
    /// points): the "never hold a lock across I/O" discipline. With a
    /// workspace [`CallGraph`], the check is interprocedural: a guard live
    /// across a call to a *transitively* blocking workspace function is
    /// flagged too, with the witness chain in the message.
    LockDiscipline,
    /// `std::thread::spawn` / `thread::Builder` outside the sanctioned
    /// spawn sites (`IoPool`, the reactor, the netsim scheduler): stray
    /// threads break the sim's thread census and quiescence detection. In
    /// the client (`crates/core/src`) any `.spawn(..)` outside `IoPool`
    /// counts too, so `Config::io_threads` bounds every client thread; in
    /// the servers (`crates/httpd/src`, `xrdlite`'s `server.rs`) any
    /// `.spawn(..)` does, so their threads are `netsim::ServerCore`'s.
    ThreadHygiene,
    /// A response head parsed by hand (`parse_response_head(..)`) outside
    /// the crates that speak HTTP for everyone — `httpwire`, the client's
    /// exchange in `core`, `httpd` — which is how a second HTTP client
    /// starts to grow. Load generators and probes drive `davix::Exchange`
    /// instead; the one head a bench must read itself (fig7's slowloris
    /// `408`, which no client request ever gets) is allow-listed by name.
    OneClient,
    /// Bare shared mutable state outside the `davix-sync` shim: direct
    /// `std::sync::atomic` paths, `static mut`, or `UnsafeCell`. The
    /// `race-detect` sanitizer can only see synchronization it models —
    /// shared state must go through `davix_sync::{Atomic*, CheckedCell}`
    /// (or the vendored locks) so every edge is instrumented.
    SharedState,
    /// A malformed suppression: `allow` marker without a reason, or naming
    /// an unknown rule.
    BadAllow,
}

impl Rule {
    /// The name used in diagnostics and in `allow(<rule>)` markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::LockDiscipline => "lock-discipline",
            Rule::ThreadHygiene => "thread-hygiene",
            Rule::OneClient => "one-client",
            Rule::SharedState => "shared-state",
            Rule::BadAllow => "bad-allow",
        }
    }

    /// Parse a marker's rule name. `BadAllow` is deliberately absent: the
    /// marker police cannot be waved off.
    pub fn from_marker(name: &str) -> Option<Rule> {
        match name {
            "determinism" => Some(Rule::Determinism),
            "lock-discipline" => Some(Rule::LockDiscipline),
            "thread-hygiene" => Some(Rule::ThreadHygiene),
            "one-client" => Some(Rule::OneClient),
            "shared-state" => Some(Rule::SharedState),
            _ => None,
        }
    }
}

/// How strictly a file is linted, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Sim-reachable shipping code: every rule applies.
    Shipping,
    /// An integration test (`tests/` at the workspace root or under a
    /// crate). Tests run under `cargo test` process rules, so ambient time
    /// and stray threads are the author's business — but `lock-discipline`
    /// and `shared-state` apply in full: a test deadlocking the suite or
    /// smuggling unchecked shared state is no better than shipping code
    /// doing it.
    IntegrationTest,
}

/// Classify a workspace-relative path (with `/` separators). Lint fixtures
/// (a `fixtures/` segment) model shipping code and are always classified
/// [`FileKind::Shipping`], even though they live under a `tests/` tree —
/// they exist precisely to exercise the full rule set.
pub fn file_kind(rel_path: &str) -> FileKind {
    if rel_path.contains("/fixtures/") || rel_path.starts_with("fixtures/") {
        return FileKind::Shipping;
    }
    if rel_path.starts_with("tests/") || rel_path.contains("/tests/") {
        FileKind::IntegrationTest
    } else {
        FileKind::Shipping
    }
}

/// One diagnostic: rule, location, human-readable message.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub file: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    /// Rustc-style rendering: `error[rule]: message` + `--> file:line`.
    pub fn render(&self) -> String {
        format!("error[{}]: {}\n  --> {}:{}", self.rule.name(), self.message, self.file, self.line)
    }
}

// ---------------------------------------------------------------------------
// path allowlists
// ---------------------------------------------------------------------------

/// Modules allowed to spawn OS threads wholesale: the client I/O pool, the
/// reactor (shard threads) and the netsim scheduler (`SimNet::spawn`'s
/// registered threads) — thread creation is these modules' *purpose*. Individual
/// legitimate sites elsewhere (e.g. the real-TCP runtime shim) carry
/// per-site `allow` markers instead, so each one documents its reason.
const THREAD_ALLOW_FILES: &[&str] =
    &["crates/core/src/iopool.rs", "crates/netsim/src/reactor.rs", "crates/netsim/src/sim.rs"];

/// Sources whose every thread comes from one sanctioned site, so that any
/// `.spawn(..)` or `.spawn_joinable(..)` in them is a thread-hygiene
/// finding too, with what to do instead. Every thread the client starts
/// for I/O is an `IoPool` worker, so `Config::io_threads` bounds them all
/// (`iopool.rs` itself is allowed wholesale); every server thread is a
/// reactor shard or an accept thread of `netsim::ServerCore`.
const ONE_SPAWN_SITE: &[(&str, &str)] = &[
    ("crates/core/src/", CLIENT_SPAWN),
    ("crates/httpd/src/", SERVER_SPAWN),
    ("crates/xrdlite/src/server.rs", SERVER_SPAWN),
];
const CLIENT_SPAWN: &str = "`.spawn(..)` in the client outside `IoPool` — `Config::io_threads` \
    bounds only pool workers; run the work as a pool job or an `iopool` batch";
const SERVER_SPAWN: &str = "`.spawn(..)` in a server — its threads are the reactor shards and \
    accept threads of `netsim::ServerCore`; make the work a `Driven` task or a timer";

const HAND_PARSED: &str = "a response head parsed by hand — a second HTTP client; drive \
    `davix::Exchange` (and `BodyFraming` for the body) on the stream instead";

/// The crates that speak HTTP/1.1 for everyone else: the wire codec, the
/// client (whose `Exchange` every other client drives) and the server.
const HTTP_CRATES: &[&str] = &["crates/httpwire/", "crates/core/", "crates/httpd/"];

/// Functions outside [`HTTP_CRATES`] that may parse a response head
/// themselves, by file and name: fig7's slowloris attacker checks the `408`
/// that evicts it, a response no client request gets.
const HEAD_PARSE_ALLOW: &[(&str, &str)] =
    &[("crates/bench/src/bin/fig7_c10k.rs", "evicted_with_408")];

/// Bench and CLI binaries are real-time programs (they report wall time and
/// talk to terminals); every determinism/thread rule is waived there.
const REALTIME_PREFIXES: &[&str] = &["crates/bench/src/", "crates/cli/src/"];

/// The one place bare `std::sync::atomic` / `UnsafeCell` is the point:
/// `davix-sync` *is* the shim everything else must use, so the rule that
/// bans bare primitives cannot apply to the crate that wraps them.
const SHARED_STATE_ALLOW_PREFIXES: &[&str] = &["crates/sync/"];

fn path_allowed(rule: Rule, rel_path: &str) -> bool {
    let whole_file = match rule {
        Rule::Determinism => false,
        Rule::ThreadHygiene => THREAD_ALLOW_FILES.contains(&rel_path),
        Rule::SharedState => {
            return SHARED_STATE_ALLOW_PREFIXES.iter().any(|p| rel_path.starts_with(p))
                || REALTIME_PREFIXES.iter().any(|p| rel_path.starts_with(p));
        }
        _ => return false,
    };
    whole_file || REALTIME_PREFIXES.iter().any(|p| rel_path.starts_with(p))
}

// ---------------------------------------------------------------------------
// lint driver
// ---------------------------------------------------------------------------

/// Lint one file's source in isolation (no call graph): the single-file
/// mode of the CLI and the unit tests. `rel_path` is the path relative to
/// the workspace root with `/` separators — it selects the path allowlists
/// and the [`FileKind`].
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    lint_scanned(rel_path, &scan(src), None)
}

/// Lint an already-scanned file, optionally with the workspace
/// [`CallGraph`] enabling the interprocedural `lock-discipline` check.
pub fn lint_scanned(rel_path: &str, scanned: &Scanned, graph: Option<&CallGraph>) -> Vec<Finding> {
    let kind = file_kind(rel_path);
    let mut ctx = Ctx::new(rel_path, scanned);
    ctx.validate_markers();
    let skip = test_mod_ranges(&scanned.tokens);
    // Integration tests run under `cargo test` process rules: ambient time,
    // randomness and threads are relaxed there. Lock discipline and
    // shared-state hygiene are not — see [`FileKind::IntegrationTest`].
    if kind == FileKind::Shipping {
        if !path_allowed(Rule::Determinism, rel_path) {
            ctx.determinism(&skip);
        }
        if !path_allowed(Rule::ThreadHygiene, rel_path) {
            ctx.thread_hygiene(&skip);
        }
        if !HTTP_CRATES.iter().any(|p| rel_path.starts_with(p)) {
            ctx.one_client(&skip);
        }
    }
    if !path_allowed(Rule::SharedState, rel_path) {
        ctx.shared_state(&skip);
    }
    ctx.lock_discipline(&skip, graph);
    ctx.findings.sort_by_key(|f| f.line);
    ctx.findings
}

struct Ctx<'a> {
    rel_path: &'a str,
    tokens: &'a [Token],
    markers: &'a [AllowMarker],
    findings: Vec<Finding>,
}

impl<'a> Ctx<'a> {
    fn new(rel_path: &'a str, scanned: &'a Scanned) -> Self {
        Ctx { rel_path, tokens: &scanned.tokens, markers: &scanned.markers, findings: Vec::new() }
    }

    fn emit(&mut self, rule: Rule, line: u32, message: String) {
        self.findings.push(Finding { rule, file: self.rel_path.to_string(), line, message });
    }

    /// A finding at `line` is suppressed when a well-formed marker for its
    /// rule sits on the same line or the line directly above.
    fn suppressed(&self, rule: Rule, line: u32) -> bool {
        self.markers.iter().any(|m| {
            !m.reason.is_empty()
                && Rule::from_marker(&m.rule) == Some(rule)
                && (m.line == line || m.line + 1 == line)
        })
    }

    fn emit_unless_allowed(&mut self, rule: Rule, line: u32, message: String) {
        if !self.suppressed(rule, line) {
            self.emit(rule, line, message);
        }
    }

    /// The marker police: every marker must carry a reason and name a real
    /// rule. This is what turns "exemptions" into documentation.
    fn validate_markers(&mut self) {
        for m in self.markers {
            if Rule::from_marker(&m.rule).is_none() {
                self.emit(
                    Rule::BadAllow,
                    m.line,
                    format!(
                        "allow marker names unknown rule `{}` (known: determinism, \
                         lock-discipline, thread-hygiene, one-client, shared-state)",
                        m.rule
                    ),
                );
            } else if m.reason.is_empty() {
                self.emit(
                    Rule::BadAllow,
                    m.line,
                    format!(
                        "allow({}) marker has no reason — write \
                         `// davix-lint: allow({}) — <why this site is exempt>`",
                        m.rule, m.rule
                    ),
                );
            }
        }
    }

    // -- determinism --------------------------------------------------------

    fn determinism(&mut self, skip: &[(usize, usize)]) {
        let toks = self.tokens;
        for i in 0..toks.len() {
            if in_ranges(i, skip) {
                continue;
            }
            let line = toks[i].line;
            if let Some(what) = match path3(toks, i) {
                Some(("Instant", "now")) => Some("`Instant::now()` reads the wall clock"),
                Some(("SystemTime", "now")) => Some("`SystemTime::now()` reads the wall clock"),
                Some(("thread", "sleep")) => Some("`thread::sleep` blocks on real time"),
                Some(("rand", "thread_rng")) => Some("`rand::thread_rng()` is seeded ambiently"),
                Some(("rand", "random")) => Some("`rand::random()` is seeded ambiently"),
                // Bare `thread_rng` (e.g. `use rand::thread_rng;` then a
                // call) — unless the `rand::thread_rng` pattern already
                // matched one token earlier.
                _ if toks[i].is_ident("thread_rng")
                    && path3(toks, i.wrapping_sub(2)) != Some(("rand", "thread_rng")) =>
                {
                    Some("`thread_rng()` is seeded ambiently")
                }
                _ => None,
            } {
                self.emit_unless_allowed(
                    Rule::Determinism,
                    line,
                    format!(
                        "{what} — sim-reachable code must use virtual time \
                         (`Runtime`/`SimNet`) or a seeded RNG"
                    ),
                );
            }
        }
    }

    // -- thread hygiene -----------------------------------------------------

    fn thread_hygiene(&mut self, skip: &[(usize, usize)]) {
        let toks = self.tokens;
        let spawn_message =
            ONE_SPAWN_SITE.iter().find(|(p, _)| self.rel_path.starts_with(p)).map(|&(_, m)| m);
        for i in 0..toks.len() {
            if in_ranges(i, skip) {
                continue;
            }
            let message = match (path3(toks, i), spawn_message) {
                (Some(("thread", "spawn")), _) => stray_thread("`thread::spawn`"),
                (Some(("thread", "Builder")), _) => stray_thread("`thread::Builder`"),
                (_, Some(message))
                    if is_method_call(toks, i, "spawn")
                        || is_method_call(toks, i, "spawn_joinable") =>
                {
                    message.to_string()
                }
                _ => continue,
            };
            self.emit_unless_allowed(Rule::ThreadHygiene, toks[i].line, message);
        }
    }

    // -- one client ---------------------------------------------------------

    fn one_client(&mut self, skip: &[(usize, usize)]) {
        let toks = self.tokens;
        let mut within = ""; // the function being read: the last `fn name`
        for i in 1..toks.len() {
            if toks[i - 1].is_ident("fn") {
                within = &toks[i].text;
            } else if toks[i].is_ident("parse_response_head")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                && !in_ranges(i, skip)
                && !HEAD_PARSE_ALLOW.contains(&(self.rel_path, within))
            {
                self.emit_unless_allowed(Rule::OneClient, toks[i].line, HAND_PARSED.to_string());
            }
        }
    }

    // -- shared state -------------------------------------------------------

    /// Bare shared-mutable-state primitives outside the `davix-sync` shim:
    /// a `std::sync::atomic` path, `static mut`, or `UnsafeCell`. Each one
    /// is invisible to the `race-detect` sanitizer (its edges and checks
    /// live in the shim), so using them bare re-opens exactly the holes the
    /// detector exists to close.
    fn shared_state(&mut self, skip: &[(usize, usize)]) {
        let toks = self.tokens;
        for i in 0..toks.len() {
            if in_ranges(i, skip) {
                continue;
            }
            let t = &toks[i];
            let what = if path3(toks, i) == Some(("sync", "atomic")) {
                "bare `std::sync::atomic` — use the `davix_sync` shim (`AtomicU64`, \
                 `AtomicBool`, …) so the race detector sees the ordering edges"
            } else if t.is_ident("static") && toks.get(i + 1).is_some_and(|n| n.is_ident("mut")) {
                "`static mut` is unsynchronized shared state — use a `davix_sync` atomic, \
                 `CheckedCell`, or a lock"
            } else if t.is_ident("UnsafeCell") {
                "bare `UnsafeCell` shared state — use `davix_sync::CheckedCell` so every \
                 access is race-checked"
            } else {
                continue;
            };
            self.emit_unless_allowed(Rule::SharedState, t.line, what.to_string());
        }
    }

    // -- lock discipline ----------------------------------------------------

    fn lock_discipline(&mut self, skip: &[(usize, usize)], graph: Option<&CallGraph>) {
        let toks = self.tokens;
        let mut depth: i32 = 0;
        let mut guards: Vec<GuardBinding> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            if in_ranges(i, skip) {
                i += 1;
                continue;
            }
            let t = &toks[i];
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            } else if t.is_ident("drop")
                && toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                && toks.get(i + 3).is_some_and(|t| t.is_punct(")"))
            {
                if let Some(name) = toks.get(i + 2).filter(|t| t.kind == TokKind::Ident) {
                    if let Some(pos) = guards.iter().rposition(|g| g.name == name.text) {
                        guards.remove(pos);
                    }
                }
            } else if t.is_ident("let") {
                if let Some(binding) = guard_binding(toks, i, depth) {
                    guards.push(binding);
                }
            } else if let Some(blocking) = classify_call(toks, i, graph) {
                let args_end = matching_paren(toks, i + 1);
                let live: Vec<&GuardBinding> =
                    guards.iter().filter(|g| g.active_after < i && g.depth <= depth).collect();
                // Condvar-style handoff: passing the guard into the call
                // (`cv.wait(&mut st)`) releases the lock for the duration —
                // that is the sanctioned way to block, not a violation.
                let handed_off =
                    live.iter().any(|g| (i + 2..args_end).any(|a| is_handoff(toks, a, &g.name)));
                if let (Some(g), false) = (live.first(), handed_off) {
                    let (gname, gline) = (g.name.clone(), g.line);
                    let line = t.line;
                    let msg = match blocking {
                        BlockingCall::Primitive(callee) => format!(
                            "`{callee}` may block while lock guard `{gname}` (bound on line \
                             {gline}) is still held — release the guard before blocking, or \
                             hand it to the wait"
                        ),
                        BlockingCall::Transitive(chain) => format!(
                            "`{}` transitively blocks ({}) while lock guard `{gname}` (bound \
                             on line {gline}) is still held — release the guard before the \
                             call",
                            chain[0],
                            chain.join(" -> "),
                        ),
                    };
                    if !self.suppressed(Rule::LockDiscipline, line)
                        && !self.suppressed(Rule::LockDiscipline, gline)
                    {
                        self.emit(Rule::LockDiscipline, line, msg);
                    }
                }
                i = args_end.max(i + 1);
                continue;
            }
            i += 1;
        }
    }
}

fn stray_thread(what: &str) -> String {
    format!(
        "{what} outside the sanctioned spawn sites (IoPool, Reactor, netsim scheduler) — stray \
         threads break the sim thread census"
    )
}

/// Is `toks[i]` the `.` of a `.name(` method call?
fn is_method_call(toks: &[Token], i: usize, name: &str) -> bool {
    toks[i].is_punct(".")
        && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
        && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
}

/// Is `toks[a]` the guard `name` passed whole — `name`, `&name` or
/// `&mut name` as one argument? Only then does the callee get the guard to
/// release. `*name`, `name.field` and `name[..]` merely read through it
/// while the lock stays held across the call.
fn is_handoff(toks: &[Token], a: usize, name: &str) -> bool {
    let mut before = a - 1;
    if toks[before].is_ident("mut") {
        before -= 1;
    }
    if toks[before].is_punct("&") {
        before -= 1;
    }
    toks[a].is_ident(name)
        && (toks[before].is_punct("(") || toks[before].is_punct(","))
        && (toks[a + 1].is_punct(")") || toks[a + 1].is_punct(","))
}

/// What makes a call site dangerous under a held guard.
enum BlockingCall<'g> {
    /// A known-blocking primitive (`wait`, `connect`, argful `read`, …).
    Primitive(String),
    /// A workspace function the [`CallGraph`] proved transitively blocking;
    /// the witness chain ends at the primitive.
    Transitive(&'g [String]),
}

/// Classify `toks[i]` as a blocking call: primitives first (they carry
/// their own zero-arg disambiguation), then the call graph's transitive
/// verdicts for plain `name(..)` / `.name(..)` call sites.
fn classify_call<'g>(
    toks: &[Token],
    i: usize,
    graph: Option<&'g CallGraph>,
) -> Option<BlockingCall<'g>> {
    if let Some(callee) = blocking_call(toks, i) {
        return Some(BlockingCall::Primitive(callee));
    }
    let g = graph?;
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident || !toks.get(i + 1)?.is_punct("(") {
        return None;
    }
    if i > 0 && toks[i - 1].is_ident("fn") {
        return None; // definition, not a call
    }
    g.blocking_chain(&t.text).map(BlockingCall::Transitive)
}

/// A `let`-bound lock guard that is still in scope.
struct GuardBinding {
    name: String,
    /// Brace depth the binding lives at; dies when the block closes.
    depth: i32,
    /// Source line of the `let`.
    line: u32,
    /// Token index where the binding's initializer ends: the guard is only
    /// "held" for tokens after this (calls *inside* the initializer run
    /// before the lock is taken).
    active_after: usize,
}

/// Matches `seg :: name` ending at index `i` — i.e. `toks[i]`/`[i+1]`/`[i+2]`
/// are `Ident(seg)`, `::`, `Ident(name)`. Returns the two segment names.
fn path3(toks: &[Token], i: usize) -> Option<(&str, &str)> {
    let a = toks.get(i)?;
    let sep = toks.get(i + 1)?;
    let b = toks.get(i + 2)?;
    if a.kind == TokKind::Ident && sep.is_punct("::") && b.kind == TokKind::Ident {
        Some((a.text.as_str(), b.text.as_str()))
    } else {
        None
    }
}

pub(crate) fn in_ranges(i: usize, ranges: &[(usize, usize)]) -> bool {
    ranges.iter().any(|&(s, e)| i >= s && i < e)
}

/// Token ranges of `#[cfg(test)] mod … { … }` bodies. Unit-test modules run
/// under `cargo test` process rules, not sim rules — `thread::spawn` or a
/// real sleep in a unit test is the test author's business.
pub(crate) fn test_mod_ranges(toks: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let is_cfg_test = toks[i].is_punct("#")
            && toks[i + 1].is_punct("[")
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct("(")
            && {
                // Anything up to the attribute's `]` mentioning `test`.
                let mut j = i + 4;
                let mut seen_test = false;
                while j < toks.len() && !toks[j].is_punct("]") {
                    if toks[j].is_ident("test") {
                        seen_test = true;
                    }
                    j += 1;
                }
                seen_test
            };
        if is_cfg_test {
            // Find `mod` within the next few tokens (allowing visibility
            // qualifiers), then its opening brace.
            let attr_end = (i..toks.len()).find(|&j| toks[j].is_punct("]")).unwrap_or(i);
            let mut j = attr_end + 1;
            let mut is_mod = false;
            while j < toks.len() && j <= attr_end + 6 {
                if toks[j].is_ident("mod") {
                    is_mod = true;
                }
                if toks[j].is_punct("{") || toks[j].is_punct(";") {
                    break;
                }
                j += 1;
            }
            if is_mod && j < toks.len() && toks[j].is_punct("{") {
                let mut d = 0i32;
                let start = j;
                while j < toks.len() {
                    if toks[j].is_punct("{") {
                        d += 1;
                    } else if toks[j].is_punct("}") {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                out.push((start, j + 1));
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Is `toks[i]` a plain `=` assignment (not `==`, `<=`, `=>` …)?
fn is_plain_assign(toks: &[Token], i: usize) -> bool {
    if !toks[i].is_punct("=") {
        return false;
    }
    let prev_op = toks.get(i.wrapping_sub(1)).map(|t| {
        t.kind == TokKind::Punct
            && matches!(
                t.text.as_str(),
                "=" | "<" | ">" | "!" | "+" | "-" | "*" | "/" | "%" | "^" | "&" | "|"
            )
    });
    let next_eq = toks.get(i + 1).map(|t| t.is_punct("=") || t.is_punct(">"));
    prev_op != Some(true) && next_eq != Some(true)
}

/// Index just past the `)` matching the `(` at `open`. Falls back to `open`
/// when the stream is malformed.
fn matching_paren(toks: &[Token], open: usize) -> usize {
    let mut d = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            d += 1;
        } else if t.is_punct(")") {
            d -= 1;
            if d == 0 {
                return j + 1;
            }
        }
    }
    open
}

/// Guard-producing terminal calls: zero-arg `.lock()`, `.read()`,
/// `.write()` and their `try_` variants.
pub(crate) const GUARD_CALLS: &[&str] =
    &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Inspect a `let` statement starting at `toks[i]`. Returns a binding when
/// the initializer's *last* chained call produces a lock guard.
fn guard_binding(toks: &[Token], let_idx: usize, depth: i32) -> Option<GuardBinding> {
    // Pattern: idents up to the first plain `=` (skipping a `: Type`
    // annotation). The first pattern ident that isn't `mut`/`ref` names the
    // binding — good enough for `let g`, `let mut g`, `let Some(g)`.
    let mut j = let_idx + 1;
    let mut name: Option<(String, u32)> = None;
    let mut in_type = false;
    while j < toks.len() && !is_plain_assign(toks, j) {
        let t = &toks[j];
        if t.is_punct(";") || t.is_punct("{") {
            return None; // `let x;` or something unexpected
        }
        if t.is_punct(":") {
            in_type = true;
        }
        if !in_type
            && name.is_none()
            && t.kind == TokKind::Ident
            && !matches!(t.text.as_str(), "mut" | "ref" | "box" | "Some" | "Ok")
        {
            name = Some((t.text.clone(), t.line));
        }
        j += 1;
    }
    let (name, line) = name?;
    let eq = j;
    // Initializer: scan to the terminating `;` at delimiter depth 0, or a
    // block `{` at depth 0 (`if let` / `while let` / `match`). Record the
    // name of every chained method call (`.name(`), keeping the last.
    let mut d = 0i32;
    let mut last_call: Vec<String> = Vec::new();
    let mut j = eq + 1;
    let mut body_scoped = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "(" | "[" if t.kind == TokKind::Punct => d += 1,
            ")" | "]" if t.kind == TokKind::Punct => d -= 1,
            "{" if t.kind == TokKind::Punct && d == 0 => {
                body_scoped = true; // if-let style: scope is the block
                break;
            }
            "{" if t.kind == TokKind::Punct => d += 1,
            "}" if t.kind == TokKind::Punct => d -= 1,
            ";" if t.kind == TokKind::Punct && d == 0 => break,
            _ => {
                if t.kind == TokKind::Ident
                    && d == 0
                    && j > eq + 1
                    && toks[j - 1].is_punct(".")
                    && toks.get(j + 1).is_some_and(|n| n.is_punct("("))
                {
                    last_call.push(t.text.clone());
                }
            }
        }
        j += 1;
    }
    let produces_guard = match last_call.as_slice() {
        [.., last] if GUARD_CALLS.contains(&last.as_str()) => {
            // Zero-arg check: `.read(buf)` is I/O, `.read()` is a lock.
            true
        }
        [.., prev, last]
            if matches!(last.as_str(), "unwrap" | "expect")
                && GUARD_CALLS.contains(&prev.as_str()) =>
        {
            true
        }
        _ => false,
    };
    if !produces_guard {
        return None;
    }
    // Re-verify the terminal guard call really has zero args (find the last
    // `.call(` occurrence and peek inside), and that the statement *binds*
    // the guard rather than reading through a temporary: in
    // `let n = self.progress.lock().failures;` the guard dies at the end of
    // the statement — only `.unwrap()` / `.expect(..)` may follow the call.
    let zero_arg = {
        let mut ok = false;
        for k in (eq + 1)..j {
            if toks[k].kind == TokKind::Ident
                && GUARD_CALLS.contains(&toks[k].text.as_str())
                && k > 0
                && toks[k - 1].is_punct(".")
                && toks.get(k + 1).is_some_and(|n| n.is_punct("("))
            {
                ok = toks.get(k + 2).is_some_and(|n| n.is_punct(")"))
                    && only_unwraps_follow(toks, k + 3, j);
            }
        }
        ok
    };
    if !zero_arg {
        return None;
    }
    Some(GuardBinding {
        name,
        depth: if body_scoped { depth + 1 } else { depth },
        line,
        active_after: j,
    })
}

/// True when `toks[i..end]` is nothing but `.unwrap()` / `.expect(..)`
/// chains — i.e. the statement binds the guard itself. Anything else (a
/// field access, a further method call) reads through a temporary guard
/// that is dropped at the end of the statement, so nothing stays held.
fn only_unwraps_follow(toks: &[Token], mut i: usize, end: usize) -> bool {
    while i < end {
        if !toks[i].is_punct(".") {
            return false;
        }
        let named_unwrap =
            toks.get(i + 1).is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect"));
        if !named_unwrap || !toks.get(i + 2).is_some_and(|t| t.is_punct("(")) {
            return false;
        }
        i = matching_paren(toks, i + 2);
    }
    true
}

/// Names that block regardless of argument count (waits, parks, joins,
/// connects, the executor entry points).
pub(crate) fn blocking_name_any_args(name: &str) -> bool {
    matches!(
        name,
        "wait"
            | "wait_for"
            | "wait_until"
            | "wait_timeout"
            | "wait_take"
            | "wait_clone"
            | "park"
            | "park_timeout"
            | "join"
            | "recv"
            | "recv_timeout"
            | "connect"
            | "accept"
            | "sleep"
    ) || name.starts_with("execute")
}

/// Names that block only when called *with* arguments: zero-arg
/// `.read()`/`.write()` are RwLock acquisitions, argful ones are I/O.
pub(crate) fn blocking_name_with_args(name: &str) -> bool {
    matches!(
        name,
        "read"
            | "write"
            | "read_exact"
            | "read_to_end"
            | "read_vectored"
            | "write_all"
            | "write_vectored"
    )
}

/// Calls that can block the thread. `read`/`write` count only with a
/// non-empty argument list (zero-arg `.read()`/`.write()` are lock
/// acquisitions, not I/O).
pub(crate) fn blocking_call(toks: &[Token], i: usize) -> Option<String> {
    let t = toks.get(i)?;
    if t.kind != TokKind::Ident || !toks.get(i + 1)?.is_punct("(") {
        return None;
    }
    // `fn wait(...)` is a definition, not a call.
    if i > 0 && toks[i - 1].is_ident("fn") {
        return None;
    }
    let name = t.text.as_str();
    if blocking_name_any_args(name) {
        return Some(name.to_string());
    }
    if blocking_name_with_args(name) && !toks.get(i + 2)?.is_punct(")") {
        return Some(name.to_string());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Finding> {
        lint_source("crates/fake/src/code.rs", src)
    }

    #[test]
    fn instant_now_is_flagged() {
        let f = lint("fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Determinism);
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn allow_marker_with_reason_suppresses() {
        let f = lint(
            "fn f() {\n    // davix-lint: allow(determinism) — bench wall time\n    \
             let t = Instant::now();\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_marker_without_reason_is_its_own_finding() {
        let f = lint("// davix-lint: allow(determinism)\nfn f() { let t = Instant::now(); }");
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|f| f.rule == Rule::BadAllow));
        assert!(f.iter().any(|f| f.rule == Rule::Determinism), "reasonless marker is void");
    }

    #[test]
    fn unknown_rule_in_marker_is_flagged() {
        let f = lint("// davix-lint: allow(everything) — please\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::BadAllow);
    }

    #[test]
    fn allowlisted_paths_are_clean() {
        let f = lint_source("crates/bench/src/bin/fig9.rs", "fn f() { let t = Instant::now(); }");
        assert!(f.is_empty(), "{f:?}");
        let f = lint_source("crates/cli/src/main.rs", "fn f() { std::thread::sleep(d); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn spawn_outside_sanctioned_sites_is_flagged() {
        let f = lint("fn f() { std::thread::spawn(|| {}); }");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::ThreadHygiene);
        let f = lint_source("crates/core/src/iopool.rs", "fn f() { std::thread::Builder::new(); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn guard_across_wait_is_flagged() {
        let f =
            lint("fn f(&self) {\n    let g = self.state.lock();\n    self.signal.wait(None);\n}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::LockDiscipline);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("`g`"));
    }

    #[test]
    fn condvar_handoff_is_clean() {
        let f = lint(
            "fn f(&self) {\n    let mut st = self.state.lock();\n    \
             self.cv.wait_for(&mut st, TIMEOUT);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn dropped_guard_is_clean() {
        let f = lint(
            "fn f(&self) {\n    let g = self.state.lock();\n    drop(g);\n    \
             self.signal.wait(None);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn block_scoped_guard_is_clean() {
        let f = lint(
            "fn f(&self) {\n    {\n        let g = self.state.lock();\n        g.touch();\n    \
             }\n    self.signal.wait(None);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lock_then_io_write_is_flagged() {
        let f =
            lint("fn f(&self) {\n    let g = self.q.lock();\n    self.stream.write_all(&buf);\n}");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::LockDiscipline);
    }

    #[test]
    fn chained_access_under_temporary_guard_is_not_a_binding() {
        // `map.lock().get(..)` releases the guard at end of statement.
        let f = lint(
            "fn f(&self) {\n    let v = self.map.lock().get(&k).cloned();\n    \
             self.signal.wait(None);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn rwlock_write_guard_is_tracked_and_rw_io_distinguished() {
        let f = lint(
            "fn f(&self) {\n    let g = self.table.write();\n    self.sock.read_exact(&mut b);\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        // Zero-arg `.write()` as terminal call was the guard; `read_exact`
        // with args was the blocking I/O.
        assert!(f[0].message.contains("read_exact"));
    }

    #[test]
    fn execute_prefix_is_blocking() {
        let f = lint(
            "fn f(&self) {\n    let g = self.pool.lock();\n    \
             self.executor.execute_streaming(req);\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("execute_streaming"));
    }

    #[test]
    fn initializer_calls_do_not_count_as_held() {
        // `connect` runs before the lock is acquired.
        let f = lint("fn f(&self) {\n    let g = self.pool.connect(addr).lock();\n}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn if_let_try_lock_scope_ends_with_block() {
        let f = lint(
            "fn f(&self) {\n    if let Some(g) = self.m.try_lock() {\n        g.touch();\n    \
             }\n    self.signal.wait(None);\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn cfg_test_modules_are_skipped() {
        let f = lint(
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); \
             let x = Instant::now(); }\n}\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn std_lock_unwrap_is_a_guard() {
        let f = lint(
            "fn f(&self) {\n    let g = self.m.lock().unwrap();\n    self.signal.wait(None);\n}",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::LockDiscipline);
    }

    #[test]
    fn findings_render_rustc_style() {
        let f = lint("fn f() { let t = Instant::now(); }");
        let r = f[0].render();
        assert!(r.starts_with("error[determinism]:"), "{r}");
        assert!(r.contains("--> crates/fake/src/code.rs:1"), "{r}");
    }
}
