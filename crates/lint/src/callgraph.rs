//! A workspace-level, name-based call graph for the interprocedural half
//! of the `lock-discipline` rule.
//!
//! The intra-function rule catches a guard held across a *direct* blocking
//! call (`sig.wait(..)` two lines under a `.lock()`), but the deadlocks
//! that actually bite hide one hop away: the guard is live across a call
//! to an innocent-looking helper whose body (or whose callee's body) does
//! the waiting. This module closes that hole with the same budget as the
//! rest of the linter — token streams, no name resolution:
//!
//! 1. every `fn name(..) { .. }` in the scanned file set becomes a node,
//!    keyed by its bare name (`#[cfg(test)]` modules are excluded, exactly
//!    as the per-file rules exclude them);
//! 2. a node whose body contains a direct blocking call (the same
//!    [`blocking-call`](crate::rules) set the intra-function rule uses) is
//!    a seed;
//! 3. blocking-ness propagates callee → caller to a fixpoint, carrying a
//!    **witness chain** (`flush → drain → wait`) so every finding explains
//!    *why* the callee is considered blocking.
//!
//! Name-based resolution deliberately over-approximates: two unrelated
//! functions sharing a name are merged, and a call through any of them
//! propagates. That errs toward false positives, which is the right
//! direction for a deny-by-default CI gate — each one is either a real
//! hazard or gets a documented `allow` marker. Two carve-outs keep the
//! over-approximation from swallowing the workspace:
//!
//! * names that *are* blocking primitives (`wait`, `read`, `connect`, …)
//!   never become graph nodes — call sites of those are the intra-function
//!   rule's business, with its own zero-arg/lock-vs-I/O disambiguation;
//! * a short stop-list of ubiquitous structural names (`new`, `clone`,
//!   `default`, `fmt`, `drop`, `from`) neither blocks nor propagates —
//!   treating every `T::new()` as a potential wait would make the graph
//!   all edges and no signal.

use crate::lexer::{Scanned, TokKind, Token};
use crate::rules::{blocking_name_any_args, blocking_name_with_args, test_mod_ranges, GUARD_CALLS};
use std::collections::HashMap;

/// Ubiquitous names excluded from the graph (neither nodes nor edges).
/// Two groups: structural/trait plumbing (`new`, `clone`, `fmt`, …) that
/// appears hundreds of times and would make every type "transitively
/// blocking" through one unfortunate impl; and names aliasing std
/// collection / `Option` / shim-atomic methods (`get`, `insert`, `push`,
/// `load`, `set`, …) — without type information, `map.get(k)` is
/// indistinguishable from a same-named workspace function that performs
/// I/O, and treating every such call as the latter flags the whole tree.
/// (`set` additionally aliases `Signal::set` and the reactor's wake-pipe
/// `set`, both nonblocking by design; `acquire`/`release` alias the
/// race-detect `SyncObj` edge instrumentation, which is *deliberately*
/// invoked while holding the lock it models; `finish` aliases
/// `DebugStruct::finish`/`Hasher::finish`.)
const STOP_NAMES: &[&str] = &[
    // structural / trait plumbing
    "new", "clone", "default", "fmt", "drop", "from", "into", "deref",
    // std-collection / Option / atomic-shim aliases
    "get", "set", "insert", "remove", "push", "pop", "contains", "collect", "drain", "expect",
    "unwrap", "peek", "next", "fill", "extend", "take", "load", "store", "len", "finish",
    // race-detect SyncObj edge instrumentation
    "acquire", "release",
];

/// One function definition found in the scanned files.
struct FnDef {
    name: String,
    /// Callee names invoked in the body, in source order, deduplicated.
    calls: Vec<String>,
    /// The blocking primitive directly called in the body, if any.
    direct: Option<String>,
}

/// The workspace call graph: for every function name that (transitively)
/// reaches a blocking primitive, the witness chain proving it.
#[derive(Default)]
pub(crate) struct CallGraph {
    /// `name → [name, …, primitive]`.
    blocking: HashMap<String, Vec<String>>,
}

impl CallGraph {
    /// Build the graph over a set of scanned files. Order matters only for
    /// witness-chain tie-breaks, so pass files in sorted-path order to keep
    /// diagnostics byte-stable.
    pub(crate) fn build<'a>(files: impl IntoIterator<Item = &'a Scanned>) -> CallGraph {
        let mut defs: Vec<FnDef> = Vec::new();
        for scanned in files {
            extract_fns(&scanned.tokens, &mut defs);
        }
        // Seed: directly-blocking functions.
        let mut blocking: HashMap<String, Vec<String>> = HashMap::new();
        for d in &defs {
            if let Some(prim) = &d.direct {
                blocking
                    .entry(d.name.clone())
                    .or_insert_with(|| vec![d.name.clone(), format!("{prim}(..)")]);
            }
        }
        // Fixpoint: callee → caller propagation with witness chains.
        loop {
            let mut changed = false;
            for d in &defs {
                if blocking.contains_key(&d.name) {
                    continue;
                }
                if let Some(chain) = d.calls.iter().find_map(|c| blocking.get(c)) {
                    let mut witness = Vec::with_capacity(chain.len() + 1);
                    witness.push(d.name.clone());
                    witness.extend(chain.iter().cloned());
                    blocking.insert(d.name.clone(), witness);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        CallGraph { blocking }
    }

    /// The witness chain for `callee` when it is transitively blocking
    /// (`[callee, …, primitive]`), `None` otherwise. Direct primitives are
    /// not in the graph — the intra-function rule owns those.
    pub(crate) fn blocking_chain(&self, callee: &str) -> Option<&[String]> {
        self.blocking.get(callee).map(Vec::as_slice)
    }
}

/// True for names the graph refuses to model (primitives own their own
/// rule; stop-list names are structural noise).
fn excluded_name(name: &str) -> bool {
    blocking_name_any_args(name)
        || blocking_name_with_args(name)
        || GUARD_CALLS.contains(&name)
        || STOP_NAMES.contains(&name)
        // `Pollable`'s gather write is non-blocking by contract like its
        // siblings `try_read`/`try_write` (guard-call names, out of the
        // graph already), but its socket implementation calls
        // `write_vectored(..)`, a blocking primitive by name.
        || name == "try_write_vectored"
}

/// Scan a token stream for `fn name(..) { body }` definitions and record
/// each one's callees and direct blocking calls.
fn extract_fns(toks: &[Token], out: &mut Vec<FnDef>) {
    let skip = test_mod_ranges(toks);
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn")
            && !crate::rules::in_ranges(i, &skip)
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            let name = toks[i + 1].text.clone();
            // Find the body `{` (or the `;` of a bodyless trait/extern
            // declaration) at bracket depth 0 past the signature.
            let mut j = i + 2;
            let mut depth = 0i32;
            let body_open = loop {
                match toks.get(j) {
                    None => break None,
                    Some(t) if t.is_punct("(") || t.is_punct("[") => depth += 1,
                    Some(t) if t.is_punct(")") || t.is_punct("]") => depth -= 1,
                    Some(t) if depth == 0 && t.is_punct("{") => break Some(j),
                    Some(t) if depth == 0 && t.is_punct(";") => break None,
                    _ => {}
                }
                j += 1;
            };
            let Some(open) = body_open else {
                i += 2;
                continue;
            };
            // Matching close brace.
            let mut d = 0i32;
            let mut k = open;
            while k < toks.len() {
                if toks[k].is_punct("{") {
                    d += 1;
                } else if toks[k].is_punct("}") {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            let body = &toks[open..k.min(toks.len())];
            if !excluded_name(&name) {
                out.push(scan_body(name, body));
            }
            // Continue *inside* the body too: nested fns get their own
            // nodes (the enclosing fn also sees their calls — a harmless
            // over-approximation in the flagging direction).
            i = open + 1;
            continue;
        }
        i += 1;
    }
}

/// Collect callee names and direct blocking calls from a body slice.
fn scan_body(name: String, body: &[Token]) -> FnDef {
    let mut calls: Vec<String> = Vec::new();
    let mut direct: Option<String> = None;
    for i in 0..body.len() {
        let t = &body[i];
        if t.kind != TokKind::Ident || !body.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        if i > 0 && body[i - 1].is_ident("fn") {
            continue; // nested definition, not a call
        }
        if direct.is_none() {
            if let Some(prim) = crate::rules::blocking_call(body, i) {
                direct = Some(prim);
                continue;
            }
        }
        let callee = t.text.as_str();
        if !excluded_name(callee) && !calls.iter().any(|c| c == callee) {
            calls.push(callee.to_string());
        }
    }
    FnDef { name, calls, direct }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn graph(srcs: &[&str]) -> CallGraph {
        let scanned: Vec<Scanned> = srcs.iter().map(|s| scan(s)).collect();
        CallGraph::build(scanned.iter())
    }

    #[test]
    fn direct_blocking_fn_is_seeded() {
        let g = graph(&["fn flush(&self) { self.sig.wait(None); }"]);
        let chain = g.blocking_chain("flush").expect("flush blocks");
        assert_eq!(chain, ["flush", "wait(..)"]);
    }

    #[test]
    fn blocking_propagates_across_files_with_witness() {
        let g = graph(&[
            "fn outer(&self) { self.middle(); }",
            "fn middle(&self) { helper_wait(); }",
            "fn helper_wait() { sig.wait(None); }",
        ]);
        assert_eq!(
            g.blocking_chain("outer").unwrap(),
            ["outer", "middle", "helper_wait", "wait(..)"]
        );
    }

    #[test]
    fn non_blocking_fn_is_absent() {
        let g = graph(&["fn calm(&self) { self.counter += 1; }"]);
        assert!(g.blocking_chain("calm").is_none());
        assert!(g.blocking.is_empty());
    }

    #[test]
    fn primitive_and_stop_names_never_become_nodes() {
        let g = graph(&[
            "fn wait(&self) { loop {} }",          // primitive name: excluded
            "fn new() -> Self { sig.wait(None) }", // stop name: excluded
        ]);
        assert!(g.blocking_chain("wait").is_none());
        assert!(g.blocking_chain("new").is_none());
    }

    #[test]
    fn zero_arg_read_does_not_seed() {
        // `.read()` with no args is a lock acquisition, not I/O.
        let g = graph(&["fn peek(&self) { let g = self.table.read(); g.len(); }"]);
        assert!(g.blocking_chain("peek").is_none());
    }

    #[test]
    fn cfg_test_mods_are_excluded() {
        let g = graph(&["#[cfg(test)]\nmod tests { fn t_helper() { sig.wait(None); } }\n\
                         fn caller() { t_helper(); }"]);
        assert!(g.blocking_chain("caller").is_none(), "test-mod fns must not propagate");
    }

    #[test]
    fn recursion_terminates() {
        let g = graph(&["fn a() { b(); }", "fn b() { a(); sig.wait(None); }"]);
        assert!(g.blocking_chain("a").is_some());
        assert!(g.blocking_chain("b").is_some());
    }
}
