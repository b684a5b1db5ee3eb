//! The SL2xx concurrency & determinism-provenance rules, plus the
//! serve-layer guard rules.
//!
//! Everything here runs over the semantic core (lexer → block tree →
//! symbols) rather than raw lines:
//!
//! | code  | finding |
//! |-------|---------|
//! | SL108, SL110–SL112 | a risky serve-layer call (blocking read, thread spawn, `catch_unwind`, entropy-estimate read) with no guard that dominates it within 3 lines |
//! | SL201 | lock pair acquired in both orders in `crates/serve` (deadlock) |
//! | SL202 | mutex guard held across a blocking call |
//! | SL203 | channel-topology audit: unbounded `channel()` in the serving layer; a `Sender` whose `Receiver` is provably dropped |
//! | SL204 | seed material in deterministic crates not derived from the `RngTree` |
//!
//! `scan_semantic` returns diagnostics *unfiltered* — the caller (the
//! crate root) applies inline `simlint: allow` directives, exactly as
//! for the SL1xx line rules — plus the raw lock
//! acquisition pairs so the workspace scanner can detect cross-file
//! order conflicts, and the set of lines the semantic SL107 pass
//! claimed (so the text fallback stays out of its way).

use crate::lexer::{match_delim, TokKind};
use crate::symbols::{normalize_receiver, Prov, Symbols};
use crate::tree::{FileTree, FnItem};
use crate::SourceDiagnostic;
use std::collections::BTreeSet;

/// One ordered lock acquisition observed while another lock was held:
/// `first` was live when `second` was acquired.
#[derive(Debug, Clone)]
pub struct LockPair {
    /// The lock already held.
    pub first: String,
    /// The lock acquired under it.
    pub second: String,
    /// File of the inner acquisition.
    pub path: String,
    /// 1-based line of the inner acquisition.
    pub line: usize,
}

/// The semantic pass's output for one file.
#[derive(Debug, Default)]
pub struct SemanticScan {
    /// SL107, guard-rule and SL202–SL204 findings (unfiltered).
    pub diagnostics: Vec<SourceDiagnostic>,
    /// Ordered lock pairs for the SL201 order-consistency check.
    pub lock_pairs: Vec<LockPair>,
    /// 1-based lines where receiver provenance settled `.join(` —
    /// the SL107 text fallback must skip these.
    pub sl107_claimed: BTreeSet<usize>,
}

/// Blocking calls SL202 refuses to see under a held mutex guard
/// (matched as whole method/function identifiers, so `recv_timeout`
/// is its own entry and never a substring accident).
const SL202_BLOCKING: [&str; 11] = [
    "recv",
    "recv_timeout",
    "accept",
    "read",
    "read_exact",
    "read_frame",
    "poll",
    "sleep",
    "wait",
    "park",
    "join",
];

/// A guard interval: lock `name` is held over tokens `[start, end)`;
/// `acq` is the acquisition token (excluded from "held" queries so an
/// acquisition never conflicts with itself).
struct Held {
    name: String,
    start: usize,
    end: usize,
    acq: usize,
    line: usize,
}

/// Runs every SL2xx rule, the guard rules and the provenance-aware
/// SL107 over one parsed file (`raw` is its source, one entry per
/// line). `deterministic` gates SL204; the serve-layer rules gate on
/// `path` themselves.
#[must_use]
pub fn scan_semantic(
    path: &str,
    tree: &FileTree,
    raw: &[&str],
    deterministic: bool,
) -> SemanticScan {
    let mut out = SemanticScan::default();
    let in_src = path.contains("/src/");
    let in_serve = path.starts_with("crates/serve/") && in_src;
    let in_det = deterministic && in_src;
    if !in_src {
        return out;
    }
    let guard_fns: BTreeSet<String> = tree
        .fns
        .iter()
        .filter(|f| f.ret.iter().any(|t| t == "MutexGuard"))
        .map(|f| f.name.clone())
        .collect();
    for (fi, f) in tree.fns.iter().enumerate() {
        if f.is_test || f.body.is_none() {
            continue;
        }
        // Token ranges of fns nested inside this one are walked on
        // their own turn; skip them here so nothing double-fires.
        let nested: Vec<(usize, usize)> = tree
            .fns
            .iter()
            .enumerate()
            .filter(|(gi, g)| *gi != fi && g.start > f.start && g.end <= f.end)
            .map(|(_, g)| (g.start, g.end))
            .collect();
        let skip = |idx: usize| nested.iter().any(|&(s, e)| idx >= s && idx <= e);
        let syms = Symbols::build(tree, f, &guard_fns);
        sl107_provenance(path, tree, f, &syms, &skip, &mut out);
        if in_serve {
            let held = lock_intervals(path, tree, f, &syms, &guard_fns, &skip, &mut out);
            sl202_guard_across_blocking(path, tree, f, &held, &skip, &mut out);
            sl203_channel_topology(path, tree, f, &syms, &skip, &mut out);
            guard_rules(path, tree, f, raw, &skip, &mut out);
        }
        if in_det {
            sl204_rng_provenance(path, tree, f, &syms, &skip, &mut out);
        }
    }
    out
}

/// Finds lock-order conflicts in a set of acquisition pairs: any two
/// locks acquired in both orders. Returns one diagnostic per
/// conflicting lock pair (anchored at the lexicographically first
/// site), tagged with its canonical `(min, max)` lock-name key so a
/// workspace-level rerun over merged pairs can skip conflicts already
/// reported per-file.
#[must_use]
pub fn lock_conflicts(pairs: &[LockPair]) -> Vec<(SourceDiagnostic, (String, String))> {
    let mut out = Vec::new();
    let mut keys = BTreeSet::new();
    let mut sorted: Vec<&LockPair> = pairs.iter().collect();
    sorted.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    for p in &sorted {
        let key = if p.first <= p.second {
            (p.first.clone(), p.second.clone())
        } else {
            (p.second.clone(), p.first.clone())
        };
        if keys.contains(&key) {
            continue;
        }
        let Some(rev) = sorted
            .iter()
            .find(|q| q.first == p.second && q.second == p.first)
        else {
            continue;
        };
        keys.insert(key.clone());
        let diag = SourceDiagnostic {
            code: "SL201",
            severity: "error",
            path: p.path.clone(),
            line: p.line,
            message: format!(
                "lock order conflict: `{}` is held while `{}` is acquired here, but \
                 {}:{} acquires `{}` under `{}` — inconsistent order across the \
                 work-stealing paths can deadlock; pick one order",
                p.first, p.second, rev.path, rev.line, rev.second, rev.first
            ),
        };
        out.push((diag, key));
    }
    out
}

/// The provenance-aware SL107: `.join()` on a known `JoinHandle`
/// followed by `unwrap`/`expect` fires (directly or via a bound
/// `JoinResult`); `.join(` on a known `Path` is claimed as clean. All
/// lines where provenance settled the question are recorded so the
/// text fallback skips them.
fn sl107_provenance(
    path: &str,
    tree: &FileTree,
    f: &FnItem,
    syms: &Symbols,
    skip: &dyn Fn(usize) -> bool,
    out: &mut SemanticScan,
) {
    let toks = &tree.toks;
    let fire = |line: usize, out: &mut SemanticScan| {
        out.diagnostics.push(SourceDiagnostic {
            code: "SL107",
            severity: "error",
            path: path.to_owned(),
            line,
            message: "bare unwrap/expect on JoinHandle::join: a worker panic loses its \
                      payload and origin; match the Err and re-panic with the payload \
                      plus shard/job context"
                .to_owned(),
        });
    };
    for k in f.start..=f.end.min(toks.len().saturating_sub(1)) {
        if skip(k) {
            continue;
        }
        let t = &toks[k];
        if t.is_ident("join") && k > 1 && toks[k - 1].is_punct(".") {
            let recv = &toks[k - 2];
            if recv.kind != TokKind::Ident {
                continue;
            }
            match syms.prov_at(&recv.text, k) {
                Some(Prov::PathLike) => {
                    // Path concatenation: provably not a thread join.
                    out.sl107_claimed.insert(t.line);
                }
                Some(Prov::JoinHandle) => {
                    out.sl107_claimed.insert(t.line);
                    let empty = toks.get(k + 1).is_some_and(|t| t.is_punct("("))
                        && toks.get(k + 2).is_some_and(|t| t.is_punct(")"));
                    let chained = empty
                        && toks.get(k + 3).is_some_and(|t| t.is_punct("."))
                        && toks
                            .get(k + 4)
                            .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"));
                    if chained {
                        fire(t.line, out);
                    }
                }
                _ => {}
            }
        }
        // A bound join Result unwrapped later: `let r = h.join();
        // ... r.unwrap()`.
        if t.kind == TokKind::Ident
            && syms.prov_at(&t.text, k) == Some(&Prov::JoinResult)
            && toks.get(k + 1).is_some_and(|t| t.is_punct("."))
            && toks
                .get(k + 2)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
        {
            out.sl107_claimed.insert(t.line);
            fire(t.line, out);
        }
    }
}

/// Collects every lock-guard liveness interval in `f` — scoped guards
/// from `let g = x.lock()...` (live until `drop(g)` or the end of the
/// defining block) and transient guards from expression-position
/// `.lock()` calls (live to the end of the statement) — and emits the
/// SL201 acquisition pairs along the way.
fn lock_intervals(
    path: &str,
    tree: &FileTree,
    f: &FnItem,
    syms: &Symbols,
    guard_fns: &BTreeSet<String>,
    skip: &dyn Fn(usize) -> bool,
    out: &mut SemanticScan,
) -> Vec<Held> {
    let toks = &tree.toks;
    let mut held: Vec<Held> = Vec::new();
    // Scoped guards from the symbol table.
    for b in &syms.bindings {
        let Prov::LockGuard(name) = &b.prov else {
            continue;
        };
        if b.def < f.start || name.is_empty() {
            continue; // parameters: lifetime unknown here
        }
        let block_end = tree
            .block_of(b.def)
            .map_or(f.end, |bl| tree.blocks[bl].close);
        let mut end = block_end.min(f.end);
        // An explicit `drop(g)` releases early.
        let mut j = b.stmt_end;
        while j + 3 <= f.end.min(toks.len().saturating_sub(1)) {
            if toks[j].is_ident("drop")
                && toks[j + 1].is_punct("(")
                && toks[j + 2].is_ident(&b.name)
                && toks[j + 3].is_punct(")")
            {
                end = j;
                break;
            }
            j += 1;
        }
        held.push(Held {
            name: name.clone(),
            start: b.stmt_end,
            end,
            acq: b.def,
            line: toks[b.def].line,
        });
    }
    // Transient guards: `.lock()` / guard-fn calls in expression
    // position (not inside a scoped binding's defining statement).
    let owned_by_binding = |idx: usize| {
        syms.bindings.iter().any(|b| {
            matches!(b.prov, Prov::LockGuard(_)) && idx >= b.def && idx < b.stmt_end
        })
    };
    let limit = f.end.min(toks.len().saturating_sub(1));
    for k in f.start..=limit {
        if skip(k) || owned_by_binding(k) {
            continue;
        }
        let t = &toks[k];
        let name = if t.is_ident("lock")
            && k > 0
            && toks[k - 1].is_punct(".")
            && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
        {
            normalize_receiver(&toks[f.start..k - 1])
        } else if t.kind == TokKind::Ident
            && guard_fns.contains(&t.text)
            && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
            && k > 0
            && (toks[k - 1].is_punct(".") || toks[k - 1].is_punct("::"))
        {
            format!("fn:{}", t.text)
        } else {
            continue;
        };
        if name.is_empty() {
            continue;
        }
        let mut end = k + 1;
        while end <= limit
            && !(toks[end].is_punct(";") || toks[end].is_punct("{") || toks[end].is_punct("}"))
        {
            end += 1;
        }
        held.push(Held {
            name,
            start: k,
            end,
            acq: k,
            line: t.line,
        });
    }
    // Acquisition-order pairs: at each acquisition, every other lock
    // already live contributes an ordered pair.
    let mut acqs: Vec<(usize, usize)> = held.iter().enumerate().map(|(i, h)| (h.acq, i)).collect();
    acqs.sort_unstable();
    for &(pos, i) in &acqs {
        for h in &held {
            if h.acq != pos
                && h.name != held[i].name
                && h.start <= pos
                && pos < h.end
                && tree.dominates(h.acq, pos)
            {
                out.lock_pairs.push(LockPair {
                    first: h.name.clone(),
                    second: held[i].name.clone(),
                    path: path.to_owned(),
                    line: held[i].line,
                });
            }
        }
    }
    held
}

/// SL202: a blocking call while a mutex guard is live.
fn sl202_guard_across_blocking(
    path: &str,
    tree: &FileTree,
    f: &FnItem,
    held: &[Held],
    skip: &dyn Fn(usize) -> bool,
    out: &mut SemanticScan,
) {
    let toks = &tree.toks;
    let limit = f.end.min(toks.len().saturating_sub(1));
    for k in f.start..=limit {
        if skip(k) {
            continue;
        }
        let t = &toks[k];
        if t.kind != TokKind::Ident || !SL202_BLOCKING.contains(&t.text.as_str()) {
            continue;
        }
        if !toks.get(k + 1).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        // `.join` only counts with an empty argument list (the
        // JoinHandle signature) — `path.join("x")` is concatenation.
        if t.text == "join" && !toks.get(k + 2).is_some_and(|t| t.is_punct(")")) {
            continue;
        }
        // `.lock()` chains name their own guard; skip tokens that sit
        // inside an acquisition's statement-claiming interval start.
        let Some(holder) = held.iter().find(|h| {
            h.acq != k && h.start <= k && k < h.end && tree.dominates(h.acq, k)
        }) else {
            continue;
        };
        out.diagnostics.push(SourceDiagnostic {
            code: "SL202",
            severity: "error",
            path: path.to_owned(),
            line: t.line,
            message: format!(
                "mutex guard `{}` (acquired line {}) is held across blocking `{}()`: \
                 drop the guard or narrow its scope before blocking, or every other \
                 thread contending for the lock stalls with it",
                holder.name, holder.line, t.text
            ),
        });
    }
}

/// SL203: channel-topology audit over the serving layer.
fn sl203_channel_topology(
    path: &str,
    tree: &FileTree,
    f: &FnItem,
    syms: &Symbols,
    skip: &dyn Fn(usize) -> bool,
    out: &mut SemanticScan,
) {
    let toks = &tree.toks;
    let limit = f.end.min(toks.len().saturating_sub(1));
    let used_after = |name: &str, from: usize| {
        (from..=limit).any(|k| !skip(k) && toks[k].is_ident(name))
    };
    for (i, b) in syms.bindings.iter().enumerate() {
        if b.def < f.start || b.def > f.end || skip(b.def) {
            continue;
        }
        if let Prov::Sender { bounded: false } = b.prov {
            out.diagnostics.push(SourceDiagnostic {
                code: "SL203",
                severity: "warning",
                path: path.to_owned(),
                line: toks[b.def].line,
                message: "unbounded mpsc::channel() in the serving layer: the \
                          backpressure contract is bounded queues end to end — use \
                          sync_channel with an explicit depth, or justify the \
                          unbounded edge inline"
                    .to_owned(),
            });
        }
        // A Sender whose Receiver is provably dropped: tuple-bound
        // `(tx, _)`, or an explicit `drop(rx)` with `tx` still used.
        let Prov::Sender { .. } = b.prov else {
            continue;
        };
        let Some(rx) = syms.bindings.get(i + 1).filter(|r| {
            r.stmt_end == b.stmt_end && matches!(r.prov, Prov::Receiver { .. })
        }) else {
            continue;
        };
        // `dropped_at` is the first token index past the point where
        // the Receiver is gone (stmt_end already points past the `;`).
        let dropped_at = if rx.name == "_" {
            Some(b.stmt_end)
        } else {
            (b.stmt_end..limit.saturating_sub(3))
                .find(|&j| {
                    !skip(j)
                        && toks[j].is_ident("drop")
                        && toks[j + 1].is_punct("(")
                        && toks[j + 2].is_ident(&rx.name)
                        && toks[j + 3].is_punct(")")
                })
                .map(|j| j + 4)
        };
        if let Some(at) = dropped_at {
            if used_after(&b.name, at) {
                out.diagnostics.push(SourceDiagnostic {
                    code: "SL203",
                    severity: "warning",
                    path: path.to_owned(),
                    line: toks[b.def].line,
                    message: format!(
                        "Sender `{}` outlives its dropped Receiver `{}`: every send \
                         on this channel fails; keep the receiver alive or delete \
                         the channel",
                        b.name, rx.name
                    ),
                });
            }
        }
    }
}

/// SL204: seed material fed to `seed_from_u64`/`from_seed` in a
/// deterministic crate must trace back to a seed value or the
/// `RngTree`. Constructor impls (`RngTree`, `SimRng`) are the
/// derivation machinery itself and exempt.
fn sl204_rng_provenance(
    path: &str,
    tree: &FileTree,
    f: &FnItem,
    syms: &Symbols,
    skip: &dyn Fn(usize) -> bool,
    out: &mut SemanticScan,
) {
    if matches!(f.impl_of.as_deref(), Some("RngTree" | "SimRng")) {
        return;
    }
    let toks = &tree.toks;
    let limit = f.end.min(toks.len().saturating_sub(1));
    for k in f.start..=limit {
        if skip(k) {
            continue;
        }
        let t = &toks[k];
        if t.kind != TokKind::Ident
            || t.text != "seed_from_u64" && t.text != "from_seed"
            || !toks.get(k + 1).is_some_and(|t| t.is_punct("("))
        {
            continue;
        }
        let close = match_delim(toks, k + 1);
        let args = &toks[k + 2..close.min(toks.len())];
        let derived = args.iter().any(|a| {
            a.kind == TokKind::Ident
                && (a.text.to_lowercase().contains("seed")
                    || a.text == "RngTree"
                    || a.text == "stream"
                    || a.text == "fork"
                    || a.text == "subtree"
                    || syms.prov_at(&a.text, k) == Some(&Prov::Seeded))
        });
        if !derived {
            out.diagnostics.push(SourceDiagnostic {
                code: "SL204",
                severity: "error",
                path: path.to_owned(),
                line: t.line,
                message: format!(
                    "`{}` seeded from a value with no seed provenance: derive seeds \
                     from the run seed or an RngTree stream so every result is \
                     reproducible from the root seed alone",
                    t.text
                ),
            });
        }
    }
}

/// How far above a risky call its guard may sit: on the call's line or
/// one of the `GUARD_WINDOW` lines before it.
const GUARD_WINDOW: usize = 3;

/// One serve-layer guard rule: the risky call shapes it looks for and
/// the guard words that excuse them.
struct GuardRule {
    code: &'static str,
    /// `(punct, ident)`: `ident(` preceded by `punct`, or by anything
    /// when `punct` is empty.
    calls: &'static [(&'static str, &'static str)],
    /// Lower-case guard words, matched case-insensitively.
    guards: &'static [&'static str],
    /// What the call is, and what the finding asks for.
    what: &'static str,
    advice: &'static str,
}

const GUARD_RULES: [GuardRule; 4] = [
    // strent-serve is a long-running daemon: a blocking read (channel
    // recv, socket accept, transport read, the crate's own frame
    // decoder) with no timeout, nonblocking setup or shutdown check
    // lets a silent peer or a dead worker pin a thread forever.
    GuardRule {
        code: "SL108",
        calls: &[
            (".", "recv"),
            (".", "accept"),
            (".", "read"),
            (".", "read_exact"),
            ("", "read_frame"),
        ],
        guards: &["timeout", "shutdown", "nonblocking", "try_recv", "deadline"],
        what: "blocking read",
        advice: "add a timeout/deadline, a nonblocking setup or a shutdown check",
    },
    // Connections are multiplexed by the event loop, so the only
    // threads the service may create are its named lifecycle threads
    // (pool workers, scheduler shards, the event loop), spawned at
    // startup — never one per connection.
    GuardRule {
        code: "SL110",
        calls: &[(".", "spawn"), ("::", "spawn")],
        guards: &[
            "worker",
            "scheduler",
            "shard",
            "event-loop",
            "event loop",
            "startup",
        ],
        what: "thread spawn",
        advice: "connections are multiplexed by the event loop, never given threads; \
                 name the worker/scheduler/shard/event-loop startup thread or say so",
    },
    // The only legitimate catch_unwind is a shard's quarantine
    // boundary: a caught panic that is not escalated (recorded, the
    // unit quarantined, its work refused typed) leaves a silently dead
    // unit.
    GuardRule {
        code: "SL111",
        calls: &[("", "catch_unwind")],
        guards: &["restart", "backoff", "escalat", "supervis", "resume"],
        what: "panic catch",
        advice: "escalate the panic at the quarantine boundary (record it, quarantine \
                 the unit, refuse its work typed) or say which discipline applies",
    },
    // An underfed estimator window is "no verdict yet", never zero
    // entropy: a consumer that conflates the two demotes every freshly
    // started or re-locked source for its empty window.
    GuardRule {
        code: "SL112",
        calls: &[(".", "entropy_rate"), ("", "markov_min_entropy")],
        guards: &["insufficientdata"],
        what: "entropy-estimate read",
        advice: "say how the underfed window (InsufficientData: \"no verdict yet\", \
                 never zero entropy) is handled",
    },
];

/// SL108/SL110/SL111/SL112: every risky call in a serve-layer function
/// needs a guard word that *dominates* it (same or enclosing block, no
/// later) *and* sits on its line or within [`GUARD_WINDOW`] lines above
/// it. Dominance alone lets any earlier identifier that happens to hold
/// a guard word (`worker_count`, `try_recv`) excuse every later call;
/// the window alone lets a guard in a sibling branch excuse a call it
/// does not govern.
fn guard_rules(
    path: &str,
    tree: &FileTree,
    f: &FnItem,
    raw: &[&str],
    skip: &dyn Fn(usize) -> bool,
    out: &mut SemanticScan,
) {
    let toks = &tree.toks;
    let limit = f.end.min(toks.len().saturating_sub(1));
    for k in f.start..=limit {
        let t = &toks[k];
        if skip(k) || t.kind != TokKind::Ident || !toks.get(k + 1).is_some_and(|p| p.is_punct("("))
        {
            continue;
        }
        let Some(rule) = GUARD_RULES.iter().find(|r| {
            r.calls.iter().any(|&(before, name)| {
                t.text == name && (before.is_empty() || k > 0 && toks[k - 1].is_punct(before))
            })
        }) else {
            continue;
        };
        if !guarded(tree, f, raw, skip, k, rule.guards) {
            out.diagnostics.push(SourceDiagnostic {
                code: rule.code,
                severity: "error",
                path: path.to_owned(),
                line: t.line,
                message: format!(
                    "{} `{}()` in the serving layer with no guard in scope: {} in the \
                     same or an enclosing block, on the call's line or the {GUARD_WINDOW} \
                     lines above it (a comment naming the guard counts)",
                    rule.what, t.text, rule.advice
                ),
            });
        }
    }
}

/// Whether a guard word excuses the call at token `call`. Guards are
/// identifier tokens (`set_nonblocking`, `shutdown`) or raw lines
/// (comments and string literals, e.g. thread names) placed in the tree
/// by line span; a line above the `fn` keyword (its doc comment) is
/// function scope.
fn guarded(
    tree: &FileTree,
    f: &FnItem,
    raw: &[&str],
    skip: &dyn Fn(usize) -> bool,
    call: usize,
    guards: &[&str],
) -> bool {
    let toks = &tree.toks;
    let line = toks[call].line;
    let first = line.saturating_sub(GUARD_WINDOW).max(1);
    let carries = |text: &str| {
        let lower = text.to_lowercase();
        guards.iter().any(|g| lower.contains(g))
    };
    // A token dominates even on a line that also opens a block, where
    // the raw line would be placed in the inner block.
    let by_token = (f.start..=call)
        .rev()
        .take_while(|&g| toks[g].line >= first)
        .any(|g| {
            !skip(g)
                && toks[g].kind == TokKind::Ident
                && carries(&toks[g].text)
                && tree.dominates(g, call)
        });
    by_token
        || (first..=line).any(|ln| {
            raw.get(ln - 1).is_some_and(|l| carries(l))
                && tree.is_ancestor_or_self(tree.block_at_line(ln), tree.block_of(call))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn semantic(path: &str, source: &str, deterministic: bool) -> SemanticScan {
        let raw: Vec<&str> = source.lines().collect();
        scan_semantic(
            path,
            &FileTree::parse(&crate::strip_source(source)),
            &raw,
            deterministic,
        )
    }

    fn serve_scan(source: &str) -> SemanticScan {
        semantic("crates/serve/src/x.rs", source, false)
    }

    fn codes(scan: &SemanticScan) -> Vec<&'static str> {
        scan.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn sl201_flags_opposite_lock_orders() {
        let scan = serve_scan(
            "fn push(a: &M, b: &M) {\n    let ga = a.lock().unwrap();\n    let gb = b.lock().unwrap();\n}\nfn steal(a: &M, b: &M) {\n    let gb = b.lock().unwrap();\n    let ga = a.lock().unwrap();\n}\n",
        );
        let conflicts = lock_conflicts(&scan.lock_pairs);
        assert_eq!(conflicts.len(), 1, "{conflicts:?}");
        assert_eq!(conflicts[0].0.code, "SL201");
        assert_eq!(conflicts[0].1, ("a".to_owned(), "b".to_owned()));
        // A consistent order is clean.
        let ordered = serve_scan(
            "fn push(a: &M, b: &M) {\n    let ga = a.lock().unwrap();\n    let gb = b.lock().unwrap();\n}\nfn steal(a: &M, b: &M) {\n    let ga = a.lock().unwrap();\n    let gb = b.lock().unwrap();\n}\n",
        );
        assert!(lock_conflicts(&ordered.lock_pairs).is_empty());
    }

    #[test]
    fn sl202_fires_on_recv_under_a_guard_and_respects_drop() {
        let scan = serve_scan(
            "fn f(q: &M, rx: &Rx) {\n    let g = q.lock().unwrap();\n    let msg = rx.recv_timeout(TICK);\n}\n",
        );
        assert_eq!(codes(&scan), ["SL202"], "{:?}", scan.diagnostics);
        let dropped = serve_scan(
            "fn f(q: &M, rx: &Rx) {\n    let g = q.lock().unwrap();\n    drop(g);\n    let msg = rx.recv_timeout(TICK);\n}\n",
        );
        assert!(codes(&dropped).is_empty(), "{:?}", dropped.diagnostics);
        let parked = serve_scan(
            "fn f(q: &M) {\n    let g = q.lock().unwrap();\n    thread::park();\n}\n",
        );
        assert_eq!(codes(&parked), ["SL202"], "{:?}", parked.diagnostics);
    }

    #[test]
    fn sl203_flags_unbounded_channels_and_dropped_receivers() {
        let scan = serve_scan(
            "fn f() {\n    let (tx, _) = mpsc::channel::<u8>();\n    tx.send(1).ok();\n}\n",
        );
        let c = codes(&scan);
        assert!(c.contains(&"SL203"), "{:?}", scan.diagnostics);
        // Unbounded AND receiver-dropped: two findings on the channel.
        assert_eq!(c.iter().filter(|c| **c == "SL203").count(), 2);
        let bounded = serve_scan(
            "fn f() {\n    let (tx, rx) = mpsc::sync_channel(8);\n    tx.send(1).ok();\n    let _ = rx.recv_timeout(TICK);\n}\n",
        );
        assert!(codes(&bounded).is_empty(), "{:?}", bounded.diagnostics);
    }

    #[test]
    fn sl204_requires_seed_provenance() {
        let det = |src: &str| semantic("crates/sim/src/x.rs", src, true);
        let bad = det("fn f() {\n    let rng = SimRng::seed_from_u64(12345);\n}\n");
        assert_eq!(codes(&bad), ["SL204"], "{:?}", bad.diagnostics);
        for good in [
            "fn f(seed: u64) {\n    let rng = SimRng::seed_from_u64(seed ^ 7);\n}\n",
            "fn f(tree: &RngTree) {\n    let rng = tree.stream(3);\n}\n",
            "impl SimRng {\n    fn new(v: u64) { Self::seed_from_u64(v) }\n}\n",
        ] {
            let scan = det(good);
            assert!(codes(&scan).is_empty(), "{good:?}: {:?}", scan.diagnostics);
        }
    }

    #[test]
    fn sl108_sl110_guards_must_dominate_not_sit_in_a_sibling_branch() {
        // The 3-line-window blind spot: a guard inside a *sibling*
        // branch sits 2 lines above the call, but it does not dominate
        // the accept.
        let blind = serve_scan(
            "fn f(l: &L, x: bool) {\n    if x {\n        l.set_nonblocking(true).ok();\n    }\n    let c = l.accept();\n}\n",
        );
        assert_eq!(codes(&blind), ["SL108"], "{:?}", blind.diagnostics);
        // The same guard hoisted to the enclosing block dominates.
        let hoisted = serve_scan(
            "fn f(l: &L, x: bool) {\n    l.set_nonblocking(true).ok();\n    let c = l.accept();\n}\n",
        );
        assert!(codes(&hoisted).is_empty(), "{:?}", hoisted.diagnostics);
        // Raw-line path: a comment at function scope counts...
        let comment = serve_scan(
            "fn f(rx: &Rx) {\n    // Bounded by the caller-armed read timeout.\n    let m = rx.recv();\n}\n",
        );
        assert!(codes(&comment).is_empty(), "{:?}", comment.diagnostics);
        // ...and a thread-name string dominates its own spawn chain.
        let named = serve_scan(
            "fn f() {\n    let h = std::thread::Builder::new()\n        .name(\"strent-serve-shard-0\".to_owned())\n        .spawn(run);\n}\n",
        );
        assert!(codes(&named).is_empty(), "{:?}", named.diagnostics);
        let bare = serve_scan("fn f() {\n    let h = std::thread::spawn(run);\n}\n");
        assert_eq!(codes(&bare), ["SL110"], "{:?}", bare.diagnostics);
        let sibling = serve_scan(
            "fn f(x: bool) {\n    if x {\n        let name = \"strent-serve-worker-0\";\n    }\n    let h = std::thread::spawn(run);\n}\n",
        );
        assert_eq!(codes(&sibling), ["SL110"], "{:?}", sibling.diagnostics);
    }

    #[test]
    fn sl107_provenance_tracks_handles_through_bindings() {
        let det = |src: &str| semantic("crates/sim/src/x.rs", src, true);
        // Via a binding: the old text rule is blind to this.
        let bound = det(
            "fn f() {\n    let h = std::thread::spawn(work);\n    let r = h.join();\n    let stats = r.unwrap();\n}\n",
        );
        assert_eq!(codes(&bound), ["SL107"], "{:?}", bound.diagnostics);
        // Direct chain on a known handle.
        let direct = det(
            "fn f() {\n    let h = std::thread::spawn(work);\n    let stats = h.join().unwrap();\n}\n",
        );
        assert_eq!(codes(&direct), ["SL107"], "{:?}", direct.diagnostics);
        // A known Path receiver is claimed clean, never fired on.
        let path = det(
            "fn f(dir: &Path) {\n    let p = dir.join(\"x\");\n    let text = p.to_str().unwrap();\n}\n",
        );
        assert!(codes(&path).is_empty(), "{:?}", path.diagnostics);
        assert!(path.sl107_claimed.contains(&2));
        // Matching the Err is the approved pattern: no unwrap, no fire.
        let matched = det(
            "fn f() {\n    let h = std::thread::spawn(work);\n    if let Err(p) = h.join() {\n        std::panic::resume_unwind(p);\n    }\n}\n",
        );
        assert!(codes(&matched).is_empty(), "{:?}", matched.diagnostics);
    }
}
