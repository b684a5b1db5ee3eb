//! Per-function symbol tables: `let` bindings with receiver provenance.
//!
//! Provenance answers the question the text rules cannot: *what kind
//! of value does this name hold*? `handle.join()` on a `JoinHandle`
//! is thread lifecycle; `path.join("x")` on a `Path` is string
//! concatenation; `guard` from `q.lock()` is a live mutex guard. The
//! classifier is deliberately shallow — it looks at the defining
//! expression (and parameter types), not at arbitrary dataflow — but
//! that is enough to separate the SL107/SL201–SL205 cases that the
//! 3-line-window heuristics conflated.

use crate::lexer::{match_delim, Tok, TokKind};
use crate::tree::{FileTree, FnItem};
use std::collections::BTreeSet;

/// What a binding provably holds, as far as the classifier can tell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Prov {
    /// A `std::thread::JoinHandle` (from `thread::spawn`/`.spawn(`).
    JoinHandle,
    /// The `Result` of calling `.join()` on a [`Prov::JoinHandle`].
    JoinResult,
    /// A `Path`/`PathBuf` (so `.join(` is path concatenation).
    PathLike,
    /// A mutex guard; the string names the locked receiver (or
    /// `fn:<name>` for a local guard-returning helper).
    LockGuard(String),
    /// A channel sender; `bounded` is true for `sync_channel`.
    Sender {
        /// Whether the channel has a bounded depth.
        bounded: bool,
    },
    /// A channel receiver; `bounded` mirrors the sender side.
    Receiver {
        /// Whether the channel has a bounded depth.
        bounded: bool,
    },
    /// A value derived from an explicit seed or an `RngTree` stream —
    /// deterministic by construction.
    Seeded,
    /// Anything the classifier cannot pin down.
    Other,
}

/// One `let` binding (or parameter) in a function body.
#[derive(Debug)]
pub struct Binding {
    /// The bound name.
    pub name: String,
    /// Token index where the name is introduced.
    pub def: usize,
    /// Token index one past the defining statement (provenance applies
    /// only to uses after this point).
    pub stmt_end: usize,
    /// What the binding holds.
    pub prov: Prov,
}

/// The symbol table for one function.
#[derive(Debug)]
pub struct Symbols {
    /// All bindings, in definition order.
    pub bindings: Vec<Binding>,
}

impl Symbols {
    /// Builds the table for `f`, walking parameters then every `let`
    /// statement in the body. `guard_fns` names local functions that
    /// return `MutexGuard`s (calls to them produce [`Prov::LockGuard`]).
    #[must_use]
    pub fn build(tree: &FileTree, f: &FnItem, guard_fns: &BTreeSet<String>) -> Symbols {
        let mut bindings = Vec::new();
        for (name, ty) in &f.params {
            let prov = classify_param(name, ty);
            if prov != Prov::Other {
                bindings.push(Binding {
                    name: name.clone(),
                    def: f.start,
                    stmt_end: f.start,
                    prov,
                });
            }
        }
        let Some(body) = f.body else {
            return Symbols { bindings };
        };
        let toks = &tree.toks;
        let (open, close) = (tree.blocks[body].open, tree.blocks[body].close);
        let mut i = open + 1;
        while i < close.min(toks.len()) {
            if toks[i].is_ident("let") {
                i = scan_let(toks, i, close, guard_fns, &mut bindings);
            } else {
                i += 1;
            }
        }
        Symbols { bindings }
    }

    /// The provenance of `name` at token `at` (its latest definition
    /// whose statement completed before `at`).
    #[must_use]
    pub fn prov_at(&self, name: &str, at: usize) -> Option<&Prov> {
        self.bindings
            .iter()
            .rev()
            .find(|b| b.name == name && b.stmt_end <= at)
            .map(|b| &b.prov)
    }
}

fn classify_param(name: &str, ty: &[String]) -> Prov {
    if ty.iter().any(|t| t == "JoinHandle") {
        Prov::JoinHandle
    } else if ty.iter().any(|t| t == "Path" || t == "PathBuf") {
        Prov::PathLike
    } else if ty.iter().any(|t| t == "MutexGuard") {
        Prov::LockGuard(format!("param:{name}"))
    } else if ty.iter().any(|t| t == "Receiver") {
        Prov::Receiver { bounded: true } // depth decided at the creation site
    } else if ty.iter().any(|t| t == "Sender" || t == "SyncSender") {
        Prov::Sender { bounded: true }
    } else if name.contains("seed") || ty.iter().any(|t| t == "RngTree") {
        Prov::Seeded
    } else {
        Prov::Other
    }
}

/// Scans one `let` statement starting at the `let` token; pushes any
/// classified bindings and returns the index just past the statement's
/// terminator.
fn scan_let(
    toks: &[Tok],
    let_idx: usize,
    limit: usize,
    guard_fns: &BTreeSet<String>,
    bindings: &mut Vec<Binding>,
) -> usize {
    // --- pattern: `x`, `mut x`, `(a, b)`, `Some(x)`, `_` ---
    let mut names: Vec<(String, usize)> = Vec::new();
    let mut tuple = false;
    let mut i = let_idx + 1;
    while i < limit {
        let t = &toks[i];
        if t.is_punct("=") || t.is_punct(";") || t.is_punct(":") && !tuple {
            break;
        }
        if t.is_punct("(") {
            tuple = names.is_empty();
            // `Some(x)` / `Ok(x)`: the preceding ident was a variant,
            // not a binding — drop it.
            if !tuple && names.len() == 1 {
                names.clear();
                tuple = true;
            }
        } else if t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref" {
            names.push((t.text.clone(), i));
        } else if t.is_punct("_") {
            names.push(("_".to_owned(), i));
        }
        i += 1;
    }
    // Skip a type annotation if we stopped at `:`.
    while i < limit && !toks[i].is_punct("=") && !toks[i].is_punct(";") {
        if toks[i].is_punct("(") || toks[i].is_punct("[") {
            i = match_delim(toks, i);
        }
        i += 1;
    }
    if i >= limit || toks[i].is_punct(";") {
        return i + 1; // `let x;` — uninitialised, nothing to classify
    }
    let expr_start = i + 1;
    // --- expression: up to the terminating `;` at depth 0 (or a
    // trailing block for `let x = if ... {}`, which we treat as the
    // statement end too). ---
    let mut depth = 0i64;
    let mut j = expr_start;
    while j < limit {
        let t = &toks[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if t.is_punct(";") && depth == 0 {
            break;
        }
        j += 1;
    }
    let expr = &toks[expr_start..j.min(toks.len())];
    let prov = classify_expr(expr, guard_fns, bindings, expr_start);
    let stmt_end = j + 1;
    match (&prov, tuple, names.len()) {
        // A channel constructor with a tuple pattern binds the sender
        // and receiver separately.
        (Prov::Sender { bounded }, true, 2) => {
            let b = *bounded;
            bindings.push(Binding {
                name: names[0].0.clone(),
                def: names[0].1,
                stmt_end,
                prov: Prov::Sender { bounded: b },
            });
            bindings.push(Binding {
                name: names[1].0.clone(),
                def: names[1].1,
                stmt_end,
                prov: Prov::Receiver { bounded: b },
            });
        }
        (p, _, _) if *p != Prov::Other => {
            if let Some((name, def)) = names.first() {
                bindings.push(Binding {
                    name: name.clone(),
                    def: *def,
                    stmt_end,
                    prov: prov.clone(),
                });
            }
        }
        _ => {}
    }
    stmt_end
}

/// Classifies a defining expression. Priority order matters: a channel
/// constructor beats the generic heuristics, `.lock(` beats `.join(`.
fn classify_expr(
    expr: &[Tok],
    guard_fns: &BTreeSet<String>,
    prior: &[Binding],
    expr_start: usize,
) -> Prov {
    // Channel constructors: `channel()`, `sync_channel(n)`, with
    // optional path prefix and turbofish.
    for (k, t) in expr.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "channel" && t.text != "sync_channel" {
            continue;
        }
        let mut n = k + 1;
        if expr.get(n).is_some_and(|t| t.is_punct("::")) {
            // turbofish `::<T>` — skip to the matching `>`
            n += 1;
            let mut angle = 0i64;
            while n < expr.len() {
                if expr[n].is_punct("<") {
                    angle += 1;
                } else if expr[n].is_punct(">") {
                    angle -= 1;
                    if angle == 0 {
                        n += 1;
                        break;
                    }
                }
                n += 1;
            }
        }
        if expr.get(n).is_some_and(|t| t.is_punct("(")) {
            return Prov::Sender {
                bounded: t.text == "sync_channel",
            };
        }
    }
    // Lock acquisition: `<recv>.lock(`.
    for (k, t) in expr.iter().enumerate() {
        if t.is_ident("lock")
            && k > 0
            && expr[k - 1].is_punct(".")
            && expr.get(k + 1).is_some_and(|t| t.is_punct("("))
        {
            return Prov::LockGuard(normalize_receiver(&expr[..k - 1]));
        }
    }
    // A call to a local guard-returning helper: `self.own_queue()`.
    for (k, t) in expr.iter().enumerate() {
        if t.kind == TokKind::Ident
            && guard_fns.contains(&t.text)
            && expr.get(k + 1).is_some_and(|t| t.is_punct("("))
        {
            return Prov::LockGuard(format!("fn:{}", t.text));
        }
    }
    // `.join()` on a known JoinHandle → the Result of joining.
    for (k, t) in expr.iter().enumerate() {
        if t.is_ident("join") && k > 1 && expr[k - 1].is_punct(".") {
            if let Some(recv) = expr[..k - 1].last().filter(|t| t.kind == TokKind::Ident) {
                let recv_prov = prior
                    .iter()
                    .rev()
                    .find(|b| b.name == recv.text && b.stmt_end <= expr_start)
                    .map(|b| &b.prov);
                if recv_prov == Some(&Prov::JoinHandle) {
                    return Prov::JoinResult;
                }
            }
        }
    }
    // Spawns produce JoinHandles.
    for (k, t) in expr.iter().enumerate() {
        if t.is_ident("spawn")
            && expr.get(k + 1).is_some_and(|t| t.is_punct("("))
            && k > 0
            && (expr[k - 1].is_punct("::") || expr[k - 1].is_punct("."))
        {
            return Prov::JoinHandle;
        }
    }
    // Path constructors and conversions.
    let path_ctor = expr.windows(3).any(|w| {
        w[0].kind == TokKind::Ident
            && (w[0].text == "Path" && w[2].is_ident("new")
                || w[0].text == "PathBuf" && w[2].is_ident("from"))
            && w[1].is_punct("::")
    });
    if path_ctor
        || expr
            .iter()
            .any(|t| t.is_ident("as_path") || t.is_ident("to_path_buf") || t.is_ident("temp_dir"))
    {
        return Prov::PathLike;
    }
    // Seed plumbing: any ident mentioning "seed", an RngTree stream, or
    // a value derived from an already-seeded binding.
    for t in expr {
        if t.kind != TokKind::Ident {
            continue;
        }
        if t.text.to_lowercase().contains("seed")
            || t.text == "RngTree"
            || t.text == "stream"
            || t.text == "fork"
            || t.text == "subtree"
        {
            return Prov::Seeded;
        }
        if prior
            .iter()
            .any(|b| b.name == t.text && b.prov == Prov::Seeded)
        {
            return Prov::Seeded;
        }
    }
    Prov::Other
}

/// Canonical name for a lock receiver: identifier path with `self.`
/// stripped and index expressions collapsed (`shards[i]` and
/// `shards[j]` are the *same* lock set for ordering purposes).
#[must_use]
pub fn normalize_receiver(toks: &[Tok]) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut depth = 0i64;
    for t in toks.iter().rev() {
        if t.is_punct("]") {
            if depth == 0 {
                parts.push("[_]".to_owned());
            }
            depth += 1;
            continue;
        }
        if t.is_punct("[") {
            depth -= 1;
            continue;
        }
        if depth > 0 {
            continue;
        }
        if t.kind == TokKind::Ident || t.is_punct(".") || t.is_punct("::") {
            parts.push(t.text.clone());
        } else {
            break;
        }
    }
    parts.reverse();
    let mut name = parts.concat();
    if let Some(stripped) = name.strip_prefix("self.") {
        name = stripped.to_owned();
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::FileTree;

    fn table(source: &str) -> (FileTree, Symbols) {
        let tree = FileTree::parse(&crate::strip_source(source));
        let mut guard_fns = BTreeSet::new();
        guard_fns.insert("own_queue".to_owned());
        let syms = Symbols::build(&tree, &tree.fns[0], &guard_fns);
        (tree, syms)
    }

    fn prov_of<'s>(syms: &'s Symbols, name: &str) -> &'s Prov {
        &syms
            .bindings
            .iter()
            .rev()
            .find(|b| b.name == name)
            .expect(name)
            .prov
    }

    #[test]
    fn channel_tuples_split_sender_and_receiver() {
        let (_, syms) = table(
            "fn f() {\n    let (tx, rx) = mpsc::channel::<u8>();\n    let (btx, brx) = mpsc::sync_channel(4);\n}\n",
        );
        assert_eq!(prov_of(&syms, "tx"), &Prov::Sender { bounded: false });
        assert_eq!(prov_of(&syms, "rx"), &Prov::Receiver { bounded: false });
        assert_eq!(prov_of(&syms, "btx"), &Prov::Sender { bounded: true });
        assert_eq!(prov_of(&syms, "brx"), &Prov::Receiver { bounded: true });
    }

    #[test]
    fn locks_joins_and_paths_are_distinguished() {
        let (_, syms) = table(
            "fn f(dir: &Path) {\n    let guard = self.shards[i].queue.lock().unwrap();\n    let q = self.own_queue();\n    let h = thread::spawn(move || {});\n    let r = h.join();\n    let p = dir.join(\"x\");\n}\n",
        );
        assert_eq!(
            prov_of(&syms, "guard"),
            &Prov::LockGuard("shards[_].queue".to_owned())
        );
        assert_eq!(prov_of(&syms, "q"), &Prov::LockGuard("fn:own_queue".to_owned()));
        assert_eq!(prov_of(&syms, "h"), &Prov::JoinHandle);
        assert_eq!(prov_of(&syms, "r"), &Prov::JoinResult);
        // `dir` is a Path param, so `dir.join(..)` is path
        // concatenation: `p` must NOT classify as a JoinResult (it is
        // unclassified, hence unrecorded) — SL107 must not fire on it.
        assert_eq!(prov_of(&syms, "dir"), &Prov::PathLike);
        assert!(!syms.bindings.iter().any(|b| b.name == "p"));
    }

    #[test]
    fn seed_values_taint_forward() {
        let (_, syms) = table(
            "fn f(seed: u64) {\n    let master = seed ^ 0x9E37;\n    let rng = SimRng::seed_from_u64(master);\n}\n",
        );
        assert_eq!(prov_of(&syms, "master"), &Prov::Seeded);
        assert_eq!(prov_of(&syms, "rng"), &Prov::Seeded);
    }
}
