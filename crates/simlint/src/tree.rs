//! The brace/block tree and item index built over the token stream.
//!
//! One parse produces, per file:
//!
//! * a tree of every braced block (token index of `{`/`}`, parent
//!   link, line span) plus an innermost-block map for each token —
//!   the structure the scope-aware rules use for *dominance* ("does
//!   the guard sit in a block that encloses the risky call?");
//! * an item index of every `fn`, with its signature (params, return
//!   type idents), enclosing `impl` type, and whether it lives in test
//!   code (`#[test]`, `#[cfg(test)]` on the item or any ancestor
//!   `mod`/`impl`/`fn`) — `#[cfg(test)]` regions are tree nodes here,
//!   and [`FileTree::test_lines`] projects them onto lines for the line
//!   rules.
//!
//! This is deliberately not a full Rust parser: it is a brace-matching
//! pass with just enough item awareness for the SL2xx rules, and it
//! degrades gracefully (unknown constructs simply contribute no items).

use crate::lexer::{lex, match_delim, Tok, TokKind};

/// One braced block (`{ ... }`).
#[derive(Debug)]
pub struct Block {
    /// Token index of the opening `{`.
    pub open: usize,
    /// Token index of the matching `}` (or one past the last token if
    /// the file is unbalanced).
    pub close: usize,
    /// Enclosing block, if any.
    pub parent: Option<usize>,
    /// 1-based line of the opening brace.
    pub open_line: usize,
    /// 1-based line of the closing brace.
    pub close_line: usize,
    /// Whether the item owning this block carried `#[cfg(test)]` or
    /// `#[test]` — everything inside is test code.
    pub test_root: bool,
    /// For an `impl` body: the implemented type's name.
    pub impl_name: Option<String>,
}

/// One `fn` item.
#[derive(Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Token index of the `fn` keyword.
    pub start: usize,
    /// Token index of the body's `}` (or of the `;` for a bodyless
    /// declaration).
    pub end: usize,
    /// Block id of the body, when there is one.
    pub body: Option<usize>,
    /// `(name, type idents)` per parameter (`self` receivers skipped).
    pub params: Vec<(String, Vec<String>)>,
    /// Identifier tokens of the return type (empty for `()`).
    pub ret: Vec<String>,
    /// Whether this item is test code (own attrs or any ancestor's).
    pub is_test: bool,
    /// The enclosing `impl` type name, if any.
    pub impl_of: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub start_line: usize,
}

/// The parsed file: tokens, block tree and item index.
#[derive(Debug)]
pub struct FileTree {
    /// The lexed token stream.
    pub toks: Vec<Tok>,
    /// Every braced block, in opening order.
    pub blocks: Vec<Block>,
    /// Every `fn` item, in source order.
    pub fns: Vec<FnItem>,
    block_of: Vec<Option<usize>>,
}

impl FileTree {
    /// Parses a file's stripped lines (see `strip_source` in the crate
    /// root) into a tree.
    #[must_use]
    pub fn parse(stripped: &[String]) -> FileTree {
        let toks = lex(stripped);
        let (blocks, block_of) = build_blocks(&toks);
        let mut tree = FileTree {
            toks,
            blocks,
            fns: Vec::new(),
            block_of,
        };
        tree.index_items();
        tree
    }

    /// The innermost block containing token `idx` (the braces
    /// themselves belong to the block they delimit).
    #[must_use]
    pub fn block_of(&self, idx: usize) -> Option<usize> {
        self.block_of.get(idx).copied().flatten()
    }

    /// Whether `block` is `ancestor` or nested (at any depth) inside it.
    #[must_use]
    pub fn is_ancestor_or_self(&self, ancestor: Option<usize>, block: Option<usize>) -> bool {
        let Some(a) = ancestor else {
            return true; // file scope encloses everything
        };
        let mut cur = block;
        while let Some(b) = cur {
            if b == a {
                return true;
            }
            cur = self.blocks[b].parent;
        }
        false
    }

    /// Whether the token at `guard` *dominates* the token at `call`:
    /// it comes no later and its innermost block encloses the call's.
    #[must_use]
    pub fn dominates(&self, guard: usize, call: usize) -> bool {
        guard <= call && self.is_ancestor_or_self(self.block_of(guard), self.block_of(call))
    }

    /// Whether token `idx` sits inside test code.
    #[must_use]
    pub fn in_test(&self, idx: usize) -> bool {
        let mut cur = self.block_of(idx);
        while let Some(b) = cur {
            if self.blocks[b].test_root {
                return true;
            }
            cur = self.blocks[b].parent;
        }
        false
    }

    /// The `impl` type enclosing token `idx`, if any.
    #[must_use]
    pub fn impl_at(&self, idx: usize) -> Option<&str> {
        let mut cur = self.block_of(idx);
        while let Some(b) = cur {
            if let Some(name) = &self.blocks[b].impl_name {
                return Some(name);
            }
            cur = self.blocks[b].parent;
        }
        None
    }

    /// Per-line test-code flags (index = line − 1) for a file of `lines`
    /// lines: every line from a test `fn` keyword or a test container's
    /// opening brace through its closing brace.
    #[must_use]
    pub fn test_lines(&self, lines: usize) -> Vec<bool> {
        let mut mask = vec![false; lines];
        let containers = self
            .blocks
            .iter()
            .filter(|b| b.test_root)
            .map(|b| (b.open_line, b.close_line));
        let fns = self
            .fns
            .iter()
            .filter(|f| f.is_test)
            .map(|f| (f.start_line, self.toks.get(f.end).map_or(lines, |t| t.line)));
        for (first, last) in containers.chain(fns) {
            for flag in mask.iter_mut().take(last).skip(first - 1) {
                *flag = true;
            }
        }
        mask
    }

    /// The innermost block whose *line span* contains `line`. Used to
    /// place comment lines (which have no tokens) in the tree.
    #[must_use]
    pub fn block_at_line(&self, line: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (id, b) in self.blocks.iter().enumerate() {
            if b.open_line <= line && line <= b.close_line {
                // Later-opening blocks are deeper.
                best = Some(id);
            }
        }
        best
    }

    fn index_items(&mut self) {
        let toks = std::mem::take(&mut self.toks);
        let mut attr_test = false;
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            match t.kind {
                TokKind::Punct if t.text == "#" => {
                    // Attribute: `#[...]` (or inner `#![...]`).
                    let mut j = i + 1;
                    if toks.get(j).is_some_and(|t| t.is_punct("!")) {
                        j += 1;
                    }
                    if toks.get(j).is_some_and(|t| t.is_punct("[")) {
                        let close = match_delim(&toks, j);
                        // `#[test]` or `#[cfg(test)]`, never
                        // `#[cfg(not(test))]`, which marks production code.
                        let attr: Vec<&str> = toks[j + 1..close.min(toks.len())]
                            .iter()
                            .map(|t| t.text.as_str())
                            .collect();
                        attr_test |= matches!(attr[..], ["test"] | ["cfg", "(", "test", ")"]);
                        i = close + 1;
                        continue;
                    }
                    i += 1;
                }
                TokKind::Ident => match t.text.as_str() {
                    "fn" => {
                        let inherited = self.in_test(i) || attr_test;
                        let next = self.index_fn(&toks, i, inherited);
                        attr_test = false;
                        i = next;
                    }
                    "mod" | "impl" | "trait" => {
                        let next = self.index_container(&toks, i, attr_test);
                        attr_test = false;
                        i = next;
                    }
                    // Modifiers keep a pending attribute attached to
                    // the item that follows.
                    "pub" | "crate" | "in" | "unsafe" | "const" | "async" | "extern"
                    | "default" => i += 1,
                    _ => {
                        attr_test = false;
                        i += 1;
                    }
                },
                TokKind::Str => i += 1, // `extern "C"` keeps attrs pending
                _ => {
                    if t.is_punct("(") {
                        // `pub(crate)` visibility group keeps attrs.
                        i = match_delim(&toks, i) + 1;
                    } else {
                        attr_test = false;
                        i += 1;
                    }
                }
            }
        }
        self.toks = toks;
    }

    /// Indexes a `fn` starting at token `at`; returns the index to
    /// resume scanning from (just after the signature — the body is
    /// scanned by the main loop so nested items are found too).
    fn index_fn(&mut self, toks: &[Tok], at: usize, is_test: bool) -> usize {
        let Some(name_tok) = toks.get(at + 1).filter(|t| t.kind == TokKind::Ident) else {
            return at + 1;
        };
        let name = name_tok.text.clone();
        // Parameter list: the first `(` after the name (skipping
        // generics, which may contain parens in bounds — scan for the
        // first paren at angle depth 0).
        let mut j = at + 2;
        let mut angle = 0i64;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct(">") || t.is_punct("->") && angle > 0 {
                angle -= t.is_punct(">") as i64;
            } else if t.is_punct("(") && angle == 0 {
                break;
            } else if t.is_punct("{") || t.is_punct(";") {
                return j; // malformed; give up on this item
            }
            j += 1;
        }
        if j >= toks.len() {
            return toks.len();
        }
        let params_close = match_delim(toks, j);
        let params = parse_params(toks, j, params_close);
        // Return type + where clause: idents until the body `{` or `;`.
        let mut ret = Vec::new();
        let mut k = params_close + 1;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("{") || t.is_punct(";") {
                break;
            }
            if t.kind == TokKind::Ident && t.text != "where" {
                ret.push(t.text.clone());
            }
            if t.is_punct("(") || t.is_punct("[") {
                // Tuple/array types: collect idents inside too.
                let close = match_delim(toks, k);
                for inner in &toks[k..close.min(toks.len())] {
                    if inner.kind == TokKind::Ident {
                        ret.push(inner.text.clone());
                    }
                }
                k = close;
            }
            k += 1;
        }
        let (body, end) = if toks.get(k).is_some_and(|t| t.is_punct("{")) {
            let body_id = self.block_opened_at(k);
            if let (Some(id), true) = (body_id, is_test) {
                self.blocks[id].test_root = true;
            }
            (body_id, body_id.map_or(k, |id| self.blocks[id].close))
        } else {
            (None, k.min(toks.len().saturating_sub(1)))
        };
        self.fns.push(FnItem {
            name,
            start: at,
            end,
            body,
            params,
            ret,
            is_test,
            impl_of: self.impl_at(at).map(str::to_owned),
            start_line: toks[at].line,
        });
        // Resume just after the opening brace so nested fns/items in
        // the body are indexed by the main loop.
        k + 1
    }

    /// Indexes a `mod`/`impl`/`trait` container starting at `at`;
    /// marks its block as a test root (and records the impl type).
    fn index_container(&mut self, toks: &[Tok], at: usize, attr_test: bool) -> usize {
        let kind = toks[at].text.clone();
        let mut impl_name: Option<String> = None;
        let mut after_for = false;
        let mut seen_first: Option<String> = None;
        let mut j = at + 1;
        while j < toks.len() {
            let t = &toks[j];
            if t.is_punct("{") {
                break;
            }
            if t.is_punct(";") {
                return j + 1; // `mod x;` — nothing to mark
            }
            if t.is_punct("<") {
                // Skip a generics group (angle depth tracking).
                let mut depth = 1i64;
                j += 1;
                while j < toks.len() && depth > 0 {
                    if toks[j].is_punct("<") {
                        depth += 1;
                    } else if toks[j].is_punct(">") {
                        depth -= 1;
                    } else if toks[j].is_punct("{") || toks[j].is_punct(";") {
                        break;
                    }
                    j += 1;
                }
                continue;
            }
            if t.is_punct("(") || t.is_punct("[") {
                j = match_delim(toks, j) + 1;
                continue;
            }
            if t.kind == TokKind::Ident {
                if t.text == "for" {
                    after_for = true;
                    seen_first = None;
                } else if seen_first.is_none() && t.text != "dyn" {
                    seen_first = Some(t.text.clone());
                    if kind == "impl" && (after_for || impl_name.is_none()) {
                        impl_name = Some(t.text.clone());
                    }
                }
            } else if t.is_punct("::") {
                // Path continues: the type is the last segment.
                seen_first = None;
                if kind == "impl" {
                    impl_name = None;
                }
            }
            j += 1;
        }
        if let Some(id) = self.block_opened_at(j) {
            self.blocks[id].test_root |= attr_test;
            if kind == "impl" {
                // The last path segment before `{` (after `for`, if
                // present) names the implemented type.
                self.blocks[id].impl_name = impl_name.or(seen_first);
            }
        }
        j + 1
    }

    fn block_opened_at(&self, open_idx: usize) -> Option<usize> {
        // Blocks are recorded in opening order; binary search by open.
        self.blocks
            .binary_search_by_key(&open_idx, |b| b.open)
            .ok()
    }
}

fn build_blocks(toks: &[Tok]) -> (Vec<Block>, Vec<Option<usize>>) {
    let mut blocks: Vec<Block> = Vec::new();
    let mut block_of: Vec<Option<usize>> = Vec::with_capacity(toks.len());
    let mut stack: Vec<usize> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct("{") {
            let id = blocks.len();
            blocks.push(Block {
                open: i,
                close: toks.len(),
                parent: stack.last().copied(),
                open_line: t.line,
                close_line: toks.last().map_or(t.line, |l| l.line),
                test_root: false,
                impl_name: None,
            });
            stack.push(id);
            block_of.push(Some(id));
            continue;
        }
        block_of.push(stack.last().copied());
        if t.is_punct("}") {
            if let Some(id) = stack.pop() {
                blocks[id].close = i;
                blocks[id].close_line = t.line;
            }
        }
    }
    (blocks, block_of)
}

/// Parses the parameter list between tokens `open`..`close` into
/// `(name, type idents)` pairs; `self` receivers are skipped.
fn parse_params(toks: &[Tok], open: usize, close: usize) -> Vec<(String, Vec<String>)> {
    let mut params = Vec::new();
    let mut start = open + 1;
    let mut depth = 0i64;
    let mut i = open + 1;
    while i <= close.min(toks.len().saturating_sub(1)) {
        let t = &toks[i];
        let boundary = (t.is_punct(",") && depth == 0) || i == close;
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")") && i != close || t.is_punct("]") || t.is_punct(">") {
            depth -= 1;
        }
        if boundary {
            if let Some(param) = parse_one_param(&toks[start..i]) {
                params.push(param);
            }
            start = i + 1;
        }
        i += 1;
    }
    params
}

fn parse_one_param(toks: &[Tok]) -> Option<(String, Vec<String>)> {
    let colon = toks.iter().position(|t| t.is_punct(":"))?;
    let name = toks[..colon]
        .iter()
        .rev()
        .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")?
        .text
        .clone();
    let ty = toks[colon + 1..]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    Some((name, ty))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(source: &str) -> FileTree {
        FileTree::parse(&crate::strip_source(source))
    }

    #[test]
    fn finds_fns_with_signatures() {
        let tree = parse(
            "impl Server {\n    fn own_queue(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {\n        self.q.lock().unwrap()\n    }\n}\nfn free(seed: u64, rx: Receiver<u8>) {}\n",
        );
        assert_eq!(tree.fns.len(), 2);
        let own = &tree.fns[0];
        assert_eq!(own.name, "own_queue");
        assert!(own.ret.iter().any(|t| t == "MutexGuard"));
        assert_eq!(own.impl_of.as_deref(), Some("Server"));
        let free = &tree.fns[1];
        assert_eq!(free.params.len(), 2);
        assert_eq!(free.params[0].0, "seed");
        assert!(free.params[1].1.iter().any(|t| t == "Receiver"));
    }

    #[test]
    fn cfg_test_containers_are_tree_nodes() {
        let tree = parse(
            "fn prod() { let x = 1; }\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    #[test]\n    fn case() {}\n}\n",
        );
        let by_name = |n: &str| tree.fns.iter().find(|f| f.name == n).expect(n);
        assert!(!by_name("prod").is_test);
        assert!(by_name("helper").is_test, "inherits the mod's cfg(test)");
        assert!(by_name("case").is_test);
        // The line projection covers the test mod, not the prod fn.
        assert_eq!(
            tree.test_lines(7),
            [false, false, true, true, true, true, true]
        );
        let negated = parse("#[cfg(not(test))]\nfn prod() { let x = 1; }\n");
        assert!(!negated.fns[0].is_test, "cfg(not(test)) is production code");
        assert_eq!(negated.test_lines(2), [false, false]);
        // An unclosed test body runs to the end of the file.
        let unclosed = parse("#[test]\nfn t() {\n    let x = 1;\n");
        assert_eq!(unclosed.test_lines(3), [false, true, true]);
    }

    #[test]
    fn impl_for_records_the_self_type() {
        let tree = parse(
            "impl fmt::Display for SourceDiagnostic {\n    fn fmt(&self) {}\n}\nimpl<T: Fn(u8)> Wrapper<T> {\n    fn go(&self) {}\n}\n",
        );
        assert_eq!(tree.fns[0].impl_of.as_deref(), Some("SourceDiagnostic"));
        assert_eq!(tree.fns[1].impl_of.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn dominance_follows_the_block_tree() {
        let tree = parse(
            "fn f(x: bool) {\n    if x {\n        guard();\n    }\n    call();\n    if x {\n        late();\n    }\n}\n",
        );
        let pos = |name: &str| {
            tree.toks
                .iter()
                .position(|t| t.is_ident(name))
                .expect(name)
        };
        // A sibling block does not dominate...
        assert!(!tree.dominates(pos("guard"), pos("call")));
        // ...the enclosing scope does; later tokens never dominate.
        assert!(tree.dominates(pos("f"), pos("call")));
        assert!(!tree.dominates(pos("late"), pos("call")));
    }

    #[test]
    fn comment_lines_place_into_blocks() {
        let source = "fn f(x: bool) {\n    if x {\n        // nonblocking here\n        a();\n    }\n    b();\n}\n";
        let tree = parse(source);
        let b_pos = tree.toks.iter().position(|t| t.is_ident("b")).expect("b");
        let comment_block = tree.block_at_line(3);
        assert!(
            !tree.is_ancestor_or_self(comment_block, tree.block_of(b_pos)),
            "a comment inside the if-block must not dominate b()"
        );
    }
}
