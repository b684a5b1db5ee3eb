//! Determinism and `unsafe`-code hygiene linter for the strentropy
//! workspace (the `SL1xx` half of `simlint`; the `SL0xx` netlist half
//! lives in `strent_sim::lint` / `strent_rings::lint`).
//!
//! The whole reproduction rests on bit-determinism: the same seed must
//! produce the same period series on any machine, any worker count.
//! This crate scans workspace sources for constructs that silently
//! break that contract in deterministic code — hash-order iteration,
//! wall-clock reads, ambient RNGs, unordered float reductions — plus an
//! `unsafe`-block audit requiring `// SAFETY:` comments and per-crate
//! `#![forbid(unsafe_code)]` gates.
//!
//! Every file is parsed once, with no external dependencies
//! (consistent with the vendored offline stubs): a real lexer
//! ([`lexer`]) feeds a brace/block tree with item boundaries
//! ([`tree`]). Two kinds of rule read it:
//!
//! * **Line rules (SL101–SL107, SL109)** — token matches over
//!   comment/string-stripped lines, so `"HashMap"` inside a string or a
//!   doc comment never fires. They skip the lines the tree marks as
//!   test code — tests may use wall clocks and hash sets freely.
//! * **Semantic rules (SL2xx, the serve-layer guard rules SL108 and
//!   SL110–SL112, and the provenance-aware SL107)** — per-function
//!   symbol tables with receiver provenance ([`symbols`]) and an
//!   intra-function walk over lock/channel/spawn operations
//!   ([`rules_sl2xx`]). A guard must *dominate* its risky call in the
//!   block tree and sit within 3 lines of it.
//!
//! Diagnostic codes are stable; [`RULES`] is the registry and
//! `docs/static_analysis.md` the human catalog — a unit test asserts
//! the two agree. A vetted site is excused only inline, with
//! `// simlint: allow(<code>) <reason>` on the offending or preceding
//! line; every other finding fails the scan.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lexer;
pub mod rules_sl2xx;
pub mod symbols;
pub mod tree;

pub use rules_sl2xx::{lock_conflicts, scan_semantic, LockPair, SemanticScan};

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use tree::FileTree;

/// One row of the rule registry: the single source of truth that the
/// fixture and docs-drift unit tests and the JSON report's rule counts
/// all consume.
#[derive(Debug)]
pub struct RuleInfo {
    /// Stable diagnostic code (`SL101`..).
    pub code: &'static str,
    /// `"error"` or `"warning"` (both fatal).
    pub severity: &'static str,
    /// Where the rule applies (matched verbatim against the docs
    /// tables): `deterministic-src`, `workspace`, `crate-roots`,
    /// `all-src`, `serve-src` or `serve+core-src`.
    pub scope: &'static str,
    /// The firing fixture under `crates/simlint/fixtures/`.
    pub fixture: &'static str,
    /// Which crate the fixture poses as (`sim` or `serve`) — decides
    /// the path label the fixture test scans it under.
    pub fixture_crate: &'static str,
}

/// Every rule the scanner knows, in code order; `docs/static_analysis.md`
/// describes each finding. A row here without a fixture (or a fixture
/// without a row) fails the fixture test.
pub const RULES: [RuleInfo; 16] = [
    RuleInfo {
        code: "SL101",
        severity: "error",
        scope: "deterministic-src",
        fixture: "hash_iteration.rs",
        fixture_crate: "sim",
    },
    RuleInfo {
        code: "SL102",
        severity: "error",
        scope: "deterministic-src",
        fixture: "wall_clock.rs",
        fixture_crate: "sim",
    },
    RuleInfo {
        code: "SL103",
        severity: "error",
        scope: "deterministic-src",
        fixture: "ambient_rng.rs",
        fixture_crate: "sim",
    },
    RuleInfo {
        code: "SL104",
        severity: "error",
        scope: "deterministic-src",
        fixture: "float_reduction.rs",
        fixture_crate: "sim",
    },
    RuleInfo {
        code: "SL105",
        severity: "error",
        scope: "workspace",
        fixture: "unsafe_no_safety.rs",
        fixture_crate: "sim",
    },
    RuleInfo {
        code: "SL106",
        severity: "warning",
        scope: "crate-roots",
        fixture: "missing_gate/src/lib.rs",
        fixture_crate: "sim",
    },
    RuleInfo {
        code: "SL107",
        severity: "error",
        scope: "all-src",
        fixture: "join_unwrap.rs",
        fixture_crate: "sim",
    },
    RuleInfo {
        code: "SL108",
        severity: "error",
        scope: "serve-src",
        fixture: "blocking_recv.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL109",
        severity: "error",
        scope: "serve+core-src",
        fixture: "ring_stream_bypass.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL110",
        severity: "error",
        scope: "serve-src",
        fixture: "conn_thread_spawn.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL111",
        severity: "error",
        scope: "serve-src",
        fixture: "naked_catch_unwind.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL112",
        severity: "error",
        scope: "serve-src",
        fixture: "entropy_unhandled.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL201",
        severity: "error",
        scope: "serve-src",
        fixture: "lock_order.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL202",
        severity: "error",
        scope: "serve-src",
        fixture: "guard_across_block.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL203",
        severity: "warning",
        scope: "serve-src",
        fixture: "channel_topology.rs",
        fixture_crate: "serve",
    },
    RuleInfo {
        code: "SL204",
        severity: "error",
        scope: "deterministic-src",
        fixture: "rng_provenance.rs",
        fixture_crate: "sim",
    },
];

/// Crates whose `src/` trees must stay deterministic: everything a
/// simulation result flows through. `bench` is excluded (wall-clock
/// timing is its job), as are the vendored stubs.
pub const DETERMINISTIC_CRATES: [&str; 6] = [
    "crates/sim",
    "crates/rings",
    "crates/device",
    "crates/analysis",
    "crates/trng",
    "crates/core",
];

/// One finding of the source scanner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceDiagnostic {
    /// Stable code (`SL101`..`SL107`).
    pub code: &'static str,
    /// `"error"` or `"warning"` (both fatal).
    pub severity: &'static str,
    /// Path relative to the scanned root, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for SourceDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}: {}",
            self.path, self.line, self.code, self.severity, self.message
        )
    }
}

/// The result of scanning a tree.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Number of `.rs` files visited.
    pub files_scanned: usize,
    /// Wall time of the scan in milliseconds.
    pub scan_ms: u128,
    /// All findings, in path/line order.
    pub diagnostics: Vec<SourceDiagnostic>,
}

impl ScanReport {
    /// Whether the scan found nothing.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings per registry code (zero entries included), for the
    /// JSON report's `rule_counts` block.
    #[must_use]
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .map(|r| {
                (
                    r.code,
                    self.diagnostics.iter().filter(|d| d.code == r.code).count(),
                )
            })
            .collect()
    }

    /// Hand-formatted machine-readable JSON (`{"version":3,...}`) —
    /// no serializer crate in the closure, so the shape is tested
    /// against `python3 -c "json.load"` in CI. It carries `scan_ms`
    /// and the per-rule `rule_counts` block.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"version\": 3,\n");
        out.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        out.push_str(&format!("  \"scan_ms\": {},\n", self.scan_ms));
        out.push_str("  \"rule_counts\": {");
        for (i, (code, n)) in self.rule_counts().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{code}\": {n}"));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \"path\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"}}",
                d.code,
                d.severity,
                json_escape(&d.path),
                d.line,
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Blanks comments and string/char literal *contents* with spaces,
/// preserving line boundaries and byte columns, so token matching and
/// brace counting never trip over `format!("{i}")` or `"HashMap"`.
fn strip_source(source: &str) -> Vec<String> {
    #[derive(PartialEq)]
    enum State {
        Normal,
        LineComment,
        Block(u32),
        Str,
        RawStr(u32),
    }
    let mut state = State::Normal;
    let mut lines: Vec<String> = Vec::new();
    for raw_line in source.lines() {
        let bytes: Vec<char> = raw_line.chars().collect();
        let mut out = String::with_capacity(raw_line.len());
        let mut i = 0usize;
        // A line comment never crosses a newline.
        if state == State::LineComment {
            state = State::Normal;
        }
        while i < bytes.len() {
            let c = bytes[i];
            let next = bytes.get(i + 1).copied();
            match state {
                State::Normal => match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        state = State::Block(1);
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    }
                    '"' => {
                        state = State::Str;
                        out.push('"');
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Possible raw/byte string: r", r#", br", b".
                        let mut j = i + 1;
                        if c == 'b' && bytes.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let is_raw = (c == 'r' || bytes.get(i + 1) == Some(&'r') || hashes == 0)
                            && bytes.get(j) == Some(&'"')
                            && (c == 'r' || c == 'b');
                        // Reject identifiers like `rings` (prev char is
                        // part of an identifier, or no quote follows).
                        let prev_ident = i > 0 && is_ident_char(bytes[i - 1]);
                        if is_raw && !prev_ident && bytes.get(j) == Some(&'"') {
                            for _ in i..=j {
                                out.push(' ');
                            }
                            state = State::RawStr(hashes);
                            i = j + 1;
                        } else {
                            out.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime. A literal is 'x' or
                        // an escape; a lifetime is '<ident> with no
                        // closing quote.
                        if next == Some('\\') {
                            // Escape: scan to the closing quote.
                            out.push('\'');
                            let mut j = i + 2;
                            while j < bytes.len() && bytes[j] != '\'' {
                                out.push(' ');
                                j += 1;
                            }
                            if j < bytes.len() {
                                out.push(' '); // the escaped payload end
                                out.push('\'');
                                i = j + 1;
                            } else {
                                i = j;
                            }
                        } else if bytes.get(i + 2) == Some(&'\'') {
                            out.push('\'');
                            out.push(' ');
                            out.push('\'');
                            i += 3;
                        } else {
                            out.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        out.push(c);
                        i += 1;
                    }
                },
                State::LineComment => {
                    out.push(' ');
                    i += 1;
                }
                State::Block(depth) => {
                    if c == '*' && next == Some('/') {
                        state = if depth == 1 {
                            State::Normal
                        } else {
                            State::Block(depth - 1)
                        };
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if c == '/' && next == Some('*') {
                        state = State::Block(depth + 1);
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                State::Str => {
                    if c == '\\' {
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if c == '"' {
                        state = State::Normal;
                        out.push('"');
                        i += 1;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
                State::RawStr(hashes) => {
                    if c == '"' {
                        let mut j = i + 1;
                        let mut seen = 0u32;
                        while seen < hashes && bytes.get(j) == Some(&'#') {
                            seen += 1;
                            j += 1;
                        }
                        if seen == hashes {
                            state = State::Normal;
                            for _ in i..j {
                                out.push(' ');
                            }
                            i = j;
                        } else {
                            out.push(' ');
                            i += 1;
                        }
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
            }
        }
        lines.push(out);
    }
    lines
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Finds `token` in `line` at an identifier boundary (so `unsafe` never
/// matches inside `unsafe_code`). Tokens may contain `::`.
fn has_token(line: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(token) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !is_ident_char(line[..abs].chars().next_back().unwrap_or(' '));
        let after = line[abs + token.len()..].chars().next();
        let after_ok = !after.is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = abs + token.len();
    }
    false
}

/// Whether the raw line (or one of the `window` raw lines before it)
/// carries an inline `// simlint: allow(<code>)` directive.
fn inline_allowed(raw: &[&str], idx: usize, code: &str) -> bool {
    let needle = format!("simlint: allow({code})");
    let from = idx.saturating_sub(1);
    raw[from..=idx].iter().any(|l| l.contains(&needle))
}

/// Whether a `// SAFETY:` comment appears on the line or within the 3
/// preceding lines.
fn has_safety_comment(raw: &[&str], idx: usize) -> bool {
    let from = idx.saturating_sub(3);
    raw[from..=idx].iter().any(|l| l.contains("// SAFETY:"))
}

/// Scans one file's source text. `deterministic` enables the SL101-104
/// rules (hot-path files); the `unsafe` audit (SL105) always runs.
/// Returns the findings not excused inline.
#[must_use]
pub fn scan_source(path: &str, source: &str, deterministic: bool) -> Vec<SourceDiagnostic> {
    let stripped = strip_source(source);
    scan_stripped(path, source, &stripped, deterministic).0
}

/// [`scan_source`] over the file's `stripped` lines (its source passed
/// through [`strip_source`] once), plus the file's raw lock acquisition
/// pairs, which the workspace scanner merges for the cross-file SL201
/// check.
fn scan_stripped(
    path: &str,
    source: &str,
    stripped: &[String],
    deterministic: bool,
) -> (Vec<SourceDiagnostic>, Vec<LockPair>) {
    let raw: Vec<&str> = source.lines().collect();
    let tree = FileTree::parse(stripped);
    // The semantic pass runs first: its SL107 verdicts mask the text
    // fallback on the lines where receiver provenance is known.
    let sem = scan_semantic(path, &tree, &raw, deterministic);
    let mask = tree.test_lines(stripped.len());
    let mut out = Vec::new();
    let push = |code: &'static str,
                    severity: &'static str,
                    idx: usize,
                    message: String,
                    out: &mut Vec<SourceDiagnostic>| {
        if !inline_allowed(&raw, idx, code) {
            out.push(SourceDiagnostic {
                code,
                severity,
                path: path.to_owned(),
                line: idx + 1,
                message,
            });
        }
    };
    for (idx, line) in stripped.iter().enumerate() {
        if deterministic && !mask[idx] {
            for container in ["HashMap", "HashSet"] {
                if has_token(line, container) {
                    push(
                        "SL101",
                        "error",
                        idx,
                        format!(
                            "{container} in deterministic code: iteration order is \
                             nondeterministic; use Vec or BTreeMap"
                        ),
                        &mut out,
                    );
                }
            }
            if has_token(line, "Instant::now") || has_token(line, "SystemTime") {
                push(
                    "SL102",
                    "error",
                    idx,
                    "wall-clock read in deterministic code: results must depend \
                     only on the seed"
                        .to_owned(),
                    &mut out,
                );
            }
            for rng in ["thread_rng", "rand::random", "from_entropy", "OsRng"] {
                if has_token(line, rng) {
                    push(
                        "SL103",
                        "error",
                        idx,
                        format!(
                            "ambient RNG `{rng}` in deterministic code: all randomness \
                             must flow from the seeded RngTree"
                        ),
                        &mut out,
                    );
                }
            }
            let unordered = [".values()", ".keys()", "par_iter"]
                .iter()
                .any(|p| line.contains(p));
            let reduces = [".sum::<f64>", ".sum::<f32>", ".fold("]
                .iter()
                .any(|p| line.contains(p));
            if unordered && reduces {
                push(
                    "SL104",
                    "error",
                    idx,
                    "float reduction over an unordered iterator: summation order \
                     changes the result bits; collect and sort (or iterate a Vec) first"
                        .to_owned(),
                    &mut out,
                );
            }
        }
        if has_token(line, "unsafe") && !has_safety_comment(&raw, idx) {
            push(
                "SL105",
                "error",
                idx,
                "unsafe without a `// SAFETY:` comment in the 3 preceding lines"
                    .to_owned(),
                &mut out,
            );
        }
        // SL107 applies to every crate's `src/` tree, not just the
        // deterministic ones — a swallowed worker panic loses its
        // payload anywhere. `.join()` with empty parens is the
        // `JoinHandle` signature; `Path::join("x")` takes an argument
        // and never matches. Tests may unwrap joins freely.
        if !mask[idx]
            && path.contains("/src/")
            && !sem.sl107_claimed.contains(&(idx + 1))
            && line.contains(".join()")
            && (line.contains(".unwrap()") || line.contains(".expect("))
        {
            push(
                "SL107",
                "error",
                idx,
                "bare unwrap/expect on JoinHandle::join: a worker panic loses its \
                 payload and origin; match the Err and re-panic with the payload \
                 plus shard/job context"
                    .to_owned(),
                &mut out,
            );
        }
        // SL109 protects the surrogate tier's fallback rules: in the
        // experiment core and the serving layer every ring must be
        // constructed through `EntropySource::build` (or the metered
        // `measure` helpers), never by calling `RingStream::build`
        // directly — a direct call silently ignores the spec's
        // `SourceBackend` request and the boundary/fault fallback
        // logic. The rings crate itself (where the selector lives) and
        // tests are exempt.
        if !mask[idx]
            && (path.starts_with("crates/serve/") || path.starts_with("crates/core/"))
            && path.contains("/src/")
            && line.contains("RingStream::build")
        {
            push(
                "SL109",
                "error",
                idx,
                "direct RingStream::build bypasses the SourceBackend selector: \
                 construct rings through EntropySource::build so surrogate \
                 requests and their fallback rules are honored"
                    .to_owned(),
                &mut out,
            );
        }
    }
    // Semantic findings (provenance-aware SL107, the guard rules and
    // SL2xx) and intra-file lock-order conflicts go through the same
    // inline-directive filter as the line rules.
    let keep = |d: &SourceDiagnostic| !inline_allowed(&raw, d.line.saturating_sub(1), d.code);
    for d in sem.diagnostics {
        if keep(&d) {
            out.push(d);
        }
    }
    for (d, _) in lock_conflicts(&sem.lock_pairs) {
        if keep(&d) {
            out.push(d);
        }
    }
    out.sort_by(|a, b| (a.line, a.code).cmp(&(b.line, b.code)));
    (out, sem.lock_pairs)
}

/// Checks the per-crate `unsafe` gate (SL106): a crate with no unsafe
/// anywhere must say so in its root with `#![forbid(unsafe_code)]` (or
/// `deny`), so a future unsafe block cannot slip in unreviewed.
/// `root_lines` is the root file passed through [`strip_source`].
fn check_crate_gate(
    root_path: &str,
    root_lines: &[String],
    crate_has_unsafe: bool,
) -> Option<SourceDiagnostic> {
    if crate_has_unsafe {
        return None;
    }
    let gated = root_lines.iter().any(|l| {
        l.contains("#![forbid(unsafe_code)]") || l.contains("#![deny(unsafe_code)]")
    });
    if gated {
        return None;
    }
    Some(SourceDiagnostic {
        code: "SL106",
        severity: "warning",
        path: root_path.to_owned(),
        line: 1,
        message: "crate has no unsafe code but its root lacks \
                  #![forbid(unsafe_code)]"
            .to_owned(),
    })
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_label(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn crate_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for group in ["crates", "vendor"] {
        let base = root.join(group);
        if !base.is_dir() {
            continue;
        }
        let mut entries: Vec<PathBuf> = fs::read_dir(&base)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        dirs.extend(entries);
    }
    Ok(dirs)
}

/// Scans the whole workspace at `root`: determinism rules over the
/// [`DETERMINISTIC_CRATES`] `src/` trees, the `unsafe` audit over every
/// crate (including vendored stubs, the root meta-crate, examples and
/// integration tests), and the per-crate gate check.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn scan_workspace(root: &Path) -> io::Result<ScanReport> {
    // simlint itself is not a deterministic crate: wall-clock timing
    // here feeds the report's `scan_ms`, nothing else.
    let started = std::time::Instant::now();
    let mut report = ScanReport::default();
    let mut lock_pairs: Vec<LockPair> = Vec::new();
    // Scans every `.rs` file under `dir`: whether any holds an `unsafe`
    // token, and the stripped lines of `gate_root` if it is among them.
    let mut scan_tree = |dir: &Path,
                         deterministic: bool,
                         gate_root: &Path,
                         report: &mut ScanReport|
     -> io::Result<(bool, Option<Vec<String>>)> {
        let mut files = Vec::new();
        rs_files(dir, &mut files)?;
        let mut saw_unsafe = false;
        let mut root_lines = None;
        for file in files {
            let source = fs::read_to_string(&file)?;
            let label = rel_label(root, &file);
            report.files_scanned += 1;
            let stripped = strip_source(&source);
            saw_unsafe |= stripped.iter().any(|l| has_token(l, "unsafe"));
            let (diags, pairs) = scan_stripped(&label, &source, &stripped, deterministic);
            report.diagnostics.extend(diags);
            lock_pairs.extend(pairs);
            if file == gate_root {
                root_lines = Some(stripped);
            }
        }
        Ok((saw_unsafe, root_lines))
    };

    // Every member crate, then the root meta-crate with the workspace
    // examples and integration tests.
    let mut units: Vec<(PathBuf, &[&str])> = crate_dirs(root)?
        .into_iter()
        .map(|dir| (dir, &["src", "benches", "tests", "examples"][..]))
        .collect();
    units.push((root.to_path_buf(), &["src", "examples", "tests"]));
    for (crate_dir, subs) in units {
        let deterministic = DETERMINISTIC_CRATES.contains(&rel_label(root, &crate_dir).as_str());
        // The crate root, which carries the gate: `src/lib.rs`, else
        // `src/main.rs`.
        let lib = crate_dir.join("src/lib.rs");
        let gate_root = if lib.is_file() {
            lib
        } else {
            crate_dir.join("src/main.rs")
        };
        let mut crate_has_unsafe = false;
        let mut root_lines = None;
        for sub in subs {
            // Determinism rules cover only `src/`; a crate's benches
            // and integration tests may use wall clocks freely.
            let det = deterministic && *sub == "src";
            let (saw_unsafe, lines) =
                scan_tree(&crate_dir.join(sub), det, &gate_root, &mut report)?;
            crate_has_unsafe |= saw_unsafe;
            root_lines = root_lines.or(lines);
        }
        if let Some(lines) = root_lines {
            report.diagnostics.extend(check_crate_gate(
                &rel_label(root, &gate_root),
                &lines,
                crate_has_unsafe,
            ));
        }
    }
    // Cross-file SL201: merge every serve-layer acquisition pair and
    // look for order conflicts spanning files. Conflicts already
    // reported per-file (both orders in one file) are skipped by key.
    let mut intra_keys: BTreeSet<(String, String)> = BTreeSet::new();
    let mut by_path: BTreeMap<&str, Vec<LockPair>> = BTreeMap::new();
    for p in &lock_pairs {
        by_path.entry(p.path.as_str()).or_default().push(p.clone());
    }
    for pairs in by_path.values() {
        intra_keys.extend(lock_conflicts(pairs).into_iter().map(|(_, k)| k));
    }
    for (d, key) in lock_conflicts(&lock_pairs) {
        if !intra_keys.contains(&key) {
            report.diagnostics.push(d);
        }
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.code).cmp(&(&b.path, b.line, b.code)));
    report.scan_ms = started.elapsed().as_millis();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_det(source: &str) -> Vec<SourceDiagnostic> {
        scan_source("crates/sim/src/x.rs", source, true)
    }

    #[test]
    fn hash_containers_fire_sl101() {
        let diags = scan_det("use std::collections::HashMap;\nlet m = HashMap::new();\n");
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == "SL101"));
        assert_eq!(diags[0].line, 1);
    }

    #[test]
    fn wall_clock_fires_sl102() {
        let diags = scan_det("let t = Instant::now();\nlet s = SystemTime::now();\n");
        assert_eq!(diags.iter().filter(|d| d.code == "SL102").count(), 2);
    }

    #[test]
    fn ambient_rng_fires_sl103() {
        let diags = scan_det("let mut rng = thread_rng();\nlet x: u8 = rand::random();\n");
        assert_eq!(diags.iter().filter(|d| d.code == "SL103").count(), 2);
    }

    #[test]
    fn unordered_reduction_fires_sl104() {
        let diags = scan_det("let s: f64 = map.values().sum::<f64>();\n");
        assert_eq!(diags.iter().filter(|d| d.code == "SL104").count(), 1);
        // Ordered reductions are fine.
        assert!(scan_det("let s: f64 = vec.iter().sum::<f64>();\n").is_empty());
    }

    #[test]
    fn unsafe_without_safety_fires_sl105_everywhere() {
        let source = "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n";
        let det = scan_source("crates/sim/src/x.rs", source, true);
        let non_det = scan_source("crates/bench/src/x.rs", source, false);
        assert_eq!(det.iter().filter(|d| d.code == "SL105").count(), 1);
        assert_eq!(non_det.iter().filter(|d| d.code == "SL105").count(), 1);
    }

    #[test]
    fn join_unwrap_fires_sl107() {
        let diags = scan_det("let stats = handle.join().unwrap();\n");
        assert_eq!(diags.iter().filter(|d| d.code == "SL107").count(), 1);
        let diags = scan_det("let stats = handle.join().expect(\"worker died\");\n");
        assert_eq!(diags.iter().filter(|d| d.code == "SL107").count(), 1);
        // SL107 is not a determinism rule: it fires in any crate's src/.
        let bench = scan_source("crates/bench/src/x.rs", "handle.join().unwrap();\n", false);
        assert_eq!(bench.iter().filter(|d| d.code == "SL107").count(), 1);
    }

    #[test]
    fn path_join_and_tests_are_exempt_from_sl107() {
        // `Path::join` takes an argument — never matches the empty-paren
        // `JoinHandle::join` signature.
        assert!(scan_det("let p = root.join(\"src\").join(\"lib.rs\");\n").is_empty());
        assert!(scan_det("let s = parts.join(\", \"); s.parse().unwrap();\n").is_empty());
        // Integration tests and benches live outside src/.
        let outside = scan_source(
            "crates/sim/tests/determinism.rs",
            "handle.join().unwrap();\n",
            false,
        );
        assert!(outside.is_empty());
        // #[cfg(test)] regions inside src/ may unwrap joins freely.
        let in_test_mod = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { handle.join().unwrap(); }\n",
            "}\n",
        );
        assert!(scan_det(in_test_mod).is_empty());
        // Vetted propagation sites carry the inline directive.
        let allowed = "handle.join().unwrap() // simlint: allow(SL107) re-panics above\n";
        assert!(scan_det(allowed).is_empty());
    }

    #[test]
    fn unguarded_blocking_reads_fire_sl108_only_in_the_serving_layer() {
        let scan_serve = |source: &str| scan_source("crates/serve/src/x.rs", source, false);
        for bad in [
            "fn f() {\n    let msg = rx.recv().map_err(drop);\n}\n",
            "fn f() {\n    let (stream, _) = listener.accept()?;\n}\n",
            "fn f() {\n    stream.read_exact(&mut buf)?;\n}\n",
            "fn f() {\n    let frame = wire::read_frame(&mut stream)?;\n}\n",
            // A liveness comment 4 lines above the call is out of reach.
            "fn f() {\n    // Bounded by the read timeout.\n    let a = 1;\n    let b = 2;\n    let c = 3;\n    let m = rx.recv();\n}\n",
            // A guard in the previous function's body is not in scope.
            "fn a() {\n    let timeout = 1;\n}\nfn b() {\n    rx.recv();\n}\n",
        ] {
            let diags = scan_serve(bad);
            assert_eq!(
                diags.iter().filter(|d| d.code == "SL108").count(),
                1,
                "{bad:?} must fire SL108, got {diags:?}"
            );
        }
        // A dominating guard on the line or within the 3 preceding
        // lines excuses the read; comments count.
        for good in [
            "fn f() {\n    let msg = rx.recv_timeout(TICK);\n}\n",
            "fn f() {\n    listener.set_nonblocking(true)?;\n    let (stream, _) = listener.accept()?;\n}\n",
            "fn f() {\n    // Bounded by the caller-armed read timeout.\n    stream.read_exact(&mut buf)?;\n}\n",
            "fn f() {\n    if shutdown.load(Ordering::Relaxed) { return; }\n    let m = rx.recv().ok();\n}\n",
        ] {
            assert!(scan_serve(good).is_empty(), "{good:?} fired: {:?}", scan_serve(good));
        }
        // The rule is scoped: other crates and serve's own tests are
        // free to block.
        let elsewhere = scan_source(
            "crates/core/src/x.rs",
            "fn f() {\n    let msg = rx.recv().unwrap_or(0);\n}\n",
            false,
        );
        assert!(elsewhere.iter().all(|d| d.code != "SL108"));
        let in_tests = scan_source(
            "crates/serve/tests/x.rs",
            "fn f() {\n    let msg = rx.recv().unwrap_or(0);\n}\n",
            false,
        );
        assert!(in_tests.iter().all(|d| d.code != "SL108"));
        let in_test_mod = scan_serve(concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t(rx: Rx) { let _ = rx.recv(); }\n",
            "}\n",
        ));
        assert!(in_test_mod.is_empty(), "{in_test_mod:?}");
    }

    #[test]
    fn ring_stream_bypass_fires_sl109_in_the_selector_scoped_crates() {
        let bad = "let s = RingStream::build(&config, &board, seed, None)?;\n";
        for scoped in ["crates/serve/src/source.rs", "crates/core/src/pool.rs"] {
            let diags = scan_source(scoped, bad, false);
            assert_eq!(
                diags.iter().filter(|d| d.code == "SL109").count(),
                1,
                "{scoped} must fire SL109, got {diags:?}"
            );
        }
        // The rings crate owns the selector and the stream; it may
        // construct freely, as may tests anywhere.
        for exempt in [
            "crates/rings/src/surrogate.rs",
            "crates/serve/tests/pool.rs",
            "crates/core/benches/x.rs",
        ] {
            let diags = scan_source(exempt, bad, false);
            assert!(diags.iter().all(|d| d.code != "SL109"), "{exempt}: {diags:?}");
        }
        let in_test_mod = scan_source(
            "crates/serve/src/source.rs",
            concat!(
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    fn t() { let _ = RingStream::build(&c, &b, 1, None); }\n",
                "}\n",
            ),
            false,
        );
        assert!(in_test_mod.is_empty(), "{in_test_mod:?}");
        // Going through the selector is exactly what the rule wants.
        let good = "let s = EntropySource::build(&config, &board, seed, None, backend)?;\n";
        assert!(scan_source("crates/serve/src/source.rs", good, false).is_empty());
    }

    #[test]
    fn thread_spawn_fires_sl110_in_the_serving_layer() {
        let scan_serve = |src: &str| {
            scan_source("crates/serve/src/server.rs", src, false)
                .into_iter()
                .filter(|d| d.code == "SL110")
                .collect::<Vec<_>>()
        };
        // The per-connection pattern, both spellings.
        for bad in [
            "fn f() {\n    std::thread::spawn(move || handle(stream));\n}\n",
            "fn f() {\n    let h = thread::Builder::new()\n        .spawn(move || handle(stream));\n}\n",
        ] {
            assert_eq!(scan_serve(bad).len(), 1, "{bad:?} must fire once");
        }
        // A dominating lifecycle token on the line or within the 3
        // preceding raw lines excuses the spawn; thread names and
        // comments count, case-insensitively.
        for good in [
            "fn f() {\n    let h = thread::Builder::new()\n        .name(\"strent-serve-event-loop\".to_owned())\n        .spawn(run)?;\n}\n",
            "fn f() {\n    let h = thread::Builder::new()\n        .name(format!(\"strent-serve-worker-{w}\"))\n        .spawn(work)?;\n}\n",
            "fn f() {\n    // Startup spawn: one scheduler thread per service.\n    let h = thread::spawn(run);\n}\n",
            "fn f() {\n    let name = format!(\"strent-serve-shard-{k}\");\n    let h = builder.spawn(run)?;\n}\n",
        ] {
            assert!(scan_serve(good).is_empty(), "{good:?} fired: {:?}", scan_serve(good));
        }
        // The rule is scoped: other crates and serve's own tests may
        // spawn freely (the load harness and drills need threads).
        let elsewhere = scan_source(
            "crates/bench/src/bin/serve_load.rs",
            "fn f() {\n    std::thread::spawn(move || handle(stream));\n}\n",
            false,
        );
        assert!(elsewhere.iter().all(|d| d.code != "SL110"));
        let in_tests = scan_source(
            "crates/serve/tests/sharding.rs",
            "fn f() {\n    std::thread::spawn(move || handle(stream));\n}\n",
            false,
        );
        assert!(in_tests.iter().all(|d| d.code != "SL110"));
        let in_test_mod = scan_serve(concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { std::thread::spawn(|| ()); }\n",
            "}\n",
        ));
        assert!(in_test_mod.is_empty(), "{in_test_mod:?}");
    }

    #[test]
    fn naked_catch_unwind_fires_sl111_in_the_serving_layer() {
        let scan_serve = |src: &str| {
            scan_source("crates/serve/src/scheduler.rs", src, false)
                .into_iter()
                .filter(|d| d.code == "SL111")
                .collect::<Vec<_>>()
        };
        // The naked catch: the panic is swallowed with no discipline.
        for bad in [
            "fn f() {\n    let r = std::panic::catch_unwind(body);\n}\n",
            "fn f() {\n    let r = catch_unwind(AssertUnwindSafe(|| job.run()));\n}\n",
            // A token in a sibling branch two lines up does not govern
            // the catch.
            "fn f(x: bool) {\n    if x {\n        log(\"restart pending\");\n    }\n    let r = catch_unwind(run);\n}\n",
        ] {
            assert_eq!(scan_serve(bad).len(), 1, "{bad:?} must fire once");
        }
        // A dominating supervision token on the line or within the 3
        // preceding raw lines excuses the catch; comments count,
        // ignoring case.
        for good in [
            "fn f() {\n    // The restart-with-backoff supervision boundary.\n    let r = catch_unwind(AssertUnwindSafe(&mut body));\n}\n",
            "fn f() {\n    let restarts = policy.max_restarts;\n    let r = std::panic::catch_unwind(body);\n}\n",
            "fn f() {\n    // Escalate after the window fills.\n    let r = catch_unwind(run);\n}\n",
        ] {
            assert!(
                scan_serve(good).is_empty(),
                "{good:?} fired: {:?}",
                scan_serve(good)
            );
        }
        // Scoped to serve src: other crates and serve's tests are free.
        let elsewhere = scan_source(
            "crates/bench/src/bin/serve_load.rs",
            "fn f() {\n    let r = std::panic::catch_unwind(body);\n}\n",
            false,
        );
        assert!(elsewhere.iter().all(|d| d.code != "SL111"));
        let in_tests = scan_source(
            "crates/serve/tests/hardening.rs",
            "fn f() {\n    let r = std::panic::catch_unwind(body);\n}\n",
            false,
        );
        assert!(in_tests.iter().all(|d| d.code != "SL111"));
        let in_test_mod = scan_serve(concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let _ = std::panic::catch_unwind(|| ()); }\n",
            "}\n",
        ));
        assert!(in_test_mod.is_empty(), "{in_test_mod:?}");
    }

    #[test]
    fn unacknowledged_entropy_estimate_fires_sl112_in_the_serving_layer() {
        let scan_serve = |src: &str| {
            scan_source("crates/serve/src/pool.rs", src, false)
                .into_iter()
                .filter(|d| d.code == "SL112")
                .collect::<Vec<_>>()
        };
        // Consuming the estimate with no word on the underfed case.
        for bad in [
            "fn f() {\n    let h = slot.estimator.entropy_rate();\n}\n",
            "fn f() {\n    let h = markov_min_entropy(&bits, 2).unwrap();\n}\n",
            // A note in a sibling branch two lines up does not govern
            // the read.
            "fn f(x: bool) {\n    if x {\n        // InsufficientData: no verdict yet.\n    }\n    let h = est.entropy_rate();\n}\n",
        ] {
            assert_eq!(scan_serve(bad).len(), 1, "{bad:?} must fire once");
        }
        // A dominating InsufficientData note on the line or within the
        // 3 preceding raw lines excuses the call; comments count, the
        // function's doc comment included.
        for good in [
            "fn f() {\n    // InsufficientData maps to None: no verdict yet.\n    let h = slot.estimator.entropy_rate();\n}\n",
            "fn f() {\n    // The typed InsufficientData case is \"no verdict yet\",\n    // never zero entropy.\n    let h = markov_min_entropy(&bits, 2)?;\n}\n",
            "/// `InsufficientData` maps to `None`: no verdict yet.\n#[must_use]\nfn entropy(&self) -> Option<u32> {\n    self.estimator.entropy_rate()\n}\n",
        ] {
            assert!(
                scan_serve(good).is_empty(),
                "{good:?} fired: {:?}",
                scan_serve(good)
            );
        }
        // Scoped to serve src: other crates and serve's tests are free.
        let elsewhere = scan_source(
            "crates/core/src/experiments/ext_entropy.rs",
            "fn f() {\n    let h = markov_min_entropy(&bits, 2)?;\n}\n",
            false,
        );
        assert!(elsewhere.iter().all(|d| d.code != "SL112"));
        let in_tests = scan_source(
            "crates/serve/tests/sharding.rs",
            "fn f() {\n    let h = est.entropy_rate();\n}\n",
            false,
        );
        assert!(in_tests.iter().all(|d| d.code != "SL112"));
        let in_test_mod = scan_serve(concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let _ = est.entropy_rate(); }\n",
            "}\n",
        ));
        assert!(in_test_mod.is_empty(), "{in_test_mod:?}");
    }

    #[test]
    fn safety_comment_satisfies_the_unsafe_audit() {
        let source = "// SAFETY: index bounds checked above.\nfn f() { unsafe { x() } }\n";
        assert!(scan_det(source).is_empty());
    }

    #[test]
    fn unsafe_code_attribute_is_not_an_unsafe_token() {
        assert!(scan_det("#![forbid(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let source = concat!(
            "// a HashMap in a comment\n",
            "/* Instant::now() in a block comment */\n",
            "let s = \"HashSet and thread_rng\";\n",
            "let r = r#\"SystemTime\"#;\n",
            "let c = '\\u{41}';\n",
        );
        assert!(scan_det(source).is_empty(), "{:?}", scan_det(source));
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_determinism_rules() {
        let source = concat!(
            "fn prod() {}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    use std::collections::HashSet;\n",
            "    fn t() { let _ = std::time::Instant::now(); }\n",
            "}\n",
        );
        assert!(scan_det(source).is_empty(), "{:?}", scan_det(source));
        // ...but code after the region is scanned again.
        let trailing = format!("{source}fn later() {{ let m = HashMap::new(); }}\n");
        let diags = scan_det(&trailing);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, "SL101");
        assert_eq!(diags[0].line, 7);
    }

    #[test]
    fn braces_in_format_strings_do_not_break_region_tracking() {
        let source = concat!(
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { let s = format!(\"{i}\"); }\n",
            "}\n",
            "fn prod() { let m = HashMap::new(); }\n",
        );
        let diags = scan_det(source);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn inline_allow_directive_excuses_a_site() {
        let same = "let t = Instant::now(); // simlint: allow(SL102)\n";
        assert!(scan_det(same).is_empty());
        let preceding =
            "// simlint: allow(SL102) wall-clock stats only\nlet t = Instant::now();\n";
        assert!(scan_det(preceding).is_empty());
        // The directive is code-specific.
        let wrong = "let t = Instant::now(); // simlint: allow(SL101)\n";
        assert_eq!(scan_det(wrong).len(), 1);
    }

    #[test]
    fn crate_gate_check_fires_only_without_unsafe_and_without_gate() {
        let plain = strip_source("pub fn f() {}\n");
        let missing = check_crate_gate("crates/x/src/lib.rs", &plain, false);
        assert_eq!(missing.expect("fires").code, "SL106");
        let gated = check_crate_gate(
            "crates/x/src/lib.rs",
            &strip_source("#![forbid(unsafe_code)]\npub fn f() {}\n"),
            false,
        );
        assert!(gated.is_none());
        let has_unsafe = check_crate_gate("crates/x/src/lib.rs", &plain, true);
        assert!(has_unsafe.is_none(), "crates with unsafe use SL105 instead");
    }

    #[test]
    fn json_shape_is_stable() {
        let report = ScanReport {
            files_scanned: 3,
            scan_ms: 12,
            diagnostics: vec![SourceDiagnostic {
                code: "SL101",
                severity: "error",
                path: "crates/sim/src/x.rs".into(),
                line: 7,
                message: "a \"quoted\" message".into(),
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"version\": 3"));
        assert!(json.contains("\"files_scanned\": 3"));
        assert!(json.contains("\"scan_ms\": 12"));
        assert!(!json.contains("suppressed"));
        assert!(json.contains("\"SL101\": 1"));
        // Every registry code is counted, zero or not, and nothing else.
        assert_eq!(report.rule_counts().len(), RULES.len());
        for r in &RULES[1..] {
            assert!(json.contains(&format!("\"{}\": 0", r.code)), "{}", r.code);
        }
        assert!(json.contains("\\\"quoted\\\""));
        let empty = ScanReport::default().to_json();
        assert!(empty.contains("\"diagnostics\": []"));
    }

    #[test]
    fn docs_tables_match_the_rule_registry() {
        // docs/static_analysis.md documents every rule in a
        // `| code | severity | scope | finding |` row; the rows and the
        // registry must agree in both directions.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let doc = fs::read_to_string(root.join("docs/static_analysis.md")).expect("docs");
        let documented: BTreeSet<(String, String, String)> = doc
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line.split('|').map(str::trim).collect();
                let [_, code, severity, scope, ..] = cells[..] else {
                    return None;
                };
                let word = |s: &str| {
                    !s.is_empty()
                        && s.chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_+-".contains(c))
                };
                (code.len() == 5 && code.starts_with("SL") && word(severity) && word(scope))
                    .then(|| (code.to_owned(), severity.to_owned(), scope.to_owned()))
            })
            .collect();
        let registered: BTreeSet<(String, String, String)> = RULES
            .iter()
            .map(|r| (r.code.to_owned(), r.severity.to_owned(), r.scope.to_owned()))
            .collect();
        assert_eq!(
            documented, registered,
            "docs/static_analysis.md drifted from RULES"
        );
    }

    #[test]
    fn fixtures_fire_every_source_code() {
        // Registry-driven: every rule must carry a fixture that fires
        // it, so a new code cannot land without fixture coverage.
        let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
        for r in &RULES {
            let source = fs::read_to_string(fixtures.join(r.fixture)).expect(r.fixture);
            if r.code == "SL106" {
                let diag = check_crate_gate(
                    "fixtures/missing_gate/src/lib.rs",
                    &strip_source(&source),
                    false,
                );
                assert_eq!(diag.expect("fires").code, "SL106");
                continue;
            }
            let label = format!("crates/{}/src/{}", r.fixture_crate, r.fixture);
            let diags = scan_source(&label, &source, true);
            assert!(
                diags.iter().any(|d| d.code == r.code),
                "{} must fire {}, got {diags:?}",
                r.fixture,
                r.code
            );
        }
        // The clean fixtures exercise every escape hatch and stay
        // quiet — clean.rs under the deterministic rules, clean_sl2xx.rs
        // under the serve-layer semantic rules.
        for (file, label) in [
            ("clean.rs", "crates/sim/src/clean.rs"),
            ("clean_sl2xx.rs", "crates/serve/src/clean_sl2xx.rs"),
        ] {
            let clean = fs::read_to_string(fixtures.join(file)).expect(file);
            let diags = scan_source(label, &clean, true);
            assert!(diags.is_empty(), "{file} fired: {diags:?}");
        }
        // The fixture set and the registry agree: every `.rs` file is a
        // rule's fixture or a clean one, and a crate-shaped directory
        // registers under its root path.
        let mut expected: BTreeSet<String> = RULES.iter().map(|r| r.fixture.to_owned()).collect();
        expected.extend(["clean.rs".to_owned(), "clean_sl2xx.rs".to_owned()]);
        let actual: BTreeSet<String> = fs::read_dir(&fixtures)
            .expect("fixtures dir")
            .filter_map(Result::ok)
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                if e.path().is_dir() {
                    format!("{name}/src/lib.rs")
                } else {
                    name
                }
            })
            .collect();
        assert_eq!(actual, expected, "fixture files and RULES disagree");
    }

    #[test]
    fn workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let report = scan_workspace(root).expect("scan succeeds");
        assert!(
            report.files_scanned > 40,
            "only {} files",
            report.files_scanned
        );
        assert!(
            report.is_clean(),
            "workspace has simlint findings:\n{}",
            report
                .diagnostics
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
