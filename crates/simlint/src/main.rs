//! `simlint` CLI — scans the workspace for determinism, concurrency
//! and `unsafe`-code hygiene violations (see `docs/static_analysis.md`).
//!
//! ```text
//! simlint [--root DIR] [--allowlist FILE] [--baseline FILE]
//!         [--write-baseline FILE] [--deny] [--json]
//! ```
//!
//! - `--root DIR`             workspace root to scan (default: `.`)
//! - `--allowlist FILE`       vetted-site allowlist (default: `<root>/scripts/simlint.allow` if present)
//! - `--baseline FILE`        grandfathered findings to subtract (default: `<root>/scripts/simlint.baseline` if present); deny mode then fails only on NEW findings
//! - `--write-baseline FILE`  write the current findings in baseline format and exit
//! - `--deny`                 exit 1 on any non-grandfathered diagnostic (CI mode; default exits 0 and just prints)
//! - `--json`                 emit the machine-readable report on stdout (version 2: per-rule counts + scan timing)
//!
//! Exit codes: 0 clean (or warn mode), 1 findings under `--deny`, 2
//! usage/IO error. The fixture proof (every registered code fires) and
//! the docs-drift check are unit tests: `cargo test -p simlint`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{scan_workspace, Allowlist, Baseline};

struct Options {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    deny: bool,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        allowlist: None,
        baseline: None,
        write_baseline: None,
        deny: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = PathBuf::from(
                    args.next().ok_or_else(|| "--root needs a value".to_owned())?,
                );
            }
            "--allowlist" => {
                opts.allowlist = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--allowlist needs a value".to_owned())?,
                ));
            }
            "--baseline" => {
                opts.baseline = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--baseline needs a value".to_owned())?,
                ));
            }
            "--write-baseline" => {
                opts.write_baseline = Some(PathBuf::from(
                    args.next()
                        .ok_or_else(|| "--write-baseline needs a value".to_owned())?,
                ));
            }
            "--deny" => opts.deny = true,
            "--json" => opts.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let allowlist = match &opts.allowlist {
        Some(path) => Allowlist::load(path)?,
        None => {
            let default = opts.root.join("scripts/simlint.allow");
            if default.is_file() {
                Allowlist::load(&default)?
            } else {
                Allowlist::empty()
            }
        }
    };
    let baseline = match &opts.baseline {
        Some(path) => Baseline::load(path)?,
        None => {
            let default = opts.root.join("scripts/simlint.baseline");
            if default.is_file() {
                Baseline::load(&default)?
            } else {
                Baseline::empty()
            }
        }
    };
    let mut report = scan_workspace(&opts.root, &allowlist)
        .map_err(|e| format!("scan failed: {e}"))?;
    if let Some(path) = &opts.write_baseline {
        let text = Baseline::render(&report.diagnostics);
        std::fs::write(path, &text)
            .map_err(|e| format!("cannot write baseline {}: {e}", path.display()))?;
        eprintln!(
            "simlint: wrote {} grandfathered finding(s) to {}",
            report.diagnostics.len(),
            path.display()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = baseline.apply(&mut report);
    report.suppressed = outcome.suppressed;
    if opts.json {
        print!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            eprintln!("simlint: {d}");
        }
        for (path, code, unused) in &outcome.stale {
            eprintln!(
                "simlint: stale baseline entry {path} {code}: {unused} grandfathered \
                 finding(s) no longer occur — shrink the entry"
            );
        }
        eprintln!(
            "simlint: {} file(s) scanned in {} ms, {} finding(s), {} grandfathered",
            report.files_scanned,
            report.scan_ms,
            report.diagnostics.len(),
            report.suppressed
        );
    }
    // Stale baseline entries fail deny mode too: the baseline must
    // shrink as sites get fixed, or it quietly grandfathers future
    // regressions.
    if opts.deny && (!report.is_clean() || !outcome.stale.is_empty()) {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("simlint: error: {message}");
            ExitCode::from(2)
        }
    }
}
