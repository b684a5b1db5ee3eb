//! `simlint` CLI — scans the workspace for determinism, concurrency
//! and `unsafe`-code hygiene violations (see `docs/static_analysis.md`).
//!
//! ```text
//! simlint [--root DIR] [--json]
//! ```
//!
//! - `--root DIR`  workspace root to scan (default: `.`)
//! - `--json`      emit the machine-readable report on stdout (version 3: per-rule counts + scan timing)
//!
//! Exit codes: 0 clean, 1 any finding, 2 usage/IO error. A vetted site
//! is excused only by an inline `// simlint: allow(<code>) <reason>`
//! directive. The fixture proof (every registered code fires) and the
//! docs-drift check are unit tests: `cargo test -p simlint`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::scan_workspace;

struct Options {
    root: PathBuf,
    json: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
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
            "--json" => opts.json = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args()?;
    let report = scan_workspace(&opts.root).map_err(|e| format!("scan failed: {e}"))?;
    if opts.json {
        print!("{}", report.to_json());
    } else {
        for d in &report.diagnostics {
            eprintln!("simlint: {d}");
        }
        eprintln!(
            "simlint: {} file(s) scanned in {} ms, {} finding(s)",
            report.files_scanned,
            report.scan_ms,
            report.diagnostics.len()
        );
    }
    if report.is_clean() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
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
