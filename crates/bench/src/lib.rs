//! # strent-bench — the reproduction harness
//!
//! * `repro_*` binaries — one per table/figure; each prints the same
//!   rows/series the paper reports. Pass `--quick` for a reduced run and
//!   `--seed N` to change the master seed.
//! * Criterion benches (`benches/`) — regeneration benchmarks per
//!   table/figure plus engine and TRNG ablations.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::process::ExitCode;

use strentropy::experiments::Effort;

/// Command-line options shared by all `repro_*` binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReproOptions {
    /// The simulation effort.
    pub effort: Effort,
    /// The master seed.
    pub seed: u64,
    /// Keep running after a section fails (multi-section binaries like
    /// `repro_all`): remaining sections still execute, failures are
    /// collected into a JSON report on stderr, and the exit code stays
    /// non-zero.
    pub keep_going: bool,
}

impl Default for ReproOptions {
    fn default() -> Self {
        ReproOptions {
            effort: Effort::Full,
            seed: strentropy::calibration::PAPER_SEED,
            keep_going: false,
        }
    }
}

impl ReproOptions {
    /// Parses `--quick`, `--full`, `--seed N` and, when
    /// `multi_section` is set, `--keep-going` from an argument
    /// iterator.
    ///
    /// Unknown arguments are reported on the returned `Err`. A
    /// single-experiment binary has no later section to keep going to,
    /// so it passes `multi_section = false` and `--keep-going` is
    /// refused there instead of being ignored.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown or malformed
    /// arguments.
    pub fn parse(args: impl Iterator<Item = String>, multi_section: bool) -> Result<Self, String> {
        let mut options = ReproOptions::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => options.effort = Effort::Quick,
                "--full" => options.effort = Effort::Full,
                "--keep-going" if multi_section => options.keep_going = true,
                "--seed" => {
                    let value = args
                        .next()
                        .ok_or_else(|| "--seed requires a value".to_owned())?;
                    options.seed = value
                        .parse()
                        .map_err(|_| format!("invalid seed: {value}"))?;
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(options)
    }
}

/// Renders the failure half of a multi-section run as deterministic
/// JSON: which sections failed and why, alongside the totals, for
/// `repro_all --keep-going`.
#[must_use]
pub fn section_failure_report(sections: usize, failures: &[(String, String)]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n");
    out.push_str(&format!("  \"sections\": {sections},\n"));
    out.push_str(&format!(
        "  \"completed\": {},\n",
        sections.saturating_sub(failures.len())
    ));
    out.push_str("  \"failures\": [");
    for (i, (section, error)) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"section\": \"{}\", \"error\": \"{}\"}}",
            escape_json(section),
            escape_json(error)
        ));
    }
    if failures.is_empty() {
        out.push_str("]\n}");
    } else {
        out.push_str("\n  ]\n}");
    }
    out
}

/// Escapes a string for embedding in a JSON literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Runs one experiment and prints its report — the body of every
/// `repro_*` binary.
pub fn repro_main<T: Display, E: Display>(
    name: &str,
    run: impl FnOnce(Effort, u64) -> Result<T, E>,
) -> ExitCode {
    let options = match ReproOptions::parse(std::env::args().skip(1), false) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}\nusage: {name} [--quick|--full] [--seed N]");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "# {name} ({:?} effort, seed {})",
        options.effort, options.seed
    );
    match run(options.effort, options.seed) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{name} failed: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ReproOptions, String> {
        ReproOptions::parse(args.iter().map(|s| (*s).to_owned()), true)
    }

    #[test]
    fn defaults_and_flags() {
        let o = parse(&[]).expect("valid");
        assert_eq!(o.effort, Effort::Full);
        assert_eq!(o.seed, strentropy::calibration::PAPER_SEED);
        let o = parse(&["--quick", "--seed", "7"]).expect("valid");
        assert_eq!(o.effort, Effort::Quick);
        assert_eq!(o.seed, 7);
        let o = parse(&["--full"]).expect("valid");
        assert_eq!(o.effort, Effort::Full);
    }

    #[test]
    fn bad_arguments_are_reported() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "abc"]).is_err());
    }

    #[test]
    fn keep_going_flag_parses() {
        assert!(!parse(&[]).expect("valid").keep_going);
        assert!(parse(&["--keep-going"]).expect("valid").keep_going);
    }

    #[test]
    fn single_experiment_binaries_refuse_keep_going() {
        let single =
            |args: &[&str]| ReproOptions::parse(args.iter().map(|s| (*s).to_owned()), false);
        assert_eq!(
            single(&["--quick", "--keep-going"]),
            Err("unknown argument: --keep-going".to_owned())
        );
        let o = single(&["--quick", "--seed", "7"]).expect("valid");
        assert_eq!((o.effort, o.seed, o.keep_going), (Effort::Quick, 7, false));
    }

    #[test]
    fn section_failure_report_shape() {
        let clean = section_failure_report(18, &[]);
        assert!(clean.contains("\"sections\": 18"));
        assert!(clean.contains("\"completed\": 18"));
        assert!(clean.contains("\"failures\": []"));
        let failures = vec![
            ("FIG5".to_owned(), "ring \"a\" died\n".to_owned()),
            ("TAB1".to_owned(), "nope".to_owned()),
        ];
        let report = section_failure_report(18, &failures);
        assert!(report.contains("\"completed\": 16"));
        assert!(report.contains("\\\"a\\\""), "quotes escaped: {report}");
        assert!(report.contains("\\n"), "newlines escaped");
        assert!(report.contains("\"section\": \"TAB1\""));
    }
}
