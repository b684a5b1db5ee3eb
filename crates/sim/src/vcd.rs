//! Value-change-dump (VCD) export of recorded waveforms.
//!
//! Produces standard IEEE 1364 VCD files viewable in GTKWave and similar
//! tools. Times are emitted with a `1 fs` timescale so sub-picosecond
//! jitter remains visible.

use std::io::{self, Write};

use crate::engine::Simulator;
use crate::signal::{Bit, NetId};
use crate::trace::TraceSet;

/// Generates the short identifier code VCD uses for the `n`-th variable.
fn id_code(mut n: usize) -> String {
    // Printable ASCII 33..=126, base-94, like commercial dumpers.
    let mut code = String::new();
    loop {
        code.push((33 + (n % 94)) as u8 as char);
        n /= 94;
        if n == 0 {
            break;
        }
        n -= 1;
    }
    code
}

/// Writes a trace set as a VCD document.
///
/// `name_of` maps each watched net to its display name; the `scope`
/// becomes the VCD module name.
///
/// # Errors
///
/// Propagates I/O errors from the writer. A mutable reference to any
/// `Write` implementor can be passed (`&mut Vec<u8>`, `&mut File`, ...).
pub fn write_vcd<W: Write>(
    mut writer: W,
    traces: &TraceSet,
    scope: &str,
    mut name_of: impl FnMut(NetId) -> String,
) -> io::Result<()> {
    writeln!(writer, "$date reproduction run $end")?;
    writeln!(writer, "$version strent-sim $end")?;
    writeln!(writer, "$timescale 1 fs $end")?;
    writeln!(writer, "$scope module {scope} $end")?;
    let nets: Vec<NetId> = traces.iter().map(|(net, _)| net).collect();
    for (i, &net) in nets.iter().enumerate() {
        writeln!(
            writer,
            "$var wire 1 {} {} $end",
            id_code(i),
            name_of(net)
        )?;
    }
    writeln!(writer, "$upscope $end")?;
    writeln!(writer, "$enddefinitions $end")?;

    writeln!(writer, "$dumpvars")?;
    for (i, &net) in nets.iter().enumerate() {
        let initial = traces.get(net).map_or(Bit::Low, |t| t.initial());
        writeln!(writer, "{}{}", u8::from(initial), id_code(i))?;
    }
    writeln!(writer, "$end")?;

    // Merge all transitions into one global time-ordered stream.
    let mut cursor: Vec<usize> = vec![0; nets.len()];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (i, &net) in nets.iter().enumerate() {
            let trace = traces.get(net).expect("net came from the trace set");
            if let Some(&(t, _)) = trace.transitions().get(cursor[i]) {
                let fs = (t.as_ps() * 1e3).round().max(0.0) as u64;
                if best.is_none_or(|(bt, _)| fs < bt) {
                    best = Some((fs, i));
                }
            }
        }
        let Some((fs, i)) = best else { break };
        let net = nets[i];
        let trace = traces.get(net).expect("net came from the trace set");
        let (_, value) = trace.transitions()[cursor[i]];
        cursor[i] += 1;
        writeln!(writer, "#{fs}")?;
        writeln!(writer, "{}{}", u8::from(value), id_code(i))?;
    }
    Ok(())
}

impl Simulator {
    /// Dumps all watched traces of this simulator as a VCD document.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_vcd<W: Write>(&self, writer: W, scope: &str) -> io::Result<()> {
        write_vcd(writer, self.traces(), scope, |net| {
            self.net_name(net).unwrap_or("?").to_owned()
        })
    }
}

/// A parsed single-bit VCD document (the subset [`write_vcd`] emits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcdDocument {
    /// `(identifier code, display name)` in declaration order.
    pub variables: Vec<(String, String)>,
    /// Initial level per identifier code, from `$dumpvars`.
    pub initial: Vec<(String, Bit)>,
    /// `(time in femtoseconds, identifier code, new level)` in stream
    /// order.
    pub changes: Vec<(u64, String, Bit)>,
}

/// Errors reported by [`parse_vcd`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseVcdError {
    /// A `$var` declaration was malformed.
    BadVariable(String),
    /// A `#` timestamp was not a number.
    BadTimestamp(String),
    /// A value-change line was malformed.
    BadChange(String),
    /// A change referenced an undeclared identifier code.
    UnknownCode(String),
}

impl std::fmt::Display for ParseVcdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseVcdError::BadVariable(line) => write!(f, "malformed $var line: {line}"),
            ParseVcdError::BadTimestamp(line) => write!(f, "malformed timestamp: {line}"),
            ParseVcdError::BadChange(line) => write!(f, "malformed value change: {line}"),
            ParseVcdError::UnknownCode(code) => write!(f, "undeclared identifier: {code}"),
        }
    }
}

impl std::error::Error for ParseVcdError {}

/// Parses the single-bit VCD subset produced by [`write_vcd`] — used for
/// round-trip verification of exported waveforms.
///
/// # Errors
///
/// Returns a [`ParseVcdError`] describing the first malformed line.
pub fn parse_vcd(text: &str) -> Result<VcdDocument, ParseVcdError> {
    let mut variables: Vec<(String, String)> = Vec::new();
    let mut initial = Vec::new();
    let mut changes = Vec::new();
    let mut in_dumpvars = false;
    let mut now_fs: u64 = 0;

    let parse_change = |line: &str| -> Result<(Bit, String), ParseVcdError> {
        let mut chars = line.chars();
        let value = match chars.next() {
            Some('0') => Bit::Low,
            Some('1') => Bit::High,
            _ => return Err(ParseVcdError::BadChange(line.to_owned())),
        };
        let code: String = chars.collect();
        if code.is_empty() {
            return Err(ParseVcdError::BadChange(line.to_owned()));
        }
        Ok((value, code))
    };

    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        if let Some(decl) = line.strip_prefix("$var ") {
            // "wire 1 <code> <name> $end"
            let fields: Vec<&str> = decl.split_whitespace().collect();
            if fields.len() != 5 || fields[0] != "wire" || fields[4] != "$end" {
                return Err(ParseVcdError::BadVariable(line.to_owned()));
            }
            variables.push((fields[2].to_owned(), fields[3].to_owned()));
        } else if line == "$dumpvars" {
            in_dumpvars = true;
        } else if line == "$end" && in_dumpvars {
            in_dumpvars = false;
        } else if let Some(ts) = line.strip_prefix('#') {
            now_fs = ts
                .parse()
                .map_err(|_| ParseVcdError::BadTimestamp(line.to_owned()))?;
        } else if line.starts_with('0') || line.starts_with('1') {
            let (value, code) = parse_change(line)?;
            if !variables.iter().any(|(c, _)| *c == code) {
                return Err(ParseVcdError::UnknownCode(code));
            }
            if in_dumpvars {
                initial.push((code, value));
            } else {
                changes.push((now_fs, code, value));
            }
        }
        // All other directives ($date, $timescale, $scope...) are
        // structural commentary for this subset.
    }
    Ok(VcdDocument {
        variables,
        initial,
        changes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSet;
    use crate::Time;

    #[test]
    fn id_codes_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..500 {
            let code = id_code(n);
            assert!(code.chars().all(|c| ('!'..='~').contains(&c)));
            assert!(seen.insert(code));
        }
        assert_eq!(id_code(0), "!");
        assert_eq!(id_code(94), "!!");
    }

    #[test]
    fn vcd_document_structure() {
        let mut traces = TraceSet::new();
        let a = NetId(0);
        let b = NetId(1);
        traces.watch(a, Bit::Low);
        traces.watch(b, Bit::High);
        traces.record(a, Time::from_ps(1.5), Bit::High);
        traces.record(b, Time::from_ps(2.0), Bit::Low);
        traces.record(a, Time::from_ps(3.0), Bit::Low);

        let mut out = Vec::new();
        write_vcd(&mut out, &traces, "top", |net| format!("sig{}", net.index()))
            .expect("write to Vec cannot fail");
        let text = String::from_utf8(out).expect("vcd is ascii");

        assert!(text.contains("$timescale 1 fs $end"));
        assert!(text.contains("$var wire 1 ! sig0 $end"));
        assert!(text.contains("$var wire 1 \" sig1 $end"));
        assert!(text.contains("$dumpvars"));
        // 1.5 ps -> 1500 fs, ordered before 2000 and 3000.
        let p1500 = text.find("#1500").expect("first change present");
        let p2000 = text.find("#2000").expect("second change present");
        let p3000 = text.find("#3000").expect("third change present");
        assert!(p1500 < p2000 && p2000 < p3000);
    }

    #[test]
    fn round_trip_preserves_every_transition() {
        let mut traces = TraceSet::new();
        let a = NetId(0);
        let b = NetId(1);
        traces.watch(a, Bit::High);
        traces.watch(b, Bit::Low);
        let script = [
            (a, 1.5, Bit::Low),
            (b, 2.0, Bit::High),
            (a, 3.25, Bit::High),
            (b, 3.25, Bit::Low),
            (a, 10.0, Bit::Low),
        ];
        for &(net, t, v) in &script {
            traces.record(net, Time::from_ps(t), v);
        }
        let mut out = Vec::new();
        write_vcd(&mut out, &traces, "rt", |net| format!("n{}", net.index()))
            .expect("write to Vec");
        let doc = parse_vcd(&String::from_utf8(out).expect("ascii")).expect("parses");

        assert_eq!(doc.variables.len(), 2);
        assert_eq!(doc.variables[0].1, "n0");
        assert_eq!(doc.initial.len(), 2);
        assert_eq!(doc.initial[0].1, Bit::High);
        assert_eq!(doc.changes.len(), script.len());
        // Every change matches, with ps -> fs timestamps.
        let code_of = |net: NetId| doc.variables[net.index()].0.clone();
        for (change, &(net, t, v)) in doc.changes.iter().zip(&script) {
            assert_eq!(change.0, (t * 1000.0).round() as u64);
            assert_eq!(change.1, code_of(net));
            assert_eq!(change.2, v);
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(matches!(
            parse_vcd("$var wire 1 ! $end"),
            Err(ParseVcdError::BadVariable(_))
        ));
        assert!(matches!(
            parse_vcd("#xyz"),
            Err(ParseVcdError::BadTimestamp(_))
        ));
        assert!(matches!(
            parse_vcd("$var wire 1 ! sig $end\n#5\n1\""),
            Err(ParseVcdError::UnknownCode(_))
        ));
        assert!(matches!(
            parse_vcd("$var wire 1 ! sig $end\n#5\n1"),
            Err(ParseVcdError::BadChange(_))
        ));
        // Error messages are informative.
        let err = parse_vcd("#bad").expect_err("must fail");
        assert!(err.to_string().contains("timestamp"));
    }

    #[test]
    fn simulator_convenience_dump() {
        let mut sim = Simulator::new(0);
        let n = sim.add_net("osc");
        sim.watch(n).expect("net exists");
        sim.inject(n, Bit::High, 10.0).expect("valid");
        sim.run_until(Time::from_ps(20.0)).expect("no limit");
        let mut out = Vec::new();
        sim.write_vcd(&mut out, "dut").expect("write to Vec");
        let text = String::from_utf8(out).expect("ascii");
        assert!(text.contains("$scope module dut $end"));
        assert!(text.contains("osc"));
        assert!(text.contains("#10000"));
    }
}
