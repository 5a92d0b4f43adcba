//! The workload file format: a line-oriented description of an
//! adaptable task system.
//!
//! ```text
//! # Whisper-style burst on four processors
//! processors 4
//! horizon 100
//! scheme oi                    # oi | lj | hybrid-nth:2 |
//!                              # hybrid-threshold:1/2 | hybrid-budget:2/100
//! tiebreak asc                 # asc | desc
//! admission police             # police | trusting
//!
//! join     0  0   3/20         # task 0 joins at t=0 with weight 3/20
//! join     1  0   2/5
//! reweight 0  10  1/2          # task 0 wants weight 1/2 at t=10
//! delay    1  15  3            # task 1's next release slips 3 slots
//! leave    1  60
//! ```
//!
//! Blank lines and `#` comments are ignored. Directives may appear in
//! any order; later directives override earlier ones.

use pfair_core::rational::Rational;
use pfair_core::weight::Weight;
use pfair_sched::admission::AdmissionPolicy;
use pfair_sched::engine::SimConfig;
use pfair_sched::event::Workload;
use pfair_sched::priority::TieBreak;
use pfair_sched::reweight::{HybridPolicy, Scheme};
use std::fmt;

/// A parsed workload file: the simulation configuration plus events.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Engine configuration.
    pub config: SimConfig,
    /// The event stream.
    pub workload: Workload,
}

/// A parse failure with its line number (1-based).
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, what: impl Into<String>) -> ParseError {
    ParseError {
        line,
        what: what.into(),
    }
}

fn parse_fraction(s: &str) -> Result<Rational, String> {
    let (num, den) = s
        .split_once('/')
        .ok_or_else(|| format!("expected num/den fraction, got '{s}'"))?;
    let num: i128 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad numerator '{num}'"))?;
    let den: i128 = den
        .trim()
        .parse()
        .map_err(|_| format!("bad denominator '{den}'"))?;
    if den == 0 {
        return Err("zero denominator".into());
    }
    Ok(Rational::new(num, den))
}

fn parse_weight(s: &str, line: usize) -> Result<Weight, ParseError> {
    let r = parse_fraction(s).map_err(|what| err(line, what))?;
    Weight::try_new(r).map_err(|e| err(line, e.to_string()))
}

/// Parses a reweighting scheme: `oi`, `lj`, `hybrid-nth:N`,
/// `hybrid-threshold:A/B` or `hybrid-budget:B/W`. The `scheme`
/// directive and the `--scheme` flag of `pfair trace` / `pfair slo`
/// both read it.
pub fn parse_scheme(s: &str) -> Result<Scheme, String> {
    match s {
        "oi" => Ok(Scheme::Oi),
        "lj" => Ok(Scheme::LeaveJoin),
        _ => {
            if let Some(rest) = s.strip_prefix("hybrid-nth:") {
                let n: u32 = rest
                    .parse()
                    .map_err(|_| format!("bad hybrid-nth value '{rest}'"))?;
                Ok(Scheme::Hybrid(HybridPolicy::EveryNth(n.max(1))))
            } else if let Some(rest) = s.strip_prefix("hybrid-threshold:") {
                Ok(Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(
                    parse_fraction(rest)?,
                )))
            } else if let Some(rest) = s.strip_prefix("hybrid-budget:") {
                let (b, w) = rest
                    .split_once('/')
                    .ok_or("hybrid-budget needs budget/window")?;
                let budget: u32 = b.parse().map_err(|_| format!("bad budget '{b}'"))?;
                let window: i64 = w.parse().map_err(|_| format!("bad window '{w}'"))?;
                Ok(Scheme::Hybrid(HybridPolicy::OiBudget {
                    budget,
                    window: window.max(1),
                }))
            } else {
                Err(format!("unknown scheme '{s}'"))
            }
        }
    }
}

/// Parses a workload file's contents.
pub fn parse(input: &str) -> Result<Spec, ParseError> {
    let mut processors: u32 = 1;
    let mut horizon: i64 = 100;
    let mut scheme = Scheme::Oi;
    let mut tie_break = TieBreak::TaskIdAsc;
    let mut admission = AdmissionPolicy::Police;
    let mut workload = Workload::new();

    for (i, raw) in input.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let keyword = parts.next().unwrap();
        let rest: Vec<&str> = parts.collect();
        let need = |n: usize| -> Result<(), ParseError> {
            if rest.len() == n {
                Ok(())
            } else {
                Err(err(
                    line_no,
                    format!("'{}' needs {} arguments, got {}", keyword, n, rest.len()),
                ))
            }
        };
        match keyword {
            "processors" => {
                need(1)?;
                processors = rest[0]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad processor count '{}'", rest[0])))?;
                if processors == 0 {
                    return Err(err(line_no, "need at least one processor"));
                }
            }
            "horizon" => {
                need(1)?;
                horizon = rest[0]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad horizon '{}'", rest[0])))?;
                if horizon <= 0 {
                    return Err(err(line_no, "horizon must be positive"));
                }
            }
            "scheme" => {
                need(1)?;
                scheme = parse_scheme(rest[0]).map_err(|what| err(line_no, what))?;
            }
            "tiebreak" => {
                need(1)?;
                tie_break = match rest[0] {
                    "asc" => TieBreak::TaskIdAsc,
                    "desc" => TieBreak::TaskIdDesc,
                    other => return Err(err(line_no, format!("unknown tiebreak '{other}'"))),
                };
            }
            "admission" => {
                need(1)?;
                admission = match rest[0] {
                    "police" => AdmissionPolicy::Police,
                    "trusting" => AdmissionPolicy::Trusting,
                    other => return Err(err(line_no, format!("unknown admission '{other}'"))),
                };
            }
            "join" | "reweight" => {
                need(3)?;
                let task: u32 = rest[0]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad task id '{}'", rest[0])))?;
                let at: i64 = rest[1]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad time '{}'", rest[1])))?;
                let weight = parse_weight(rest[2], line_no)?;
                let r = weight.value();
                if keyword == "join" {
                    workload.join(task, at, r.numer(), r.denom());
                } else {
                    workload.reweight(task, at, r.numer(), r.denom());
                }
            }
            "leave" => {
                need(2)?;
                let task: u32 = rest[0]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad task id '{}'", rest[0])))?;
                let at: i64 = rest[1]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad time '{}'", rest[1])))?;
                workload.leave(task, at);
            }
            "delay" => {
                need(3)?;
                let task: u32 = rest[0]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad task id '{}'", rest[0])))?;
                let at: i64 = rest[1]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad time '{}'", rest[1])))?;
                let by: u32 = rest[2]
                    .parse()
                    .map_err(|_| err(line_no, format!("bad delay '{}'", rest[2])))?;
                workload.delay(task, at, by);
            }
            other => return Err(err(line_no, format!("unknown directive '{other}'"))),
        }
    }

    let config = SimConfig {
        processors,
        horizon,
        scheme,
        tie_break,
        admission,
        record_history: true,
        tickless: true,
        busy_span: true,
    };
    Ok(Spec { config, workload })
}

/// A documented sample workload file (printed by `pfair example`).
pub const EXAMPLE: &str = "\
# Sample adaptable task system: twenty weight-3/20 tasks on four
# processors; task 0 jumps to weight 1/2 at time 10 (fine-grained).
processors 4
horizon 100
scheme oi
tiebreak asc
admission police

join     0  0   3/20
join     1  0   3/20
join     2  0   3/20
join     3  0   3/20
join     4  0   3/20
join     5  0   3/20
join     6  0   3/20
join     7  0   3/20
reweight 0  10  1/2
delay    3  20  4
leave    7  50
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_parses() {
        let spec = parse(EXAMPLE).expect("example must parse");
        assert_eq!(spec.config.processors, 4);
        assert_eq!(spec.config.horizon, 100);
        assert_eq!(spec.config.scheme, Scheme::Oi);
        assert_eq!(spec.workload.task_count(), 8);
    }

    #[test]
    fn schemes_parse() {
        for (text, expect) in [
            ("scheme oi", Scheme::Oi),
            ("scheme lj", Scheme::LeaveJoin),
            (
                "scheme hybrid-nth:3",
                Scheme::Hybrid(HybridPolicy::EveryNth(3)),
            ),
            (
                "scheme hybrid-threshold:1/2",
                Scheme::Hybrid(HybridPolicy::MagnitudeThreshold(Rational::new(1, 2))),
            ),
            (
                "scheme hybrid-budget:2/100",
                Scheme::Hybrid(HybridPolicy::OiBudget {
                    budget: 2,
                    window: 100,
                }),
            ),
        ] {
            let spec = parse(text).unwrap();
            assert_eq!(spec.config.scheme, expect, "{text}");
        }
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let spec = parse("# nothing\n\n   # indented comment\njoin 0 0 1/2 # trailing\n").unwrap();
        assert_eq!(spec.workload.task_count(), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("processors 2\nbogus 1 2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.what.contains("bogus"));

        let e = parse("join 0 0 3-20\n").unwrap_err();
        assert!(e.what.contains("fraction"));

        let e = parse("join 0 0 3/2\n").unwrap_err();
        assert!(e.what.contains("outside"));

        let e = parse("horizon -4\n").unwrap_err();
        assert!(e.what.contains("positive") || e.what.contains("bad horizon"));

        let e = parse("join 0 0\n").unwrap_err();
        assert!(e.what.contains("needs 3"));
    }

    #[test]
    fn zero_processor_rejected() {
        assert!(parse("processors 0\n").is_err());
    }
}
