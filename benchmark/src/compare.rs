//! `compare A.json B.json`: per workload and metric, B against A.
//!
//! End-to-end metrics are judged against the bounds in `BENCHMARK.json`;
//! where the repetitions of either side spread wider than the bound
//! (distance between their quartiles over their median) the verdict is
//! `unresolved`, not `within`, unless every repetition of B reads better
//! than every repetition of A. Exact metrics (counters,
//! accuracy figures, input digests) must be identical. Per-layer timings
//! are listed with their change and carry no verdict.

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::stats;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `setup_s` is milliseconds on most workloads: below this many seconds a
/// difference is never a regression, whatever its share.
const SETUP_FLOOR_S: f64 = 0.01;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Exact metric, identical.
    Same,
    /// Exact metric, different: the two builds did different work.
    Differs,
    Within,
    Improved,
    Regressed,
    Unresolved,
    /// Per-layer timing: informational.
    Listed,
}

pub struct Sample {
    pub value: f64,
    pub reps: Vec<f64>,
}

pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A by which B is worse (negative: better).
    pub worse_by: f64,
    /// Wider quartile spread of the two sides' repetitions.
    pub spread: f64,
    pub bound: Option<f64>,
    pub verdict: Verdict,
}

pub fn judge(spec: &MetricSpec, bound: Option<f64>, a: &Sample, b: &Sample) -> (f64, f64, Verdict) {
    let sign = if spec.higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if a.value == 0.0 {
        0.0
    } else {
        sign * (b.value - a.value) / a.value.abs()
    };
    let spread = stats::quartile_spread(&a.reps).max(stats::quartile_spread(&b.reps));
    if spec.exact {
        let verdict = if a.value == b.value {
            Verdict::Same
        } else {
            Verdict::Differs
        };
        return (worse_by, spread, verdict);
    }
    let Some(bound) = bound else {
        return (worse_by, spread, Verdict::Listed);
    };
    let verdict = if spread > bound {
        let b_worst = b.reps.iter().map(|v| sign * v).fold(f64::MIN, f64::max);
        let a_best = a.reps.iter().map(|v| sign * v).fold(f64::MAX, f64::min);
        if !a.reps.is_empty() && !b.reps.is_empty() && b_worst < a_best {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if spec.name == "setup_s" && (b.value - a.value).abs() < SETUP_FLOOR_S {
        Verdict::Within
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Within
    };
    (worse_by, spread, verdict)
}

pub fn sample(run: &Json, metric: &str) -> Option<Sample> {
    let entry = run.get("metrics")?.get(metric)?;
    Some(Sample {
        value: entry.get("value")?.as_f64()?,
        reps: entry
            .get("reps")
            .map_or(&[][..], Json::as_arr)
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

/// `(workload, traced)` of a run entry.
fn key(run: &Json) -> (String, bool) {
    (
        run.get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        run.get("trace") == Some(&Json::Bool(true)),
    )
}

pub fn compare_docs(a: &Json, b: &Json, bounds: &BTreeMap<String, f64>) -> Vec<Row> {
    fn runs(doc: &Json) -> &[Json] {
        doc.get("runs").map_or(&[][..], Json::as_arr)
    }
    let mut rows = Vec::new();
    for run_a in runs(a) {
        let (workload, traced) = key(run_a);
        let Some(run_b) = runs(b)
            .iter()
            .find(|r| key(r) == (workload.clone(), traced))
        else {
            continue;
        };
        if !traced {
            // The inputs themselves: a changed generator is not a speed-up.
            let digest = |r: &Json| {
                r.get("input_digest")
                    .and_then(Json::as_str)
                    .map(str::to_string)
            };
            let same = digest(run_a) == digest(run_b);
            rows.push(Row {
                workload: workload.clone(),
                metric: "input_digest",
                a: 0.0,
                b: 0.0,
                worse_by: 0.0,
                spread: 0.0,
                bound: None,
                verdict: if same {
                    Verdict::Same
                } else {
                    Verdict::Differs
                },
            });
        }
        let specs: &[MetricSpec] = if traced {
            &spec::PER_LAYER
        } else {
            &spec::END_TO_END
        };
        for spec in specs {
            let (Some(sa), Some(sb)) = (sample(run_a, spec.name), sample(run_b, spec.name)) else {
                continue;
            };
            let bound = bounds.get(spec.name).copied();
            let (worse_by, spread, verdict) = judge(spec, bound, &sa, &sb);
            rows.push(Row {
                workload: workload.clone(),
                metric: spec.name,
                a: sa.value,
                b: sb.value,
                worse_by,
                spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

/// No regression and no exact metric differing. `Unresolved` passes: it
/// is reported, and settled by more runs, not by this tool.
pub fn passes(rows: &[Row]) -> bool {
    !rows
        .iter()
        .any(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Differs))
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<15} {:<46} {:>16} {:>16} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "worse by", "spread", "bound"
    );
    for r in rows {
        // Identical exact figures and untouched zeros are noise in the listing.
        if r.verdict == Verdict::Same || (r.verdict == Verdict::Listed && r.a == 0.0 && r.b == 0.0)
        {
            continue;
        }
        println!(
            "{:<15} {:<46} {:>16.6} {:>16.6} {:>8.2}% {:>7.2}% {:>6}  {:?}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
            r.verdict
        );
    }
    let same = rows.iter().filter(|r| r.verdict == Verdict::Same).count();
    println!("{same} exact figure(s) identical");
}

pub fn rows_to_json(rows: &[Row]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("workload", Json::str(&r.workload)),
                    ("metric", Json::str(r.metric)),
                    ("a", Json::Num(r.a)),
                    ("b", Json::Num(r.b)),
                    ("worse_by", Json::Num(r.worse_by)),
                    ("rep_spread", Json::Num(r.spread)),
                    ("bound", r.bound.map_or(Json::Null, Json::Num)),
                    ("verdict", Json::str(format!("{:?}", r.verdict))),
                ])
            })
            .collect(),
    )
}

/// The end-to-end bounds of the `BENCHMARK.json` beside this package.
pub fn load_bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text)?;
    Ok(doc
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two results files".to_string());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare_docs(&load(a)?, &load(b)?, &load_bounds()?);
    if rows.is_empty() {
        return Err("the two files share no run".to_string());
    }
    print_rows(&rows);
    Ok(if passes(&rows) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(value: f64, reps: &[f64]) -> Sample {
        Sample {
            value,
            reps: reps.to_vec(),
        }
    }

    fn verdict(name: &str, bound: Option<f64>, a: Sample, b: Sample) -> Verdict {
        judge(spec::find(name).unwrap(), bound, &a, &b).2
    }

    #[test]
    fn timing_verdicts_follow_the_bound() {
        let steady = |v: f64| sample(v, &[v * 0.99, v, v * 1.01]);
        let q = "quanta_per_s"; // higher is better
        assert_eq!(
            verdict(q, Some(0.1), steady(100.0), steady(95.0)),
            Verdict::Within
        );
        assert_eq!(
            verdict(q, Some(0.1), steady(100.0), steady(85.0)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(q, Some(0.1), steady(100.0), steady(120.0)),
            Verdict::Improved
        );
        let rss = "peak_rss_mb"; // lower is better, no repetitions
        assert_eq!(
            verdict(rss, Some(0.05), sample(100.0, &[]), sample(110.0, &[])),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(rss, Some(0.05), sample(100.0, &[]), sample(90.0, &[])),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_rep_is_better() {
        let q = "quanta_per_s";
        let noisy_a = sample(100.0, &[80.0, 100.0, 120.0]);
        let overlapping = sample(85.0, &[70.0, 85.0, 110.0]);
        assert_eq!(
            verdict(q, Some(0.1), noisy_a, overlapping),
            Verdict::Unresolved
        );
        let noisy_a = sample(100.0, &[80.0, 100.0, 120.0]);
        let all_better = sample(150.0, &[130.0, 150.0, 170.0]);
        assert_eq!(
            verdict(q, Some(0.1), noisy_a, all_better),
            Verdict::Improved
        );
    }

    #[test]
    fn exact_metrics_must_be_identical() {
        let c = "counters.heap_pops";
        assert_eq!(
            verdict(c, None, sample(5.0, &[]), sample(5.0, &[])),
            Verdict::Same
        );
        assert_eq!(
            verdict(c, None, sample(5.0, &[]), sample(6.0, &[])),
            Verdict::Differs
        );
    }

    #[test]
    fn small_setup_differences_sit_under_the_floor() {
        let a = sample(0.004, &[0.004, 0.004]);
        let b = sample(0.006, &[0.006, 0.006]);
        assert_eq!(verdict("setup_s", Some(0.25), a, b), Verdict::Within);
        let a = sample(0.40, &[0.40, 0.40]);
        let b = sample(0.60, &[0.60, 0.60]);
        assert_eq!(verdict("setup_s", Some(0.25), a, b), Verdict::Regressed);
    }

    #[test]
    fn per_layer_timings_are_listed_not_judged() {
        let v = verdict("shard.place_s", None, sample(1.0, &[]), sample(2.0, &[]));
        assert_eq!(v, Verdict::Listed);
    }

    #[test]
    fn docs_are_matched_by_workload_and_mode() {
        let run = |workload: &str, qps: f64, digest: &str| {
            Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Bool(false)),
                ("input_digest", Json::str(digest)),
                (
                    "metrics",
                    Json::obj([(
                        "quanta_per_s",
                        Json::obj([("value", Json::Num(qps)), ("reps", Json::nums(&[qps, qps]))]),
                    )]),
                ),
            ])
        };
        let doc = |runs: Vec<Json>| Json::obj([("runs", Json::Arr(runs))]);
        let bounds = BTreeMap::from([("quanta_per_s".to_string(), 0.1)]);
        let a = doc(vec![
            run("population", 100.0, "0x1"),
            run("steady_spans", 50.0, "0x2"),
        ]);
        let b = doc(vec![
            run("steady_spans", 30.0, "0x2"),
            run("population", 101.0, "0x9"),
        ]);
        let rows = compare_docs(&a, &b, &bounds);
        let find = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .unwrap()
        };
        assert_eq!(find("population", "quanta_per_s").verdict, Verdict::Within);
        assert_eq!(find("population", "input_digest").verdict, Verdict::Differs);
        assert_eq!(
            find("steady_spans", "quanta_per_s").verdict,
            Verdict::Regressed
        );
        assert!(!passes(&rows));
    }
}
