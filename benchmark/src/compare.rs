//! `compare BASE.json NEW.json`: the no-regression check every later change
//! is read through. One row per (workload, end-to-end metric); the bounds
//! come from `BENCHMARK.json`, never from this file.

use crate::stats::quartile_spread;
use ensembler_tensor::JsonValue;
use std::error::Error;

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// One of the two runs did not hold still: its own quarters spread
    /// wider than the bound, so a difference of that size means nothing.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `base`. `spread` is the wider of the two runs'
/// quartile spreads over their four quarters.
pub fn verdict(base: f64, new: f64, lower_is_better: bool, bound: f64, spread: f64) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let ratio = new / base;
    let worsened_by = if lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    if worsened_by > bound {
        Verdict::Worse
    } else if worsened_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn text(value: &JsonValue) -> Result<&str, Box<dyn Error>> {
    match value {
        JsonValue::String(s) => Ok(s),
        other => Err(format!("expected a string, found {other:?}").into()),
    }
}

/// A metric's reading and the spread of its quarter readings in one result file.
fn reading(result: &JsonValue, workload: &str, metric: &str) -> Result<(f64, f64), Box<dyn Error>> {
    let run = result
        .require("workloads")?
        .require(workload)?
        .require("end_to_end")?;
    let value = run
        .require("metrics")?
        .require(metric)?
        .require("value")?
        .as_f64()?;
    let spread = match run.require("detail")?.require("quarters")?.get(metric) {
        Some(subs) => {
            let subs = subs
                .as_array()?
                .iter()
                .map(JsonValue::as_f64)
                .collect::<Result<Vec<_>, _>>()?;
            quartile_spread(&subs)
        }
        None => 0.0, // a single reading per run (peak memory)
    };
    Ok((value, spread))
}

/// Failed operations over operations attempted in a workload's untraced run,
/// and whether that run and the traced one both reported `correct`.
fn correctness(result: &JsonValue, workload: &str) -> Result<(f64, bool), Box<dyn Error>> {
    let runs = result.require("workloads")?.require(workload)?;
    let untraced = runs.require("end_to_end")?;
    let failed = untraced.require("failed")?.as_f64()?;
    let attempted = untraced.require("attempted")?.as_f64()?;
    let correct = [untraced, runs.require("per_layer")?]
        .iter()
        .map(|run| run.require("correct"))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .all(|c| c == &JsonValue::Bool(true));
    Ok((failed / attempted.max(1.0), correct))
}

/// Judges the `failed_share` row: any failure in the new run, or a new run
/// that is not `correct` (a gate or an exact count was off), is `worse` —
/// a faster wrong answer is not an improvement. The bound is "any increase".
pub fn failure_verdict(base_share: f64, new_share: f64, new_correct: bool) -> Verdict {
    if new_share > 0.0 || !new_correct {
        Verdict::Worse
    } else if base_share > 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the table; returns `Ok(false)` when any row is `worse`.
///
/// # Errors
///
/// Returns an error when a file lacks a workload or metric the spec lists.
pub fn run(spec: &JsonValue, base: &JsonValue, new: &JsonValue) -> Result<bool, Box<dyn Error>> {
    println!(
        "{:<20} {:<16} {:>12} {:>12} {:>9} {:>7} {:>8}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut none_worse = true;
    for workload in spec.require("workloads")?.as_array()? {
        let workload = text(workload.require("name")?)?;
        for metric in spec.require("end_to_end")?.as_array()? {
            let name = text(metric.require("name")?)?;
            let lower = text(metric.require("better")?)? == "lower";
            let bound = metric.require("bound")?.as_f64()?;
            let (base_value, base_spread) = reading(base, workload, name)?;
            let (new_value, new_spread) = reading(new, workload, name)?;
            let spread = base_spread.max(new_spread);
            let verdict = verdict(base_value, new_value, lower, bound, spread);
            none_worse &= verdict != Verdict::Worse;
            println!(
                "{workload:<20} {name:<16} {base_value:>12.4} {new_value:>12.4} {:>9.4} {bound:>7.3} {spread:>8.4}  {}",
                new_value / base_value,
                verdict.label()
            );
        }
        let (base_share, _) = correctness(base, workload)?;
        let (new_share, new_correct) = correctness(new, workload)?;
        let verdict = failure_verdict(base_share, new_share, new_correct);
        none_worse &= verdict != Verdict::Worse;
        println!(
            "{workload:<20} {:<16} {base_share:>12.6} {new_share:>12.6} {:>9} {:>7} {:>8}  {}{}",
            "failed_share",
            "-",
            "none",
            "-",
            verdict.label(),
            if new_correct {
                ""
            } else {
                " (new run not correct)"
            }
        );
    }
    Ok(none_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_and_bound() {
        // lower is better, 5 % bound
        assert_eq!(verdict(10.0, 10.4, true, 0.05, 0.0), Verdict::Same);
        assert_eq!(verdict(10.0, 10.6, true, 0.05, 0.0), Verdict::Worse);
        assert_eq!(verdict(10.0, 9.4, true, 0.05, 0.0), Verdict::Better);
        // higher is better: the same ratios flip
        assert_eq!(verdict(100.0, 94.0, false, 0.05, 0.0), Verdict::Worse);
        assert_eq!(verdict(100.0, 106.0, false, 0.05, 0.0), Verdict::Better);
        assert_eq!(verdict(100.0, 104.0, false, 0.05, 0.0), Verdict::Same);
    }

    #[test]
    fn a_run_noisier_than_the_bound_is_unresolved_not_unchanged() {
        assert_eq!(verdict(10.0, 10.0, true, 0.05, 0.06), Verdict::Unresolved);
        assert_eq!(verdict(10.0, 20.0, true, 0.05, 0.06), Verdict::Unresolved);
        assert_eq!(verdict(10.0, 10.0, true, 0.05, 0.05), Verdict::Same);
    }

    #[test]
    fn any_failure_or_an_incorrect_new_run_is_worse() {
        assert_eq!(failure_verdict(0.0, 0.0, true), Verdict::Same);
        assert_eq!(failure_verdict(0.0, 0.001, true), Verdict::Worse);
        // Still failing, even if less than before, does not pass the gate.
        assert_eq!(failure_verdict(0.5, 0.001, true), Verdict::Worse);
        // No operation failed but a gate or exact count was off.
        assert_eq!(failure_verdict(0.0, 0.0, false), Verdict::Worse);
        assert_eq!(failure_verdict(0.01, 0.0, true), Verdict::Better);
    }

    /// A result file with one workload whose timings are all 10 and whose
    /// correctness fields are as given.
    fn result_file(failed: f64, correct: bool, traced_correct: bool) -> JsonValue {
        let run = format!(
            r#"{{"correct": {correct}, "attempted": 100, "failed": {failed},
                "metrics": {{"predict_p50_ms": {{"value": 10.0, "unit": "ms"}}}},
                "detail": {{"quarters": {{"predict_p50_ms": [10.0, 10.0, 10.0, 10.0]}}}}}}"#
        );
        JsonValue::parse(&format!(
            r#"{{"workloads": {{"w": {{"end_to_end": {run},
                "per_layer": {{"correct": {traced_correct}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_fast_but_wrong_new_run_fails_the_comparison() {
        let spec = JsonValue::parse(
            r#"{"workloads": [{"name": "w"}], "end_to_end":
                [{"name": "predict_p50_ms", "better": "lower", "bound": 0.05}]}"#,
        )
        .unwrap();
        let good = result_file(0.0, true, true);
        assert!(run(&spec, &good, &good).unwrap());
        assert!(!run(&spec, &good, &result_file(1.0, false, true)).unwrap());
        assert!(!run(&spec, &good, &result_file(0.0, true, false)).unwrap());
    }
}
