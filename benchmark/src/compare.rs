//! `tap-bench compare`: two sets of result files against the bounds in
//! `BENCHMARK.json`.
//!
//! One row per (end-to-end metric, workload): base median, new median, the
//! ratio with its base, and a verdict.
//!
//! * `worse` — the new median is worse than the base median by more than the
//!   metric's bound;
//! * `better` — every new run reads better than every base run, or (with one
//!   run a side) the new value is better by more than the bound;
//! * `unresolved` — neither, and the base runs spread wider than the bound,
//!   so "no change" cannot be told from a change of that size;
//! * `same` — neither, and the spread is within the bound.
//!
//! Simulated metrics, the digest and allocation counts are deterministic, so
//! they are also compared exactly and any difference is shown; for a change
//! that claims only to be faster, a `sim differs` line is a defect whatever
//! the verdict column says.

use std::fmt::Write as _;

use crate::json::Value;
use crate::stats::median_f64;

/// End-to-end metrics that are simulated, hence exactly repeatable.
const SIM_METRICS: [&str; 4] = [
    "virt_p50_ms",
    "virt_p99_ms",
    "delivered_frac",
    "wire_bytes_per_xfer",
];
/// Per-layer counts compared exactly (informational: they have no bound).
const EXACT_COUNTS: [&str; 4] = [
    "alloc.count_per_xfer",
    "alloc.bytes_per_xfer",
    "alloc.seal_count",
    "alloc.drive_count",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
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

/// Judge one metric. `base` and `new` hold one value per run; `bound` is the
/// share of the base median the metric may worsen by.
pub fn verdict(base: &[f64], new: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (mb, mn) = (
        median_f64(&mut base.to_vec()),
        median_f64(&mut new.to_vec()),
    );
    let scale = mb.abs().max(f64::MIN_POSITIVE);
    // Positive = worse, as a share of the base median.
    let worse_by = if higher_is_better { mb - mn } else { mn - mb } / scale;
    if worse_by > bound {
        return Verdict::Worse;
    }
    let better = |n: f64, b: f64| if higher_is_better { n > b } else { n < b };
    let all_better = new.iter().all(|n| base.iter().all(|b| better(*n, *b)));
    if all_better && (base.len() > 1 || -worse_by > bound) {
        return Verdict::Better;
    }
    let spread = base.iter().copied().fold(f64::MIN, f64::max)
        - base.iter().copied().fold(f64::MAX, f64::min);
    if base.len() > 1 && spread / scale > bound {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared(benchmark_json: &Value) -> Result<Vec<Declared>, String> {
    let metrics = benchmark_json
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    metrics
        .as_arr()
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "malformed end_to_end entry in BENCHMARK.json".to_string())
}

/// Values of `path` (keys from the workload object down) across `runs`.
fn values(runs: &[Value], workload: &str, path: &[&str]) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| {
            let mut v = r.get("workloads")?.get(workload)?;
            for key in path {
                v = v.get(key)?;
            }
            v.as_f64()
        })
        .collect()
}

fn digests(runs: &[Value], workload: &str) -> Vec<String> {
    runs.iter()
        .filter_map(|r| {
            Some(
                r.get("workloads")?
                    .get(workload)?
                    .get("sim_digest")?
                    .as_str()?
                    .to_string(),
            )
        })
        .collect()
}

fn all_equal<T: PartialEq>(items: &[T]) -> bool {
    items.windows(2).all(|w| w[0] == w[1])
}

/// The comparison table, and whether it holds a `worse` or a rise in the
/// failed share (the caller exits non-zero on that).
pub fn compare(
    benchmark_json: &Value,
    base: &[Value],
    new: &[Value],
) -> Result<(String, bool), String> {
    let declared = declared(benchmark_json)?;
    let workloads: Vec<String> = benchmark_json
        .get("workloads")
        .map(|w| w.as_arr())
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(String::from))
        .collect();
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<16} {:<22} {:>14} {:>14} {:>9}  {:<10} note",
        "workload", "metric", "base", "new", "new/base", "verdict"
    );
    for w in &workloads {
        for d in &declared {
            let path = ["end_to_end", d.name.as_str(), "value"];
            let (b, n) = (values(base, w, &path), values(new, w, &path));
            if b.is_empty() || n.is_empty() {
                let _ = writeln!(out, "{w:<16} {:<22} missing on one side", d.name);
                bad = true;
                continue;
            }
            let v = verdict(&b, &n, d.higher_is_better, d.bound);
            bad |= v == Verdict::Worse;
            let (mb, mn) = (median_f64(&mut b.clone()), median_f64(&mut n.clone()));
            let mut note = String::new();
            if SIM_METRICS.contains(&d.name.as_str()) {
                let together: Vec<f64> = b.iter().chain(&n).copied().collect();
                note = if all_equal(&together) {
                    "sim identical"
                } else {
                    "sim differs"
                }
                .to_string();
            }
            let _ = writeln!(
                out,
                "{w:<16} {:<22} {mb:>14.4} {mn:>14.4} {:>9.4}  {:<10} {note}",
                d.name,
                mn / mb,
                v.label()
            );
        }
        let (db, dn) = (digests(base, w), digests(new, w));
        let together: Vec<&String> = db.iter().chain(&dn).collect();
        let state = if all_equal(&together) {
            "identical"
        } else {
            "DIFFERS"
        };
        let _ = writeln!(
            out,
            "{w:<16} {:<22} {state} ({} runs)",
            "sim_digest",
            together.len()
        );
        for name in EXACT_COUNTS {
            let path = ["per_layer", name, "value"];
            let (b, n) = (values(base, w, &path), values(new, w, &path));
            // A count that is 0 on both sides belongs to a layer the workload
            // does not exercise.
            let (Some(b0), Some(n0)) = (b.first(), n.first()) else {
                continue;
            };
            if *b0 != 0.0 || *n0 != 0.0 {
                let state = match (all_equal(&b) && all_equal(&n), n0.total_cmp(b0)) {
                    (false, _) => "not repeatable",
                    (true, std::cmp::Ordering::Equal) => "same",
                    (true, std::cmp::Ordering::Less) => "fewer",
                    (true, std::cmp::Ordering::Greater) => "more",
                };
                let _ = writeln!(
                    out,
                    "{w:<16} {name:<22} {b0:>14.4} {n0:>14.4} {:>9.4}  (count)    {state}",
                    n0 / b0
                );
            }
        }
        let failed_share = |runs: &[Value]| {
            let failed: f64 = values(runs, w, &["failed"]).iter().sum();
            let attempted: f64 = values(runs, w, &["attempted"]).iter().sum();
            failed / attempted.max(1.0)
        };
        let (fb, fn_) = (failed_share(base), failed_share(new));
        if fn_ > fb {
            bad = true;
            let _ = writeln!(out, "{w:<16} failed share rose: {fb} -> {fn_}");
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // One run a side: the bound alone decides.
        assert_eq!(verdict(&[100.0], &[104.0], false, 0.1), Verdict::Same);
        assert_eq!(verdict(&[100.0], &[111.0], false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[85.0], false, 0.1), Verdict::Better);
        assert_eq!(verdict(&[100.0], &[85.0], true, 0.1), Verdict::Worse);
        // Several runs: every new run better than every base run.
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[97.0, 98.0, 96.0], false, 0.1),
            Verdict::Better
        );
        // Base spread wider than the bound and the sides overlap.
        assert_eq!(
            verdict(&[90.0, 100.0, 110.0], &[95.0, 101.0, 104.0], false, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&[99.0, 100.0, 101.0], &[100.0, 100.5, 99.5], false, 0.1),
            Verdict::Same
        );
        // A bound of zero: any worsening is worse.
        assert_eq!(verdict(&[1.0], &[0.999], true, 0.0), Verdict::Worse);
        assert_eq!(verdict(&[1.0], &[1.0], true, 0.0), Verdict::Same);
    }

    fn result(rate: f64, wire: f64, failed: f64, digest: &str) -> Value {
        let text = format!(
            r#"{{"workloads": {{"w": {{"attempted": 100, "failed": {failed}, "sim_digest": "{digest}",
                "end_to_end": {{"rate": {{"value": {rate}, "unit": "ops/s"}},
                                "wire_bytes_per_xfer": {{"value": {wire}, "unit": "bytes"}}}},
                "per_layer": {{"alloc.seal_count": {{"value": 13, "unit": "count"}}}}}}}}}}"#
        );
        crate::json::parse(&text).expect("test document")
    }

    #[test]
    fn the_table_flags_regressions_sim_changes_and_new_failures() {
        let bounds = crate::json::parse(
            r#"{"workloads": [{"name": "w", "why": "test"}],
                "end_to_end": [
                  {"name": "rate", "unit": "ops/s", "better": "higher", "bound": 0.1},
                  {"name": "wire_bytes_per_xfer", "unit": "bytes", "better": "lower", "bound": 0.01}]}"#,
        )
        .expect("bounds");
        let base = [result(1000.0, 2400.0, 0.0, "aa")];

        let (table, bad) = compare(&bounds, &base, &[result(1040.0, 2400.0, 0.0, "aa")]).unwrap();
        assert!(!bad, "{table}");
        assert!(table.contains("sim identical") && table.contains("identical (2 runs)"));
        assert!(!table.contains("worse"));

        let (table, bad) = compare(&bounds, &base, &[result(850.0, 2405.0, 0.0, "bb")]).unwrap();
        assert!(bad);
        assert!(
            table.contains("worse") && table.contains("sim differs") && table.contains("DIFFERS")
        );

        let (table, bad) = compare(&bounds, &base, &[result(1000.0, 2400.0, 1.0, "aa")]).unwrap();
        assert!(bad && table.contains("failed share rose"), "{table}");
    }
}
