//! Results on disk, the noise model (`--repeat`) and the comparison of two
//! result files (`--compare`).

use crate::catalog::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::json::{obj, Json};
use crate::stats;
use std::collections::BTreeMap;

/// What one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// The definition of an emitted metric.
pub fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

impl RunResult {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn driver_line(&self) -> String {
        let metrics = Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = def_of(name).map_or("", |d| d.unit);
                    (
                        name.to_string(),
                        obj([
                            ("value", Json::Num(*value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        // Keys in the order the contract shows them.
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            metrics.render()
        )
    }

    /// Read a driver line back.
    pub fn from_driver_line(workload: &'static str, line: &str) -> Result<RunResult, String> {
        let v = Json::parse(line)?;
        let count = |key: &str| v.get(key).and_then(Json::num).ok_or(format!("no {key}"));
        if v.get("correct") != Some(&Json::Bool(true)) {
            return Err("the run does not report itself correct".into());
        }
        let emitted = v
            .get("metrics")
            .and_then(Json::members)
            .ok_or("no metrics")?;
        let mut metrics = Vec::with_capacity(emitted.len());
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            if let Some(value) = emitted
                .get(def.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::num)
            {
                metrics.push((def.name, value));
            }
        }
        if metrics.len() != emitted.len() {
            return Err("the run emitted a name the catalog does not hold".into());
        }
        Ok(RunResult {
            workload,
            attempted: count("attempted")? as u64,
            failed: count("failed")? as u64,
            metrics,
        })
    }
}

/// Every value each `(workload, metric)` took over the repeats of a suite.
#[derive(Default)]
pub struct Suite {
    /// workload → metric → one value per repeat.
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload → `(attempted, failed)` per repeat.
    pub counts: BTreeMap<String, Vec<(u64, u64)>>,
}

impl Suite {
    pub fn add(&mut self, run: &RunResult) {
        let w = self.values.entry(run.workload.to_string()).or_default();
        for (name, value) in &run.metrics {
            w.entry(name.to_string()).or_default().push(*value);
        }
        self.counts
            .entry(run.workload.to_string())
            .or_default()
            .push((run.attempted, run.failed));
    }

    /// The result file `--out` writes and `--compare` reads.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .values
            .iter()
            .map(|(w, metrics)| {
                let metrics = metrics
                    .iter()
                    .map(|(name, values)| {
                        let unit = def_of(name).map_or("", |d| d.unit);
                        let entry = obj([
                            ("unit", Json::Str(unit.into())),
                            ("median", Json::Num(stats::median(values))),
                            ("relative_iqr", Json::Num(stats::relative_iqr(values))),
                            (
                                "values",
                                Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
                            ),
                        ]);
                        (name.clone(), entry)
                    })
                    .collect();
                let counts = &self.counts[w];
                let entry = obj([
                    (
                        "attempted",
                        Json::Arr(counts.iter().map(|c| Json::Num(c.0 as f64)).collect()),
                    ),
                    (
                        "failed",
                        Json::Arr(counts.iter().map(|c| Json::Num(c.1 as f64)).collect()),
                    ),
                    ("metrics", Json::Obj(metrics)),
                ]);
                (w.clone(), entry)
            })
            .collect();
        obj([
            ("benchmark", Json::Str("vm_perf".into())),
            ("workloads", Json::Obj(workloads)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Suite, String> {
        let mut suite = Suite::default();
        let workloads = v
            .get("workloads")
            .and_then(Json::members)
            .ok_or("no workloads")?;
        for (w, entry) in workloads {
            let nums = |key: &str| -> Vec<u64> {
                entry
                    .get(key)
                    .and_then(Json::items)
                    .map(|a| a.iter().filter_map(Json::num).map(|n| n as u64).collect())
                    .unwrap_or_default()
            };
            let counts = nums("attempted").into_iter().zip(nums("failed")).collect();
            suite.counts.insert(w.clone(), counts);
            let metrics = entry
                .get("metrics")
                .and_then(Json::members)
                .ok_or("no metrics")?;
            for (name, m) in metrics {
                let values: Vec<f64> = m
                    .get("values")
                    .and_then(Json::items)
                    .ok_or("no values")?
                    .iter()
                    .filter_map(Json::num)
                    .collect();
                suite
                    .values
                    .entry(w.clone())
                    .or_default()
                    .insert(name.clone(), values);
            }
        }
        Ok(suite)
    }

    /// The noise model: each pairing's median and relative IQR, and the bound
    /// that noise asks for — `max(0.10, 2 × relative IQR)`.
    pub fn print_noise(&self) {
        println!(
            "{:<20} {:<40} {:>14} {:>9} {:>9}",
            "workload", "metric", "median", "rel IQR", "bound"
        );
        for (w, metrics) in &self.values {
            for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
                let Some(values) = metrics.get(def.name) else {
                    continue;
                };
                let spread = stats::relative_iqr(values);
                println!(
                    "{:<20} {:<40} {:>14.4} {:>9.4} {:>9.2}",
                    w,
                    def.name,
                    stats::median(values),
                    spread,
                    (2.0 * spread).max(0.10)
                );
            }
        }
    }
}

/// How a candidate's metric stands against the baseline's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved (spread wider than bound)",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judge one pairing. Every run of the candidate beating every run of the
/// baseline is better whatever the spread; otherwise a spread wider than the
/// bound resolves nothing; otherwise the candidate's median may be worse by
/// at most `bound`, and counts as better when it gains more than the
/// baseline's own quartile distance.
pub fn judge(better: Better, bound: f64, base: &[f64], cand: &[f64]) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worst_cand = cand
        .iter()
        .map(|v| v * sign)
        .fold(f64::NEG_INFINITY, f64::max);
    let best_base = base.iter().map(|v| v * sign).fold(f64::INFINITY, f64::min);
    if worst_cand < best_base {
        return Verdict::Better;
    }
    let spread = stats::relative_iqr(base).max(stats::relative_iqr(cand));
    if spread > bound {
        return Verdict::Unresolved;
    }
    let (mb, mc) = (stats::median(base), stats::median(cand));
    let worse_by = if mb == 0.0 {
        0.0
    } else {
        (mc - mb) * sign / mb.abs()
    };
    if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > stats::relative_iqr(base) && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Compare two result files: one row per workload and end-to-end metric.
/// Returns how many pairings regressed.
pub fn compare(base: &Suite, cand: &Suite) -> usize {
    let mut regressed = 0;
    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    for (w, base_metrics) in &base.values {
        let Some(cand_metrics) = cand.values.get(w) else {
            println!("{w:<20} missing from the candidate");
            continue;
        };
        for def in &END_TO_END {
            let (Some(b), Some(c)) = (base_metrics.get(def.name), cand_metrics.get(def.name))
            else {
                continue;
            };
            let verdict = judge(def.better, def.bound, b, c);
            regressed += usize::from(verdict == Verdict::Regressed);
            let (mb, mc) = (stats::median(b), stats::median(c));
            println!(
                "{:<20} {:<28} {:>14.4} {:>14.4} {:>+7.1}% {:>6.2}  {}",
                w,
                def.name,
                mb,
                mc,
                if mb == 0.0 {
                    0.0
                } else {
                    (mc - mb) / mb * 100.0
                },
                def.bound,
                verdict.label()
            );
        }
        if base.counts.get(w) != cand.counts.get(w) {
            println!("{w:<20} attempted/failed counts differ between the two files");
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_guide() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0];
        // Every candidate run beats every baseline run.
        assert_eq!(
            judge(Better::Lower, 0.1, &base, &[9.0, 9.1, 9.2]),
            Verdict::Better
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &base, &[11.0, 11.5]),
            Verdict::Better
        );
        // Worse by 20 % against a 10 % bound.
        assert_eq!(
            judge(Better::Lower, 0.1, &base, &[12.0, 12.1, 11.9]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(Better::Higher, 0.1, &base, &[8.0, 8.1, 7.9]),
            Verdict::Regressed
        );
        // Worse by 5 %: inside the bound.
        assert_eq!(
            judge(Better::Lower, 0.1, &base, &[10.5, 10.6, 10.4]),
            Verdict::WithinBound
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            judge(
                Better::Lower,
                0.1,
                &[8.0, 10.0, 12.0, 9.0],
                &[9.0, 11.0, 13.0]
            ),
            Verdict::Unresolved
        );
        // Overlapping runs, but the median gains more than the baseline's
        // quartile distance.
        assert_eq!(
            judge(Better::Lower, 0.1, &base, &[9.95, 9.5, 9.4, 9.6]),
            Verdict::Better
        );
    }

    #[test]
    fn result_files_round_trip() {
        let run = RunResult {
            workload: "ingest-steady",
            attempted: 10,
            failed: 0,
            metrics: vec![("setup_s", 1.25), ("recover_s", 0.875)],
        };
        let back =
            RunResult::from_driver_line("ingest-steady", &run.driver_line()).expect("parses");
        assert_eq!(back.metrics, run.metrics);
        assert_eq!((back.attempted, back.failed), (10, 0));

        let mut suite = Suite::default();
        suite.add(&run);
        suite.add(&back);
        let again = Suite::from_json(&Json::parse(&suite.to_json().render()).expect("json"))
            .expect("suite");
        assert_eq!(again.values, suite.values);
        assert_eq!(again.counts, suite.counts);
        assert_eq!(compare(&suite, &again), 0);
    }
}
