//! Self-profile summaries and the bench perf-regression reporter.
//!
//! [`ProfileSummary::from_trace`] folds a drained [`Trace`] into
//! per-phase exclusive/inclusive time and per-worker utilization — the
//! deterministic text table `trackdown profile` prints next to the
//! Chrome export. *Exclusive* time is a span's inclusive time minus the
//! inclusive time of its direct children, so summing exclusive time
//! across all phases partitions recorded wall time without double
//! counting; idle stretches are recorded as `*.idle` spans, so they are
//! accounted (not missing) time.
//!
//! A `*.wait` span marks a thread blocked on other threads (a campaign's
//! worker join). Its time is *waiting*, not work: it is left out of the
//! exclusive total and can never be the dominant phase, and coverage is
//! the share of the wall window in which some thread was inside a span
//! other than a wait, so parallel threads are not summed over one
//! stretch of wall time.
//!
//! [`diff_bench_snapshots`] implements `trackdown perf-report`: it
//! diffs two `BENCH_pipeline.json` value trees metric-by-metric with a
//! tolerance threshold and renders the markdown table CI posts.

use crate::trace::{Trace, TraceEventKind};
use serde::Value;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Aggregate timing for one span name across a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Span name (e.g. `worker.produce`).
    pub name: &'static str,
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total wall time inside these spans, including children (µs).
    pub inclusive_us: u64,
    /// Total wall time inside these spans, excluding time attributed to
    /// direct child spans (µs).
    pub exclusive_us: u64,
    /// Whether these are `*.wait` spans: time blocked on other threads,
    /// not work.
    pub waiting: bool,
}

/// Whether a span name marks time blocked on other threads.
fn is_wait(name: &str) -> bool {
    name.ends_with(".wait")
}

/// Per-thread activity summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerStat {
    /// Dense trace thread index.
    pub thread: usize,
    /// OS thread name, if any.
    pub label: Option<String>,
    /// Active window: first span start to last span end on this thread (µs).
    pub window_us: u64,
    /// Time inside root spans (µs) — the accounted share of the window.
    pub accounted_us: u64,
    /// Time inside `*.idle` and `*.wait` spans (µs).
    pub idle_us: u64,
}

impl WorkerStat {
    /// Percentage of the active window spent busy (accounted − idle).
    pub fn utilization_pct(&self) -> f64 {
        if self.window_us == 0 {
            return 0.0;
        }
        100.0 * self.accounted_us.saturating_sub(self.idle_us) as f64 / self.window_us as f64
    }
}

/// Deterministic profile summary distilled from one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Per-phase stats: work phases by exclusive time (desc), then name;
    /// then the waiting phases, in the same order.
    pub phases: Vec<PhaseStat>,
    /// Per-thread stats, sorted by thread index.
    pub workers: Vec<WorkerStat>,
    /// Wall-clock length of the trace window (µs).
    pub trace_duration_us: u64,
    /// Wall time (µs) in which at least one thread was inside a span that
    /// is not a wait.
    pub covered_us: u64,
}

impl ProfileSummary {
    /// Fold a trace into per-phase and per-worker aggregates.
    pub fn from_trace(trace: &Trace) -> ProfileSummary {
        let spans: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Span)
            .collect();
        let index_of: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        // Sum each span's direct-children inclusive time onto the parent.
        let mut child_us = vec![0u64; spans.len()];
        for e in &spans {
            if e.parent != 0 {
                if let Some(&p) = index_of.get(&e.parent) {
                    child_us[p] += e.end_us.saturating_sub(e.start_us);
                }
            }
        }
        let mut phases: HashMap<&'static str, PhaseStat> = HashMap::new();
        for (i, e) in spans.iter().enumerate() {
            let inclusive = e.end_us.saturating_sub(e.start_us);
            let stat = phases.entry(e.name).or_insert(PhaseStat {
                name: e.name,
                count: 0,
                inclusive_us: 0,
                exclusive_us: 0,
                waiting: is_wait(e.name),
            });
            stat.count += 1;
            stat.inclusive_us += inclusive;
            stat.exclusive_us += inclusive.saturating_sub(child_us[i]);
        }
        let mut phases: Vec<PhaseStat> = phases.into_values().collect();
        phases.sort_by(|a, b| {
            (a.waiting, b.exclusive_us, a.name).cmp(&(b.waiting, a.exclusive_us, b.name))
        });

        let mut workers = Vec::with_capacity(trace.threads.len());
        let mut covered: Vec<(u64, u64)> = Vec::new();
        for t in &trace.threads {
            let mine = spans.iter().filter(|e| e.thread == t.index);
            let mut first = u64::MAX;
            let mut last = 0u64;
            let mut accounted = 0u64;
            let mut idle = 0u64;
            let mut any = false;
            let mut roots = Vec::new();
            let mut waits = Vec::new();
            for e in mine {
                any = true;
                first = first.min(e.start_us);
                last = last.max(e.end_us);
                let inclusive = e.end_us.saturating_sub(e.start_us);
                let is_root = e.parent == 0 || !index_of.contains_key(&e.parent);
                if is_root {
                    accounted += inclusive;
                    roots.push((e.start_us, e.end_us));
                }
                let wait = is_wait(e.name);
                if wait {
                    waits.push((e.start_us, e.end_us));
                }
                if wait || e.name.ends_with(".idle") {
                    idle += inclusive;
                }
            }
            covered.extend(subtract(&merge(roots), &merge(waits)));
            workers.push(WorkerStat {
                thread: t.index,
                label: t.label.clone(),
                window_us: if any { last - first } else { 0 },
                accounted_us: accounted,
                idle_us: idle,
            });
        }
        ProfileSummary {
            phases,
            workers,
            trace_duration_us: trace.duration_us,
            covered_us: merge(covered).iter().map(|&(a, b)| b - a).sum(),
        }
    }

    /// Total exclusive time of the work (non-wait) phases (µs). Because
    /// exclusive time partitions each thread's root spans, this
    /// approximates the sum of per-thread accounted time less waiting.
    pub fn total_exclusive_us(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| !p.waiting)
            .map(|p| p.exclusive_us)
            .sum()
    }

    /// Percentage of the trace's wall window in which some thread was
    /// inside a span other than a wait. The acceptance bar for
    /// `trackdown profile` is ≥ 90.
    pub fn coverage_pct(&self) -> f64 {
        if self.trace_duration_us == 0 {
            return 0.0;
        }
        (100.0 * self.covered_us as f64 / self.trace_duration_us as f64).min(100.0)
    }

    /// The work phase with the largest exclusive time, if any — the
    /// "dominant cost" a profiling run is after. Waiting phases never
    /// qualify.
    pub fn dominant_phase(&self) -> Option<&PhaseStat> {
        self.phases.first().filter(|p| !p.waiting)
    }

    /// Render the deterministic summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total_excl = self.total_exclusive_us().max(1);
        out.push_str("phase                        count    incl_ms    excl_ms  excl%\n");
        for p in &self.phases {
            let share = if p.waiting {
                "wait".to_string()
            } else {
                format!("{:.1}", 100.0 * p.exclusive_us as f64 / total_excl as f64)
            };
            let _ = writeln!(
                out,
                "{:<28} {:>5} {:>10.3} {:>10.3} {:>6}",
                p.name,
                p.count,
                p.inclusive_us as f64 / 1000.0,
                p.exclusive_us as f64 / 1000.0,
                share,
            );
        }
        out.push('\n');
        out.push_str("worker                        window_ms    busy_ms    idle_ms  util%\n");
        for w in &self.workers {
            let label = w
                .label
                .clone()
                .unwrap_or_else(|| format!("thread-{}", w.thread));
            let _ = writeln!(
                out,
                "{:<28} {:>10.3} {:>10.3} {:>10.3} {:>6.1}",
                label,
                w.window_us as f64 / 1000.0,
                w.accounted_us.saturating_sub(w.idle_us) as f64 / 1000.0,
                w.idle_us as f64 / 1000.0,
                w.utilization_pct(),
            );
        }
        let _ = writeln!(
            out,
            "\nexclusive-time coverage: {:.1}% of {:.3} ms wall window",
            self.coverage_pct(),
            self.trace_duration_us as f64 / 1000.0,
        );
        if let Some(p) = self.dominant_phase() {
            let _ = writeln!(
                out,
                "dominant phase: {} ({:.3} ms exclusive, {:.1}% of accounted time)",
                p.name,
                p.exclusive_us as f64 / 1000.0,
                100.0 * p.exclusive_us as f64 / total_excl as f64,
            );
        }
        out
    }
}

/// Sorted, disjoint cover of `spans` (half-open `[start, end)` µs).
fn merge(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (a, b) in spans {
        match out.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => out.push((a, b)),
        }
    }
    out
}

/// The parts of `keep` outside `cut`; both sorted and disjoint.
fn subtract(keep: &[(u64, u64)], cut: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut j = 0;
    for &(mut a, b) in keep {
        while j < cut.len() && cut[j].1 <= a {
            j += 1;
        }
        let mut k = j;
        while k < cut.len() && cut[k].0 < b {
            if cut[k].0 > a {
                out.push((a, cut[k].0));
            }
            a = a.max(cut[k].1);
            k += 1;
        }
        if a < b {
            out.push((a, b));
        }
    }
    out
}

// ---- perf-report -----------------------------------------------------

/// Direction in which a metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricPolicy {
    /// Smaller is better (latencies, allocation counts): flag increases
    /// beyond tolerance.
    LowerBetter,
    /// Larger is better (speedups, ratios): flag decreases beyond
    /// tolerance.
    HigherBetter,
    /// Environment descriptors (core counts): never flagged.
    Info,
    /// Everything else: any change is reported as drift, never as a
    /// regression.
    Exact,
}

/// Outcome for one metric in a [`PerfReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricStatus {
    /// Within tolerance (or unchanged).
    Ok,
    /// Moved in the good direction beyond tolerance.
    Improved,
    /// Moved in the bad direction beyond tolerance.
    Regressed,
    /// Changed, but the metric has no better/worse direction (schema
    /// bumps, key added/removed). Informational, never failing.
    Drift,
    /// Info-only metric.
    Info,
}

impl MetricStatus {
    fn label(self) -> &'static str {
        match self {
            MetricStatus::Ok => "ok",
            MetricStatus::Improved => "improved ✅",
            MetricStatus::Regressed => "REGRESSED ❌",
            MetricStatus::Drift => "drift",
            MetricStatus::Info => "info",
        }
    }
}

/// One metric row of a perf report.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Metric key from the snapshot JSON.
    pub key: String,
    /// Baseline rendering (`-` if absent).
    pub baseline: String,
    /// Current rendering (`-` if absent).
    pub current: String,
    /// Relative change in percent, when both sides are numeric.
    pub delta_pct: Option<f64>,
    /// Verdict under the policy and tolerance.
    pub status: MetricStatus,
}

/// The diff of two bench snapshots.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Per-metric rows, in baseline key order (new keys appended).
    pub rows: Vec<MetricDiff>,
    /// Tolerance threshold used, in percent.
    pub tolerance_pct: f64,
}

impl PerfReport {
    /// Keys whose status is [`MetricStatus::Regressed`].
    pub fn regressions(&self) -> Vec<&MetricDiff> {
        self.rows
            .iter()
            .filter(|r| r.status == MetricStatus::Regressed)
            .collect()
    }

    /// Render the markdown table CI posts.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "## Bench perf report (tolerance ±{:.0}%)\n",
            self.tolerance_pct
        );
        out.push_str("| metric | baseline | current | Δ% | status |\n");
        out.push_str("|---|---:|---:|---:|---|\n");
        for r in &self.rows {
            let delta = match r.delta_pct {
                Some(d) => format!("{d:+.1}"),
                None => "-".into(),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                r.key,
                r.baseline,
                r.current,
                delta,
                r.status.label()
            );
        }
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str("\nNo regressions beyond tolerance.\n");
        } else {
            let keys: Vec<&str> = regs.iter().map(|r| r.key.as_str()).collect();
            let _ = writeln!(
                out,
                "\n**{} regression(s): {}**",
                regs.len(),
                keys.join(", ")
            );
        }
        out
    }
}

/// Policy for a snapshot key, by naming convention: `*_ms` and
/// allocation counts are lower-better, `*speedup*`/`*ratio*` are
/// higher-better, `cores` is environment info, anything else (schema,
/// labels, counts) is compared exactly and reported as drift on change.
pub fn metric_policy(key: &str) -> MetricPolicy {
    if key.ends_with("_ms") || key.ends_with("_us") || key == "allocs_per_epoch" {
        MetricPolicy::LowerBetter
    } else if key.contains("speedup") || key.contains("ratio") {
        MetricPolicy::HigherBetter
    } else if key == "cores" {
        MetricPolicy::Info
    } else {
        MetricPolicy::Exact
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn render_value(v: Option<&Value>) -> String {
    match v {
        None => "-".into(),
        Some(Value::Str(s)) => s.clone(),
        Some(other) => serde_json::to_string(other).unwrap_or_else(|_| "?".into()),
    }
}

/// Diff two bench-snapshot object trees. `tolerance_pct` is the relative
/// change (in percent) a directional metric may move before it is
/// flagged.
pub fn diff_bench_snapshots(baseline: &Value, current: &Value, tolerance_pct: f64) -> PerfReport {
    let empty: &[(String, Value)] = &[];
    let base = baseline.as_object().unwrap_or(empty);
    let cur = current.as_object().unwrap_or(empty);
    let mut keys: Vec<&str> = base.iter().map(|(k, _)| k.as_str()).collect();
    for (k, _) in cur {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    let mut rows = Vec::with_capacity(keys.len());
    for key in keys {
        let b = serde::obj_get(base, key);
        let c = serde::obj_get(cur, key);
        let policy = metric_policy(key);
        let (delta_pct, status) = match (b, c) {
            (Some(bv), Some(cv)) => match (numeric(bv), numeric(cv)) {
                (Some(bn), Some(cn)) => {
                    let delta = if bn == 0.0 {
                        if cn == 0.0 {
                            0.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        100.0 * (cn - bn) / bn
                    };
                    let status = match policy {
                        MetricPolicy::Info => MetricStatus::Info,
                        MetricPolicy::Exact => {
                            if bn == cn {
                                MetricStatus::Ok
                            } else {
                                MetricStatus::Drift
                            }
                        }
                        MetricPolicy::LowerBetter => {
                            if delta > tolerance_pct {
                                MetricStatus::Regressed
                            } else if delta < -tolerance_pct {
                                MetricStatus::Improved
                            } else {
                                MetricStatus::Ok
                            }
                        }
                        MetricPolicy::HigherBetter => {
                            if delta < -tolerance_pct {
                                MetricStatus::Regressed
                            } else if delta > tolerance_pct {
                                MetricStatus::Improved
                            } else {
                                MetricStatus::Ok
                            }
                        }
                    };
                    (Some(delta), status)
                }
                _ => {
                    let status = if bv == cv {
                        MetricStatus::Ok
                    } else {
                        MetricStatus::Drift
                    };
                    (None, status)
                }
            },
            // Key added or removed: schema drift, not a perf verdict.
            _ => (None, MetricStatus::Drift),
        };
        rows.push(MetricDiff {
            key: key.to_string(),
            baseline: render_value(b),
            current: render_value(c),
            delta_pct,
            status,
        });
    }
    PerfReport {
        rows,
        tolerance_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(entries: &[(&str, Value)]) -> Value {
        Value::Object(
            entries
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    #[test]
    fn perf_report_flags_directional_regressions_only() {
        let base = snap(&[
            ("schema", Value::U64(5)),
            ("warm_ms", Value::F64(1.0)),
            ("large_shard_speedup", Value::F64(0.7)),
            ("cores", Value::U64(1)),
        ]);
        let cur = snap(&[
            ("schema", Value::U64(6)),
            ("warm_ms", Value::F64(1.5)),
            ("large_shard_speedup", Value::F64(1.4)),
            ("cores", Value::U64(8)),
        ]);
        let report = diff_bench_snapshots(&base, &cur, 10.0);
        let by_key = |k: &str| {
            report
                .rows
                .iter()
                .find(|r| r.key == k)
                .unwrap_or_else(|| panic!("missing row {k}"))
        };
        assert_eq!(by_key("warm_ms").status, MetricStatus::Regressed);
        assert_eq!(by_key("large_shard_speedup").status, MetricStatus::Improved);
        assert_eq!(by_key("schema").status, MetricStatus::Drift);
        assert_eq!(by_key("cores").status, MetricStatus::Info);
        assert_eq!(report.regressions().len(), 1);
        let md = report.render_markdown();
        assert!(md.contains("| warm_ms |"));
        assert!(md.contains("REGRESSED"));
    }

    #[test]
    fn perf_report_within_tolerance_is_clean() {
        let base = snap(&[("warm_ms", Value::F64(1.00))]);
        let cur = snap(&[("warm_ms", Value::F64(1.04))]);
        let report = diff_bench_snapshots(&base, &cur, 10.0);
        assert!(report.regressions().is_empty());
        assert!(report.render_markdown().contains("No regressions"));
    }

    #[test]
    fn profile_summary_partitions_time() {
        let _guard = crate::test_lock();
        crate::start_trace(crate::TraceConfig::default());
        {
            let _outer = crate::span("profile.test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span("profile.test.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let trace = crate::end_trace().unwrap();
        let summary = ProfileSummary::from_trace(&trace);
        let outer = summary
            .phases
            .iter()
            .find(|p| p.name == "profile.test.outer")
            .unwrap();
        let inner = summary
            .phases
            .iter()
            .find(|p| p.name == "profile.test.inner")
            .unwrap();
        // Outer's exclusive time excludes inner's inclusive time.
        assert_eq!(outer.exclusive_us, outer.inclusive_us - inner.inclusive_us);
        // Exclusive totals cover the single root span exactly.
        assert_eq!(summary.total_exclusive_us(), outer.inclusive_us);
        assert_eq!(summary.workers.len(), 1);
        assert!(summary.coverage_pct() > 90.0);
        assert_eq!(
            summary.dominant_phase().map(|p| p.name),
            Some(if outer.exclusive_us >= inner.exclusive_us {
                "profile.test.outer"
            } else {
                "profile.test.inner"
            })
        );
        let rendered = summary.render();
        assert!(rendered.contains("profile.test.outer"));
        assert!(rendered.contains("dominant phase"));
    }

    #[test]
    fn waiting_is_not_work() {
        use std::time::Duration;
        let _guard = crate::test_lock();
        crate::start_trace(crate::TraceConfig::default());
        {
            let _run = crate::span("profile.test.run");
            // The main thread blocks on a worker that first sleeps outside
            // any span, then works: the join's wait spans both stretches.
            let _wait = crate::span("profile.test.wait");
            std::thread::scope(|s| {
                s.spawn(|| {
                    std::thread::sleep(Duration::from_millis(20));
                    let _work = crate::span("profile.test.work");
                    std::thread::sleep(Duration::from_millis(20));
                });
            });
        }
        let trace = crate::end_trace().unwrap();
        let summary = ProfileSummary::from_trace(&trace);
        let phase = |name: &str| summary.phases.iter().find(|p| p.name == name).unwrap();
        let (run, wait, work) = (
            phase("profile.test.run"),
            phase("profile.test.wait"),
            phase("profile.test.work"),
        );
        assert!(wait.waiting && !run.waiting && !work.waiting);
        // The wait is the longest span's exclusive time, yet the work is
        // the dominant phase and the wait comes last.
        assert!(wait.exclusive_us > work.exclusive_us);
        assert_eq!(summary.dominant_phase().map(|p| p.name), Some(work.name));
        assert_eq!(summary.phases.last().map(|p| p.name), Some(wait.name));
        assert_eq!(
            summary.total_exclusive_us(),
            run.exclusive_us + work.exclusive_us
        );
        // The worker's unspanned sleep is covered by nothing but a wait,
        // so about half the wall window is uncovered.
        assert!(summary.covered_us >= work.inclusive_us);
        assert!(summary.coverage_pct() < 80.0, "{}", summary.coverage_pct());
        // The main thread's wait is idle time in its utilization.
        assert!(summary
            .workers
            .iter()
            .any(|w| w.idle_us >= wait.inclusive_us));
        assert!(summary.render().contains("wait"));
    }

    #[test]
    fn interval_cover_and_cut() {
        assert_eq!(
            merge(vec![(5, 9), (0, 2), (1, 3), (9, 10)]),
            [(0, 3), (5, 10)]
        );
        assert_eq!(
            subtract(&[(0, 10), (20, 30)], &[(2, 4), (8, 22), (25, 26)]),
            [(0, 2), (4, 8), (22, 25), (26, 30)]
        );
        assert_eq!(subtract(&[(0, 10)], &[(0, 10)]), []);
        assert_eq!(subtract(&[(3, 5)], &[]), [(3, 5)]);
    }
}
