//! Metric names, units and the printed result of one run.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every workload with `--trace 0`.
/// Their per-workload meaning is in `BENCHMARK.md`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("sim.kernel.busy_s", "s"),
    ("sim.kernel.compiled", "count"),
    ("sim.golden.busy_s", "s"),
    ("defects.table.busy_s", "s"),
    ("sim.packed.lanes", "count"),
    ("sim.packed.lane_occupancy", "ratio"),
    ("sim.packed.cone_skips", "count"),
    ("sim.solver.iterations", "count"),
    ("core.activation.busy_s", "s"),
    ("core.canonical.busy_s", "s"),
    ("core.cache.hits", "count"),
    ("core.cache.misses", "count"),
    ("core.cache.rejected", "count"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.remap_busy_s", "s"),
    ("store.journal.appends", "count"),
    ("store.journal.fsyncs", "count"),
    ("store.journal.bytes", "bytes"),
    ("store.journal.busy_s", "s"),
    ("exec.items", "count"),
    ("exec.busy_share", "ratio"),
    ("exec.thread_scaling", "ratio"),
    ("core.cache.memo_speedup", "ratio"),
    ("ml.forest.fit_busy_s", "s"),
    ("ml.forest.trees_fitted", "count"),
    ("ml.forest.fit_rows", "count"),
    ("ml.predict.rows", "count"),
    ("ml.predict.busy_s", "s"),
    ("core.matrix.encode_busy_s", "s"),
    ("core.flow.gate_busy_s", "s"),
    ("core.flow.sim_route_busy_s", "s"),
    ("core.flow.ml_share", "ratio"),
    ("serve.codec.busy_s", "s"),
    ("serve.codec.bytes", "bytes"),
    ("serve.admission.queue_us", "us"),
    ("serve.service_us", "us"),
    ("serve.journal_us", "us"),
    ("serve.shed", "count"),
    ("netlist.parse.busy_s", "s"),
    ("netlist.lint.busy_s", "s"),
    ("bench.generator.late_ms_tail", "ms"),
    ("bench.residue_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples behind the value (1 for a single measurement or count).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, samples: usize) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// A correctness check and its outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub workload: String,
    pub trace: bool,
    /// Operations the timed phases attempted (cells, routed cells or
    /// requests).
    pub attempted: u64,
    /// Of those, failed, quarantined, shed or refused.
    pub failed: u64,
    pub checks: Vec<Check>,
    /// The metrics of the printed JSON line: every [`END_TO_END`]
    /// metric untraced, every [`PER_LAYER`] metric traced.
    pub metrics: Vec<Metric>,
    /// Workload-specific numbers printed above the JSON line.
    pub details: Vec<Metric>,
}

impl Report {
    pub fn new(workload: &str, trace: bool) -> Report {
        Report {
            workload: workload.to_string(),
            trace,
            ..Report::default()
        }
    }

    /// Records a check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.passed)
    }

    /// Sets the printed metrics from `values`, in the order and with the
    /// units of `names`; a name without a value reads 0.
    pub fn set_metrics(&mut self, names: &[(&str, &str)], values: &BTreeMap<&str, (f64, usize)>) {
        self.metrics = names
            .iter()
            .map(|(name, unit)| {
                let (value, samples) = values.get(name).copied().unwrap_or((0.0, 0));
                Metric::new(name, value, unit, samples)
            })
            .collect();
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.details.push(Metric::new(name, value, unit, samples));
    }

    /// Human-readable lines: checks, details, then the metrics.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "workload {} ({})",
            self.workload,
            if self.trace { "traced" } else { "untraced" }
        );
        for c in &self.checks {
            let verdict = if c.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {}: {}", c.name, c.detail);
        }
        for m in self.details.iter().chain(&self.metrics) {
            let _ = writeln!(
                out,
                "metric {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            out,
            "ops attempted {} failed {}",
            self.attempted, self.failed
        );
        out
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
