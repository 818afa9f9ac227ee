//! Metric collection and the result line.

use std::collections::BTreeMap;

use crate::host::HostSpeed;
use crate::stats::{median, percentile};

/// Metrics, failures and notes of one run.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    /// Statements (and repeat checks) attempted.
    pub attempted: u64,
    /// Those that errored, were refused or failed a check.
    pub failed: u64,
    failures: Vec<String>,
    /// The host-speed reference kernel's runs.
    pub host: HostSpeed,
    /// Bring the end-to-end times to the reference host speed (see
    /// `host`); otherwise they stay as measured.
    pub scale_to_host: bool,
}

struct Metric {
    value: f64,
    /// The value as measured, where `value` is scaled to the reference
    /// host speed.
    measured: Option<f64>,
    unit: &'static str,
    samples: usize,
}

/// One timed measurement (a statement's ms, a set-up's seconds) and its
/// host-speed mark (`HostSpeed::runs` just before it).
pub type Timed = (f64, usize);

/// Failures printed in full; the rest are only counted.
const SHOWN_FAILURES: usize = 20;

/// Reference-kernel runs a run makes at least.
const MIN_KERNEL_RUNS: usize = 9;

impl Report {
    /// Record a metric measured from `samples` samples.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                // `+ 0.0` turns the -0.0 of an empty sum into 0.
                value: value + 0.0,
                measured: None,
                unit,
                samples,
            },
        );
    }

    /// Record `stat` of timed measurements, in `unit`. With
    /// `scale_to_host`, each is brought to the reference host speed by the
    /// kernel runs around it, and the statistic of the measured times is
    /// kept beside.
    pub fn set_timed(
        &mut self,
        name: &str,
        timed: &[Timed],
        stat: impl Fn(&[f64]) -> f64,
        unit: &'static str,
    ) {
        let measured: Vec<f64> = timed.iter().map(|t| t.0).collect();
        if !self.scale_to_host {
            self.set(name, stat(&measured), unit, timed.len());
            return;
        }
        let scaled: Vec<f64> = timed
            .iter()
            .map(|&(ms, mark)| ms * self.host.scale_at(mark))
            .collect();
        self.set(name, stat(&scaled), unit, timed.len());
        self.metrics.get_mut(name).expect("just set").measured = Some(stat(&measured));
    }

    /// Record the metrics over every timed statement of an end-to-end run:
    /// the statements, `elapsed_s` of the whole loop, and the input rows
    /// each statement reads.
    pub fn statements(&mut self, timed: &[Timed], elapsed_s: f64, rows_per_statement: f64) {
        let n = timed.len();
        self.set_timed("stmt_p50_ms", timed, median, "ms");
        self.set_timed("stmt_p99_ms", timed, |v| percentile(v, 0.99), "ms");
        // The loop's time outside the statements (checking) is scaled as
        // theirs is.
        let qps = n as f64 / elapsed_s;
        let measured_ms: f64 = timed.iter().map(|t| t.0).sum();
        self.set_timed(
            "qps",
            timed,
            |v| qps * measured_ms / v.iter().sum::<f64>(),
            "1/s",
        );
        let rows = rows_per_statement * n as f64;
        self.set_timed(
            "rows_per_s",
            timed,
            |v| rows * 1e3 / v.iter().sum::<f64>(),
            "rows/s",
        );
        let attempted = self.attempted.max(1) as f64;
        let ok = (attempted - self.failed as f64) / attempted;
        self.set("ok_frac", ok, "ratio", self.attempted as usize);
        self.set("peak_rss_mb", peak_rss_mb(), "MB", 1);
    }

    /// Record `host.kernel_ms`, the kernel's median, running the kernel
    /// first if this run has not run it `MIN_KERNEL_RUNS` times.
    pub fn record_host(&mut self) {
        while self.host.runs() < MIN_KERNEL_RUNS {
            self.host.sample();
        }
        let (kernel, runs) = (self.host.median_ms(), self.host.runs());
        self.set("host.kernel_ms", kernel, "ms", runs);
        println!(
            "host kernel median {kernel:.3} ms over {runs} runs; run scale {:.4}",
            self.host.scale()
        );
    }

    /// Count one failed attempt, with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < SHOWN_FAILURES {
            eprintln!("FAILED: {why}");
            self.failures.push(why);
        }
    }

    /// Print every recorded metric as a readable line, then the result line
    /// carrying exactly `names`. Returns false (printing no result) when a
    /// name was not recorded or a value is not finite.
    pub fn finish(&self, names: &[&str]) -> bool {
        for (name, m) in &self.metrics {
            let measured = m
                .measured
                .map_or(String::new(), |v| format!(" measured {v:.4}"));
            println!(
                "{name:<34} {:>16.4} {:<6} n={}{measured}",
                m.value, m.unit, m.samples
            );
        }
        println!(
            "attempted {} failed {} fail_frac {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for f in &self.failures {
            println!("failure: {f}");
        }
        let mut fields = Vec::with_capacity(names.len());
        for name in names {
            let Some(m) = self.metrics.get(*name) else {
                eprintln!("metric {name} was not measured");
                return false;
            };
            if !m.value.is_finite() {
                eprintln!("metric {name} is not finite: {}", m.value);
                return false;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        true
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
