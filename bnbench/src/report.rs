//! Metric names, summary statistics and the result line.
//!
//! The metric lists below are the benchmark's contract with
//! `BENCHMARK.json` (a test keeps the two identical). An untraced run
//! prints every end-to-end metric; a traced run prints every per-layer
//! metric, with 0 for a layer the workload does not exercise (listed as
//! `n/a` in the human-readable table). The untraced run's table also
//! shows the [`REPORTED`] metrics, which the result line leaves out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("goodput_ops_s", "ops/s"),
    ("peak_rss_mib", "MiB"),
];

/// End-to-end metrics printed in the human-readable table only. The
/// latency percentiles track the host's CPU steal too closely to bound
/// a regression (see `README.md`); goodput, which counts only
/// operations within the workload's latency limit, is bounded instead.
/// `failed_frac` is 0 on correct code, so it has no median to bound;
/// the result line carries its attempted and failed counts.
pub const REPORTED: &[(&str, &str)] = &[
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bayesnet.parse_ms", "ms"),
    ("bayesnet.bif_mib", "MiB"),
    ("jtree.build_ms", "ms"),
    ("jtree.cliques", "count"),
    ("jtree.layers", "count"),
    ("jtree.table_entries", "count"),
    ("inference.prepare_ms", "ms"),
    ("inference.session_run_us", "us"),
    ("inference.reset_us", "us"),
    ("inference.evidence_us", "us"),
    ("inference.propagate_us", "us"),
    ("inference.extract_us", "us"),
    ("inference.phase_coverage", "ratio"),
    ("potential.ns_per_entry.identity", "ns"),
    ("potential.ns_per_entry.inner_block", "ns"),
    ("potential.ns_per_entry.outer_block", "ns"),
    ("potential.ns_per_entry.generic", "ns"),
    ("potential.entries_per_query", "count"),
    ("potential.bytes_per_query", "B"),
    ("parallel.regions_per_query", "count"),
    ("parallel.items_per_region", "count"),
    ("parallel.fork_join_us", "us"),
    ("parallel.speedup_vs_seq", "ratio"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("routed.completed", "count"),
    ("routed.queue_wait_us.p50", "us"),
    ("routed.queue_wait_us.p99", "us"),
    ("routed.window_us.p50", "us"),
    ("routed.window_us.p99", "us"),
    ("routed.compute_us.p50", "us"),
    ("routed.compute_us.p99", "us"),
    ("routed.delivery_us.p50", "us"),
    ("routed.delivery_us.p99", "us"),
    ("routed.total_us.p50", "us"),
    ("routed.batch_size_mean", "count"),
    ("routed.dedup_frac", "ratio"),
    ("routed.rejected", "count"),
    ("registry.load_ms", "ms"),
    ("delta.apply_us", "us"),
    ("delta.read_us", "us"),
    ("delta.full_read_us", "us"),
    ("delta.speedup_vs_scratch", "ratio"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.gen_late_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a result that
    /// differed from the reference.
    pub failed: u64,
    /// Sampled results compared against the reference.
    pub checked: u64,
    /// Sampled results that differed from the reference.
    pub mismatched: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value. Panics on a name outside the declared
    /// lists, which would be a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(REPORTED)
                .chain(PER_LAYER)
                .any(|(n, _)| *n == name),
            "{name} is not a declared metric"
        );
        self.values.insert(name, value);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// True when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable report followed by the one-line JSON result,
    /// for the metric list `wanted`.
    pub fn render(&self, wanted: &[(&'static str, &'static str)]) -> String {
        let mut out = String::new();
        for line in &self.notes {
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(
            out,
            "attempted {}, failed {}; {} of {} sampled results checked bit for bit differed",
            self.attempted, self.failed, self.mismatched, self.checked
        );
        let shown = |name: &str| self.values.get(name).copied().filter(|v| v.is_finite());
        let mut json = String::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = shown(name);
            let _ = writeln!(
                out,
                "{name:<36} {:>16.4} {unit}{}",
                value.unwrap_or(0.0),
                if value.is_none() { "  (n/a)" } else { "" }
            );
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value.unwrap_or(0.0))
            );
        }
        if wanted == END_TO_END {
            let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
            for (name, unit) in REPORTED {
                let value = if *name == "failed_frac" {
                    Some(failed_frac)
                } else {
                    shown(name)
                };
                if let Some(v) = value {
                    let _ = writeln!(out, "{name:<36} {v:>16.4} {unit}  (reported, not bounded)");
                }
            }
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip form gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank quantile of an ascending slice (`0 < q <= 1`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Operations per slice for the tail percentile: p99 of 1,000 samples
/// has ten beyond it.
pub const TAIL_SLICE_OPS: usize = 1000;

/// The operations of one timed window, in order, plus the latency
/// limit goodput is judged against.
pub struct Latencies {
    /// Latency in milliseconds of every attempted operation, in the
    /// order it ran or was due; `None` if it failed or was refused.
    pub ms: Vec<Option<f64>>,
    /// Goodput counts an operation only when it finished within this.
    pub limit_ms: f64,
}

impl Latencies {
    /// [`Latencies::report`] for a closed loop, which drives the program
    /// as fast as it goes: the rates are per granted second, so time the
    /// hypervisor stole does not count against the program.
    pub fn report_closed_loop(&self, elapsed: Elapsed, out: &mut Outcome) {
        self.report(elapsed.granted_s(), out);
        out.note(format!(
            "closed loop: {:.3} s wall, {:.1}% of the busy CPU time stolen, {:.3} s granted; \
             {:.4} ops per wall second",
            elapsed.wall_s,
            100.0 * elapsed.stolen,
            elapsed.granted_s(),
            self.ms.iter().flatten().count() as f64 / elapsed.wall_s
        ));
    }

    /// Fills the latency, throughput and goodput metrics for a window
    /// of `seconds`:
    ///
    /// * throughput: completed operations per second;
    /// * goodput: operations completed within the limit per second (a
    ///   failed or refused operation misses);
    /// * p50 over every sample;
    /// * p99 as the median over consecutive 1,000-operation slices of
    ///   each slice's p99, or over every sample when the window holds
    ///   fewer than two slices.
    pub fn report(&self, seconds: f64, out: &mut Outcome) {
        let ok: Vec<f64> = self.ms.iter().flatten().copied().collect();
        let tails: Vec<f64> = ok
            .chunks_exact(TAIL_SLICE_OPS)
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_by(f64::total_cmp);
                quantile(&c, 0.99)
            })
            .collect();
        let mut sorted = ok.clone();
        sorted.sort_by(f64::total_cmp);
        let within = sorted.partition_point(|&l| l <= self.limit_ms);
        out.set("throughput_ops_s", ok.len() as f64 / seconds);
        out.set("goodput_ops_s", within as f64 / seconds);
        out.set("latency_p50_ms", quantile(&sorted, 0.50));
        let p99_basis = if tails.len() >= 2 {
            out.set("latency_p99_ms", median(&tails));
            format!(
                "median of {} {TAIL_SLICE_OPS}-operation slices",
                tails.len()
            )
        } else {
            out.set("latency_p99_ms", quantile(&sorted, 0.99));
            let beyond = sorted.len() - ((0.99 * sorted.len() as f64).ceil() as usize);
            format!(
                "all samples, {beyond} beyond it{}",
                if beyond < 10 {
                    "; fewer than 10, so this run does not support p99"
                } else {
                    ""
                }
            )
        };
        out.note(format!(
            "{} latency samples over {seconds:.3} s; p99: {p99_basis}; \
             goodput limit {} ms, {within} within",
            ok.len(),
            self.limit_ms
        ));
    }
}

/// Host CPU time split from `/proc/stat`, for the share the hypervisor
/// stole while the run was busy.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTimes {
    busy: u64,
    steal: u64,
}

impl CpuTimes {
    /// The current totals (zero where `/proc/stat` is unreadable).
    fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        CpuTimes {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }
}

/// Times an interval in wall time and in granted time: the wall time
/// scaled by the share of wanted CPU time the hypervisor did not steal
/// (`steal / (busy + steal)` over the interval, from `/proc/stat`).
/// Granted time estimates what the interval would have taken on a
/// machine whose CPUs were not taken away; see `README.md`.
pub struct Stopwatch {
    start: Instant,
    cpu: CpuTimes,
}

/// What a [`Stopwatch`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Share of the busy-or-stolen CPU time that was stolen.
    pub stolen: f64,
}

impl Elapsed {
    /// Wall seconds the hypervisor granted.
    pub fn granted_s(&self) -> f64 {
        self.wall_s * (1.0 - self.stolen)
    }
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Instant::now(),
            cpu: CpuTimes::now(),
        }
    }

    /// The interval since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Elapsed {
        let wall_s = self.start.elapsed().as_secs_f64();
        let now = CpuTimes::now();
        let steal = now.steal.saturating_sub(self.cpu.steal) as f64;
        let busy = now.busy.saturating_sub(self.cpu.busy) as f64;
        Elapsed {
            wall_s,
            stolen: steal / (steal + busy).max(1.0),
        }
    }
}
