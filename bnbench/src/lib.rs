//! The fastbn benchmark: four workloads driven from outside the library
//! through its public API, each reporting end-to-end metrics (untraced
//! run) or per-layer metrics (traced run) and checking its results bit
//! for bit against a single-thread reference. See `README.md` for why
//! each workload exists and which layer metric should move which
//! end-to-end metric.

#![forbid(unsafe_code)]

pub mod cli;
pub mod infer;
pub mod inputs;
pub mod live;
pub mod report;
pub mod serve;
pub mod trace;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::bayesnet::bif::parse_str;
use fastbn::jtree::{build_junction_tree, tree_stats};
use fastbn::{BayesianNetwork, JtreeOptions, Posteriors, Prepared};

use crate::cli::{Args, Workload};
use crate::report::{median, Outcome, Stopwatch};
use crate::trace::Recorder;

/// Set-up runs at least this many times and for at least
/// [`SETUP_MIN_TIME`]; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Least total time spent on set-up repetitions, so that a fast set-up
/// gets enough repetitions for a steady median.
pub const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// Untimed traffic before the timed window, so caches fill and lazy
/// set-up finishes.
pub const WARMUP: Duration = Duration::from_secs(1);

/// Pool width: the machine's available parallelism.
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload and returns what it measured.
pub fn run(args: &Args) -> Outcome {
    let run = Stopwatch::start();
    let mut out = match args.workload {
        Workload::InferDiabetes => infer::run(&infer::DIABETES, args),
        Workload::InferPigs => infer::run(&infer::PIGS, args),
        Workload::ServeMix => serve::run(args),
        Workload::LiveMunin2 => live::run(args),
    };
    out.notes.insert(
        0,
        format!(
            "workload {} seed {} seconds {} trace {} pool width {}; \
             the hypervisor stole {:.1}% of the CPU time this run was busy",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            pool_width(),
            100.0 * run.elapsed().stolen
        ),
    );
    out
}

/// Runs `build` at least [`SETUP_REPS`] times and until
/// [`SETUP_MIN_TIME`] has passed (at most 100 times), dropping each
/// result before the next. Returns the median time of one set-up in
/// granted seconds (see [`Stopwatch`]) and the last result.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    let all = Stopwatch::start();
    let first = Instant::now();
    while times.len() < SETUP_REPS || (first.elapsed() < SETUP_MIN_TIME && times.len() < 100) {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    let granted = 1.0 - all.elapsed().stolen;
    (
        median(&times) * granted,
        last.expect("at least one repetition"),
    )
}

/// Whether two results carry the same bits: `P(e)` and every computed
/// marginal.
pub fn same_bits(a: &Posteriors, b: &Posteriors) -> bool {
    a.prob_evidence.to_bits() == b.prob_evidence.to_bits()
        && a.marginals().len() == b.marginals().len()
        && a.marginals().iter().zip(b.marginals()).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The traced set-up step every workload shares: parse the BIF text,
/// then build the junction tree and the prepared structures, each in a
/// span under `root`. `Prepared::new` builds the tree once more inside;
/// [`set_setup_layers`] subtracts that. Returns the network, its tree
/// shape (cliques, layers, clique-table entries) and the prepared
/// structures.
pub fn traced_prepare(
    rec: &mut Recorder,
    rep: u64,
    root: usize,
    bif: &str,
) -> (BayesianNetwork, [f64; 3], Arc<Prepared>) {
    let opts = JtreeOptions::default();
    let net = rec.time("bayesnet.parse", rep, Some(root), || {
        parse_str(bif).expect("the benchmark's own BIF text parses")
    });
    let built = rec.time("jtree.build", rep, Some(root), || {
        build_junction_tree(&net, &opts)
    });
    let prepared = rec.time("inference.prepare", rep, Some(root), || {
        Arc::new(Prepared::new(&net, &opts))
    });
    let stats = tree_stats(&net, &built);
    let shape = [
        stats.num_cliques as f64,
        stats.num_layers as f64,
        stats.total_clique_entries as f64,
    ];
    (net, shape, prepared)
}

/// Records the set-up layer metrics from the [`traced_prepare`] spans
/// (`models` of them per set-up), the tree shape and the BIF size.
pub fn set_setup_layers(
    out: &mut Outcome,
    rec: &Recorder,
    models: usize,
    [cliques, layers, entries]: [f64; 3],
    bif_bytes: usize,
) {
    let totals = rec.totals();
    let ms = |name: &str| totals[name].total_us_each() * models as f64 / 1e3;
    out.set("bayesnet.parse_ms", ms("bayesnet.parse"));
    out.set("bayesnet.bif_mib", bif_bytes as f64 / (1 << 20) as f64);
    out.set("jtree.build_ms", ms("jtree.build"));
    out.set("jtree.cliques", cliques);
    out.set("jtree.layers", layers);
    out.set("jtree.table_entries", entries);
    out.set(
        "inference.prepare_ms",
        ms("inference.prepare") - ms("jtree.build"),
    );
}

/// Folds the traced run's spans into the report (mean self time per
/// span name) and writes them under `.bench_traces/`.
pub fn finish_trace(args: &Args, rec: &Recorder, out: &mut Outcome) {
    out.note("span self times (mean per span):");
    for (name, t) in rec.totals() {
        out.note(format!(
            "  {name:<28} {:>9} spans  {:>12.3} us total  {:>12.3} us self",
            t.count,
            t.total_us_each(),
            t.self_us_each()
        ));
    }
    let path = PathBuf::from(".bench_traces").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match rec.write_jsonl(&path) {
        Ok(()) => out.note(format!(
            "wrote {} spans to {}",
            rec.spans().len(),
            path.display()
        )),
        Err(e) => out.note(format!("could not write {}: {e}", path.display())),
    }
}
