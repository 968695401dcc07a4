//! `infer-diabetes` and `infer-pigs`: one caller runs a closed loop of
//! all-marginals `Session::posteriors` queries with the Hybrid
//! (Fast-BNI-par) engine over sampled evidence.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::bayesnet::bif::parse_str;
use fastbn::inference::make_engine_on;
use fastbn::parallel::PoolStats;
use fastbn::potential::{KernelPlan, Layout};
use fastbn::{EngineKind, Evidence, Posteriors, Prepared, Schedule, Solver, ThreadPool, WorkState};

use crate::cli::Args;
use crate::inputs::{self, sampled, sub_seed, ModelInput};
use crate::report::{peak_rss_mib, Latencies, Outcome, Stopwatch};
use crate::trace::Recorder;
use crate::{
    finish_trace, pool_width, same_bits, set_setup_layers, timed_setup, traced_prepare, WARMUP,
};

/// One closed-loop inference workload.
pub struct Spec {
    /// The `fastbn_bench` analogue to query.
    pub model: &'static str,
    /// Goodput counts a query only when it finished within this.
    pub limit_ms: f64,
}

/// Large tables, few regions: kernels and memory traffic dominate.
pub const DIABETES: Spec = Spec {
    model: "diabetes",
    limit_ms: 50.0,
};

/// Small cliques, many regions: fork-join granularity dominates.
pub const PIGS: Spec = Spec {
    model: "pigs",
    limit_ms: 10.0,
};

/// Distinct evidence sets per run; the loop cycles through them (the
/// cache is off, so repeats cost a full query).
const CASE_POOL: usize = 1024;

/// About one query in this many is checked against the reference.
const CHECK_EVERY: u64 = 64;

const TAG_CASES: u64 = 1;
const TAG_SAMPLE: u64 = 2;

/// Parses the BIF text and compiles it with the Hybrid engine on a pool
/// of `threads` — everything a user pays before the first query.
fn compile(bif: &str, threads: usize) -> Solver {
    let net = parse_str(bif).expect("the benchmark's own BIF text parses");
    Solver::builder(&net)
        .engine(EngineKind::Hybrid)
        .threads(threads)
        .build()
}

/// The Seq solver on the same compiled model: the bitwise reference.
fn reference(solver: &Solver) -> Solver {
    Solver::from_prepared(Arc::clone(solver.prepared())).build()
}

/// Results kept for the check: case index and result.
type Kept = Vec<(usize, Posteriors)>;

/// A closed loop of `Session::posteriors` until `window` has elapsed,
/// starting at case `first`. Returns each query's latency in ms (`None`
/// on error), the sampled results and the elapsed seconds.
fn closed_loop(
    solver: &Solver,
    cases: &[Evidence],
    first: usize,
    window: Duration,
    seed: u64,
) -> (Vec<Option<f64>>, Kept, f64) {
    let mut session = solver.session();
    let mut lat = Vec::with_capacity(4096);
    let mut kept = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < window {
        let case = (first + i as usize) % cases.len();
        let t0 = Instant::now();
        let result = session.posteriors(&cases[case]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        lat.push(result.is_ok().then_some(ms));
        match result {
            Ok(post) if sampled(seed, i, CHECK_EVERY) => kept.push((case, post)),
            Ok(post) => drop(black_box(post)),
            Err(_) => {}
        }
        i += 1;
    }
    (lat, kept, start.elapsed().as_secs_f64())
}

/// Compares kept results with the Seq reference, counting mismatches.
fn check(solver: &Solver, cases: &[Evidence], kept: &Kept, out: &mut Outcome) {
    let reference = reference(solver);
    let mut session = reference.session();
    for (case, post) in kept {
        out.checked += 1;
        let ok = session
            .posteriors(&cases[*case])
            .is_ok_and(|r| same_bits(&r, post));
        if !ok {
            out.mismatched += 1;
            out.failed += 1;
        }
    }
}

/// Everything the workload feeds the program for one seed.
pub struct Inputs {
    /// The model, as BIF text.
    pub model: ModelInput,
    /// The evidence sets the loop cycles through.
    pub cases: Vec<Evidence>,
}

/// Generates the workload's inputs for `seed`.
pub fn inputs(spec: &Spec, seed: u64) -> Inputs {
    let model = ModelInput::analogue(spec.model);
    let cases = inputs::cases(&model.net, CASE_POOL, sub_seed(seed, TAG_CASES));
    Inputs { model, cases }
}

/// Runs the workload described by `spec`.
pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let Inputs {
        model: input,
        cases,
    } = inputs(spec, args.seed);
    if args.trace {
        return run_traced(args, &input, &cases);
    }
    let threads = pool_width();
    let mut out = Outcome::default();
    let (setup_s, solver) = timed_setup(|| compile(&input.bif, threads));
    out.set("setup_s", setup_s);

    let seed = sub_seed(args.seed, TAG_SAMPLE);
    let (warm, _, _) = closed_loop(&solver, &cases, 0, WARMUP, seed);
    let window = Duration::from_secs(args.seconds);
    let clock = Stopwatch::start();
    let (lat, kept, _) = closed_loop(&solver, &cases, warm.len(), window, seed);
    let elapsed = clock.elapsed();
    out.attempted = lat.len() as u64;
    out.failed = lat.iter().filter(|l| l.is_none()).count() as u64;
    Latencies {
        ms: lat,
        limit_ms: spec.limit_ms,
    }
    .report_closed_loop(elapsed, &mut out);
    check(&solver, &cases, &kept, &mut out);
    out.set("peak_rss_mib", peak_rss_mib());
    out
}

/// Interleaved measurement rounds of the traced run.
const ROUNDS: u32 = 5;

/// Span names of the traced query phases, in call order.
const PHASES: [(&str, &str); 4] = [
    ("inference.reset", "inference.reset_us"),
    ("inference.evidence", "inference.evidence_us"),
    ("inference.propagate", "inference.propagate_us"),
    ("inference.extract", "inference.extract_us"),
];

/// The traced run: set-up with a span per layer, rounds of interleaved
/// untraced, Seq and traced blocks, then the kernel and fork-join
/// probes.
fn run_traced(args: &Args, input: &ModelInput, cases: &[Evidence]) -> Outcome {
    let threads = pool_width();
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1 << 16);

    // Set-up, layer by layer.
    let mut solver = None;
    let mut shape = [0.0; 3];
    for rep in 0..crate::SETUP_REPS as u64 {
        drop(solver.take());
        let root = rec.begin("setup", rep, None);
        let prepared;
        (_, shape, prepared) = traced_prepare(&mut rec, rep, root, &input.bif);
        solver = Some(rec.time("inference.engine", rep, Some(root), || {
            Solver::from_prepared(prepared)
                .engine(EngineKind::Hybrid)
                .threads(threads)
                .build()
        }));
        rec.end(root);
    }
    let solver = solver.expect("SETUP_REPS > 0");
    set_setup_layers(&mut out, &rec, 1, shape, input.bif.len());

    let seed = sub_seed(args.seed, TAG_SAMPLE);
    let window = Duration::from_secs(args.seconds);
    let (warm, _, _) = closed_loop(&solver, cases, 0, WARMUP, seed);
    let prepared = Arc::clone(solver.prepared());
    let pool = solver.pool_handle().expect("the Hybrid engine has a pool");
    let engine = make_engine_on(EngineKind::Hybrid, Arc::clone(&prepared), Arc::clone(&pool));
    let mut state = WorkState::new(&prepared);
    let seq = reference(&solver);
    let mut seq_session = seq.session();

    // Rounds of three interleaved blocks, so drift hits each alike: an
    // untraced Session::posteriors block (the base for phase coverage
    // and trace overhead), Seq at one thread on the same cases, and a
    // traced block driving the next cases phase by phase through the
    // public engine and WorkState calls.
    let block = window.mul_f64(0.8 / (3 * ROUNDS) as f64);
    let mut next = warm.len();
    let (mut session_n, mut session_ms, mut session_secs) = (0u64, 0.0, 0.0);
    let (mut seq_n, mut seq_secs, mut par_ms) = (0u64, 0.0, 0.0);
    let (mut traced_n, mut traced_secs, mut regions, mut items) = (0u64, 0.0, 0, 0);
    for _ in 0..ROUNDS {
        let (lat, kept, secs) = closed_loop(&solver, cases, next, block, seed);
        out.attempted += lat.len() as u64;
        for l in &lat {
            match l {
                Some(ms) => {
                    session_n += 1;
                    session_ms += ms;
                }
                None => out.failed += 1,
            }
        }
        session_secs += secs;
        check(&solver, cases, &kept, &mut out);

        let seq_start = Instant::now();
        for (i, l) in lat.iter().enumerate() {
            if seq_start.elapsed() >= block {
                break;
            }
            let t0 = Instant::now();
            black_box(
                seq_session
                    .posteriors(&cases[(next + i) % cases.len()])
                    .ok(),
            );
            seq_secs += t0.elapsed().as_secs_f64();
            par_ms += l.unwrap_or(0.0);
            seq_n += 1;
        }
        next += lat.len();

        let stats_before: PoolStats = pool.stats();
        let mut kept = Vec::new();
        let start = Instant::now();
        while start.elapsed() < block {
            let case = next % cases.len();
            let ev = &cases[case];
            let op = rec.begin("inference.query", traced_n, None);
            rec.time(PHASES[0].0, traced_n, Some(op), || state.reset(&prepared));
            rec.time(PHASES[1].0, traced_n, Some(op), || {
                engine.enter_evidence(&mut state, ev)
            });
            rec.time(PHASES[2].0, traced_n, Some(op), || {
                engine.propagate(&mut state)
            });
            let result = rec.time(PHASES[3].0, traced_n, Some(op), || {
                state.extract_posteriors(&prepared, ev)
            });
            rec.end(op);
            match result {
                Ok(post) if sampled(seed, traced_n, CHECK_EVERY) => kept.push((case, post)),
                Ok(post) => drop(black_box(post)),
                Err(_) => out.failed += 1,
            }
            traced_n += 1;
            next += 1;
            out.attempted += 1;
        }
        traced_secs += start.elapsed().as_secs_f64();
        let stats_after = pool.stats();
        regions += stats_after.regions_started - stats_before.regions_started;
        items += stats_after.items - stats_before.items;
        check(&solver, cases, &kept, &mut out);
    }

    let session_us = session_ms * 1e3 / session_n.max(1) as f64;
    out.set("inference.session_run_us", session_us);
    let totals = rec.totals();
    let mut phase_sum = 0.0;
    for (span, metric) in PHASES {
        let us = totals[span].total_ns as f64 / 1e3 / traced_n.max(1) as f64;
        phase_sum += us;
        out.set(metric, us);
    }
    out.set("inference.phase_coverage", phase_sum / session_us);
    out.set(
        "harness.trace_overhead_frac",
        1.0 - (traced_n as f64 / traced_secs) / (session_n as f64 / session_secs),
    );
    out.set(
        "parallel.regions_per_query",
        regions as f64 / traced_n.max(1) as f64,
    );
    out.set(
        "parallel.items_per_region",
        items as f64 / regions.max(1) as f64,
    );
    out.note(format!(
        "phase coverage base: {session_us:.1} us per untraced Session::posteriors over {session_n} queries; \
         traced: {traced_n} queries, {regions} regions, {items} items"
    ));
    out.set("parallel.speedup_vs_seq", seq_secs * 1e3 / par_ms);
    out.note(format!(
        "speedup base: Seq {:.1} us vs Hybrid {:.1} us per query over the same {seq_n} cases",
        seq_secs * 1e6 / seq_n.max(1) as f64,
        par_ms * 1e3 / seq_n.max(1) as f64
    ));

    kernel_probe(&prepared, window.mul_f64(0.1), &mut out);
    out.set(
        "parallel.fork_join_us",
        fork_join_us(&pool, window.mul_f64(0.05)),
    );
    out.set("cache.lookups", 0.0);
    out.set("cache.hit_rate", 0.0);
    out.set("cache.evictions", 0.0);
    finish_trace(args, &rec, &mut out);
    out
}

/// Per-entry cost of the workload's own kernel plans, one layout class
/// at a time (`marginalize` + `extend_multiply` over every plan of the
/// class), plus the entries and bytes one query touches, computed from
/// the plan sizes.
fn kernel_probe(prepared: &Prepared, budget: Duration, out: &mut Outcome) {
    let plans: Vec<&KernelPlan> = prepared
        .sep_plans
        .iter()
        .flat_map(|e| [&e.child, &e.parent])
        .collect();
    // Collect and distribute each marginalize one endpoint and extend
    // the other: every plan runs both kernels once per query.
    let entries: usize = plans.iter().map(|p| 2 * p.sup_size()).sum();
    let kernel_bytes: usize = plans.iter().map(|p| 8 * 3 * p.sup_size()).sum();
    let reset_bytes = 8 * 2 * prepared.layout.total;
    out.set("potential.entries_per_query", entries as f64);
    out.set(
        "potential.bytes_per_query",
        (kernel_bytes + reset_bytes) as f64,
    );
    out.note(format!(
        "potential: entries_per_query and bytes_per_query are computed from plan sizes \
         ({} plans, slab {} f64), not measured",
        plans.len(),
        prepared.layout.total
    ));
    let max_sup = plans.iter().map(|p| p.sup_size()).max().unwrap_or(0);
    let src = vec![1.0f64; max_sup];
    let mut table = vec![1.0f64; max_sup];
    let msg = vec![1.0f64; max_sup];
    let mut sink = vec![0.0f64; max_sup];
    for metric in CLASS_METRICS {
        let members: Vec<&&KernelPlan> = plans
            .iter()
            .filter(|p| class_metric(p.layout()) == metric)
            .collect();
        let per_pass: usize = members.iter().map(|p| 2 * p.sup_size()).sum();
        if per_pass == 0 {
            out.note(format!("{metric}: no plan of this class in the model"));
            continue;
        }
        let (mut passes, start) = (0u64, Instant::now());
        while passes == 0 || start.elapsed() < budget / 4 {
            for p in &members {
                p.marginalize(&src[..p.sup_size()], &mut sink[..p.sub_size()]);
                p.extend_multiply(&mut table[..p.sup_size()], &msg[..p.sub_size()]);
            }
            black_box(&mut sink);
            passes += 1;
        }
        let ns = start.elapsed().as_nanos() as f64;
        out.set(metric, ns / (passes as f64 * per_pass as f64));
        out.note(format!(
            "{metric}: {} plans, {per_pass} entries per pass, {passes} passes",
            members.len()
        ));
    }
}

/// The per-entry metric of each plan layout class.
const CLASS_METRICS: [&str; 4] = [
    "potential.ns_per_entry.identity",
    "potential.ns_per_entry.inner_block",
    "potential.ns_per_entry.outer_block",
    "potential.ns_per_entry.generic",
];

fn class_metric(layout: Layout) -> &'static str {
    match layout {
        Layout::Identity => CLASS_METRICS[0],
        Layout::InnerBlock => CLASS_METRICS[1],
        Layout::OuterBlock { .. } => CLASS_METRICS[2],
        Layout::Generic => CLASS_METRICS[3],
    }
}

/// Mean cost of one empty `parallel_for` over the pool width.
fn fork_join_us(pool: &ThreadPool, budget: Duration) -> f64 {
    let (mut n, start) = (0u64, Instant::now());
    while n == 0 || start.elapsed() < budget {
        for _ in 0..64 {
            pool.parallel_for(0..pool.threads(), Schedule::Static, |i| {
                black_box(i);
            });
        }
        n += 64;
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}
