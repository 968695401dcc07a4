//! `serve-mix`: three models in one `Registry` on one shared pool, each
//! with its query cache on, served by a `RoutedServer` with default
//! windowing and dedup. An open loop of Poisson arrivals at a fixed
//! offered rate comes from one submitter thread, results go to one
//! collector thread, and one model is hot-reloaded at a fixed cadence
//! from the submitter, so registry writes sit beside the reads.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::bayesnet::bif::parse_str;
use fastbn::parallel::PoolStats;
use fastbn::telemetry::HistogramSnapshot;
use fastbn::{
    BayesianNetwork, CacheConfig, CacheStats, Evidence, MetricsSnapshot, ModelConfig, ModelStats,
    Pending, Posteriors, Query, Registry, RoutedServer, ServerStats, Solver,
};

use crate::cli::Args;
use crate::inputs::{self, arrivals, sampled, sub_seed, Arrival, ModelInput, TrafficSpec};
use crate::report::{median, peak_rss_mib, quantile, Latencies, Outcome};
use crate::trace::Recorder;
use crate::{
    finish_trace, pool_width, same_bits, set_setup_layers, timed_setup, traced_prepare, WARMUP,
};

/// The served models, in routing order.
const MODELS: [&str; 3] = ["hailfinder", "pathfinder", "pigs"];

/// Offered load: rate, model mix, and the skewed case popularity that
/// makes about half of the cache lookups hit.
fn traffic() -> TrafficSpec {
    TrafficSpec {
        rate: 500.0,
        mix: vec![0.5, 0.3, 0.2],
        pool: 1024,
        skew: 0.8,
    }
}

/// The model reloaded with `Registry::load` every [`RELOAD_EVERY`].
const RELOADED: usize = 0;
const RELOAD_EVERY: Duration = Duration::from_secs(1);

/// Goodput counts a request only when it completed within this.
const LIMIT_MS: f64 = 20.0;

/// Queue bound: deep enough that a stall shows up as latency, not as
/// refusals.
const QUEUE_CAPACITY: usize = 4096;

/// How long the collector blocks on the oldest request before sweeping
/// the others; bounds how late a completion behind a slower request
/// can be noticed.
const SWEEP: Duration = Duration::from_micros(100);

/// About one request in this many is checked against the reference.
const CHECK_EVERY: u64 = 32;

const TAG_CASES: u64 = 11;
const TAG_WARM: u64 = 12;
const TAG_TIMED: u64 = 13;
const TAG_SAMPLE: u64 = 14;

/// The compiled serving stack.
struct Stack {
    nets: Vec<BayesianNetwork>,
    registry: Arc<Registry>,
    server: RoutedServer,
    /// Solvers replaced by hot reloads; their caches still count.
    retired: Vec<Arc<Solver>>,
}

fn config() -> ModelConfig {
    ModelConfig::new().cache(CacheConfig::default())
}

/// Parses every model, loads them onto one shared pool and starts the
/// server.
fn build(inputs: &[ModelInput]) -> Stack {
    let registry = Arc::new(Registry::builder().threads(pool_width()).build());
    let nets: Vec<BayesianNetwork> = inputs
        .iter()
        .map(|m| parse_str(&m.bif).expect("the benchmark's own BIF text parses"))
        .collect();
    for (id, net) in MODELS.iter().zip(&nets) {
        registry
            .load(*id, net, &config())
            .expect("an unbounded registry accepts every model");
    }
    let server = server_for(&registry);
    Stack {
        nets,
        registry,
        server,
        retired: Vec::new(),
    }
}

fn server_for(registry: &Arc<Registry>) -> RoutedServer {
    RoutedServer::builder(Arc::clone(registry))
        .queue_capacity(QUEUE_CAPACITY)
        .build()
}

/// One request as the collector finishes it.
struct Done {
    arrival: Arrival,
    /// Due → result noticed, `None` if refused or failed.
    latency_ms: Option<f64>,
    /// Due → submission started.
    late_ms: f64,
    /// Kept for the check when sampled.
    result: Option<Posteriors>,
}

/// A submitted request travelling to the collector.
struct InFlight {
    index: usize,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
    pending: Option<Pending>,
}

/// Every counter the per-layer report subtracts a baseline from.
struct Counters {
    server: ServerStats,
    models: Vec<ModelStats>,
    metrics: MetricsSnapshot,
    cache: CacheStats,
    pool: PoolStats,
}

impl Stack {
    /// Cache counters summed over the resident and the retired solvers.
    fn cache(&self) -> CacheStats {
        let mut sum = CacheStats::default();
        let current = MODELS.iter().filter_map(|id| self.registry.get(id));
        for solver in current.chain(self.retired.iter().cloned()) {
            if let Some(s) = solver.cache_stats() {
                sum.hits += s.hits;
                sum.misses += s.misses;
                sum.evictions += s.evictions;
            }
        }
        sum
    }

    fn counters(&self) -> Counters {
        Counters {
            server: self.server.stats(),
            models: MODELS
                .iter()
                .map(|id| self.server.model_stats_for(id).unwrap_or_default())
                .collect(),
            metrics: self.server.metrics_snapshot(),
            cache: self.cache(),
            pool: self.registry.pool_handle().stats(),
        }
    }
}

/// Runs one open-loop window over `schedule` and returns every request
/// in schedule order plus the reload times. With a recorder, each
/// request gets a span tree: `serve.request` (due → result) over
/// `harness.gen_late`, `routed.submit` and `routed.wait`.
fn open_loop(
    stack: &mut Stack,
    cases: &[Vec<Evidence>],
    schedule: &[Arrival],
    seed: u64,
    mut rec: Option<&mut Recorder>,
) -> (Vec<Done>, Vec<f64>) {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let mut reload_ms = Vec::new();
    let mut collector_rec = rec.as_deref().map(Recorder::fork);
    let start = Instant::now() + Duration::from_millis(2);
    let done = std::thread::scope(|scope| {
        let collector = scope.spawn(|| collect(rx, schedule, seed, collector_rec.as_mut()));
        let mut next_reload = start + RELOAD_EVERY;
        for (index, a) in schedule.iter().enumerate() {
            let due = start + Duration::from_nanos(a.due_ns);
            let query = Query::new().evidence(cases[a.model][a.case].clone());
            if Instant::now() >= next_reload {
                let t0 = Instant::now();
                if let Some(old) = stack.registry.get(MODELS[RELOADED]) {
                    stack.retired.push(old);
                }
                stack
                    .registry
                    .load(MODELS[RELOADED], &stack.nets[RELOADED], &config())
                    .expect("reloading a resident model never hits a capacity bound");
                let t1 = Instant::now();
                reload_ms.push((t1 - t0).as_secs_f64() * 1e3);
                if let Some(r) = rec.as_deref_mut() {
                    r.record("registry.reload", index as u64, None, t0, t1);
                }
                next_reload += RELOAD_EVERY;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let submit_start = Instant::now();
            let pending = stack.server.try_submit(MODELS[a.model], query).ok();
            let submit_end = Instant::now();
            tx.send(InFlight {
                index,
                due,
                submit_start,
                submit_end,
                pending,
            })
            .expect("the collector outlives the submitter");
        }
        drop(tx);
        collector.join().expect("the collector does not panic")
    });
    if let (Some(r), Some(c)) = (rec, collector_rec) {
        r.merge(c);
    }
    (done, reload_ms)
}

/// The collector: notices each completion as soon as it is ready, not
/// when the requests ahead of it finish. It blocks briefly on the
/// oldest outstanding request, then sweeps every other one without
/// waiting.
fn collect(
    rx: mpsc::Receiver<InFlight>,
    schedule: &[Arrival],
    seed: u64,
    mut rec: Option<&mut Recorder>,
) -> Vec<Done> {
    let mut done: Vec<Option<Done>> = (0..schedule.len()).map(|_| None).collect();
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();
    let mut open = true;
    let mut finish = |f: &mut InFlight, result: Option<Result<_, _>>, now: Instant| {
        let ok = result.and_then(|r: Result<fastbn::QueryResult, _>| r.ok());
        let latency_ms = ok.as_ref().map(|_| (now - f.due).as_secs_f64() * 1e3);
        let keep = sampled(seed, f.index as u64, CHECK_EVERY);
        if let Some(r) = rec.as_deref_mut() {
            let op = f.index as u64;
            let root = r.record("serve.request", op, None, f.due, now);
            r.record("harness.gen_late", op, Some(root), f.due, f.submit_start);
            r.record(
                "routed.submit",
                op,
                Some(root),
                f.submit_start,
                f.submit_end,
            );
            r.record("routed.wait", op, Some(root), f.submit_end, now);
        }
        done[f.index] = Some(Done {
            arrival: schedule[f.index],
            latency_ms,
            late_ms: (f.submit_start.saturating_duration_since(f.due)).as_secs_f64() * 1e3,
            result: ok
                .filter(|_| keep)
                .and_then(fastbn::QueryResult::into_posteriors),
        });
    };
    while open || !outstanding.is_empty() {
        if outstanding.is_empty() {
            match rx.recv() {
                Ok(f) => outstanding.push_back(f),
                Err(_) => open = false,
            }
        }
        while let Ok(f) = rx.try_recv() {
            outstanding.push_back(f);
        }
        let Some(mut first) = outstanding.pop_front() else {
            continue;
        };
        match first.pending.take() {
            None => finish(&mut first, None, Instant::now()),
            Some(p) => match p.wait_timeout(SWEEP) {
                Ok(r) => finish(&mut first, Some(r), Instant::now()),
                Err(p) => {
                    first.pending = Some(p);
                    outstanding.push_front(first);
                }
            },
        }
        for f in outstanding.iter_mut() {
            if let Some(p) = f.pending.take() {
                match p.wait_timeout(Duration::ZERO) {
                    Ok(r) => finish(f, Some(r), Instant::now()),
                    Err(p) => f.pending = Some(p),
                }
            }
        }
        outstanding.retain(|f| f.pending.is_some());
    }
    done.into_iter()
        .map(|d| d.expect("every scheduled request is collected"))
        .collect()
}

/// Compares sampled results with a Seq session on the same registry
/// model; a mismatch turns the request into a failure.
fn check(stack: &Stack, cases: &[Vec<Evidence>], done: &mut [Done], out: &mut Outcome) {
    let refs: Vec<Solver> = MODELS
        .iter()
        .map(|id| {
            let model = stack.registry.get(id).expect("models stay resident");
            Solver::from_prepared(Arc::clone(model.prepared())).build()
        })
        .collect();
    let mut sessions: Vec<_> = refs.iter().map(Solver::session).collect();
    for d in done.iter_mut() {
        let Some(post) = &d.result else { continue };
        out.checked += 1;
        let a = d.arrival;
        let ok = sessions[a.model]
            .posteriors(&cases[a.model][a.case])
            .is_ok_and(|r| same_bits(&r, post));
        if !ok {
            out.mismatched += 1;
            d.latency_ms = None;
        }
    }
}

/// Counts, latencies and the client/server cross-check of one window.
fn account(label: &str, done: &[Done], seconds: f64, out: &mut Outcome) -> Vec<f64> {
    out.attempted += done.len() as u64;
    out.failed += done.iter().filter(|d| d.latency_ms.is_none()).count() as u64;
    let mut late: Vec<f64> = done.iter().map(|d| d.late_ms).collect();
    late.sort_by(f64::total_cmp);
    out.note(format!(
        "{label}: generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms over {} requests",
        quantile(&late, 0.5),
        quantile(&late, 0.99),
        late.last().copied().unwrap_or(0.0),
        late.len()
    ));
    Latencies {
        ms: done.iter().map(|d| d.latency_ms).collect(),
        limit_ms: LIMIT_MS,
    }
    .report(seconds, out);
    late
}

/// A histogram's records since `base`.
fn since(now: &MetricsSnapshot, base: &MetricsSnapshot, name: &str) -> HistogramSnapshot {
    let (Some(n), Some(b)) = (now.histogram(name), base.histogram(name)) else {
        return HistogramSnapshot::empty();
    };
    HistogramSnapshot {
        counts: n.counts.iter().zip(&b.counts).map(|(x, y)| x - y).collect(),
        count: n.count - b.count,
        sum: n.sum - b.sum,
        max: n.max,
    }
}

/// Everything the workload feeds the program for one seed.
pub struct Inputs {
    /// The served models, as BIF text.
    pub models: Vec<ModelInput>,
    /// Each model's pool of distinct evidence sets.
    pub cases: Vec<Vec<Evidence>>,
    /// The warm-up schedule.
    pub warm: Vec<Arrival>,
    /// The timed window's schedule (untraced run).
    pub timed: Vec<Arrival>,
    /// The traced run's untraced and traced halves.
    pub halves: [Vec<Arrival>; 2],
}

/// Generates the workload's inputs for `seed` and a timed window of
/// `seconds`.
pub fn inputs(seed: u64, seconds: u64) -> Inputs {
    let models: Vec<ModelInput> = MODELS.iter().map(|m| ModelInput::analogue(m)).collect();
    let spec = traffic();
    let cases = models
        .iter()
        .zip(0u64..)
        .map(|(m, i)| inputs::cases(&m.net, spec.pool, sub_seed(seed, TAG_CASES + 100 * i)))
        .collect();
    let window = seconds * 1_000_000_000;
    Inputs {
        models,
        cases,
        warm: arrivals(&spec, WARMUP.as_nanos() as u64, sub_seed(seed, TAG_WARM)),
        timed: arrivals(&spec, window, sub_seed(seed, TAG_TIMED)),
        halves: [
            arrivals(&spec, window / 2, sub_seed(seed, TAG_TIMED + 1)),
            arrivals(&spec, window / 2, sub_seed(seed, TAG_TIMED + 2)),
        ],
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let Inputs {
        models,
        cases,
        warm,
        timed,
        halves: [first, second],
    } = inputs(args.seed, args.seconds);
    let seconds = args.seconds as f64;
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1 << 18);
    let mut stack = if args.trace {
        traced_setup(&models, &mut rec, &mut out)
    } else {
        let (setup_s, stack) = timed_setup(|| build(&models));
        out.set("setup_s", setup_s);
        stack
    };
    let seed = sub_seed(args.seed, TAG_SAMPLE);
    open_loop(&mut stack, &cases, &warm, seed, None);

    if !args.trace {
        let base = stack.counters();
        let (mut done, _) = open_loop(&mut stack, &cases, &timed, seed, None);
        check(&stack, &cases, &mut done, &mut out);
        account("timed window", &done, seconds, &mut out);
        let now = stack.counters();
        let server_p50 = since(&now.metrics, &base.metrics, "serve.request.total_ns").p50();
        out.note(format!(
            "client p50 {:.3} ms vs server serve.request.total_ns p50 {:.3} ms",
            out.values["latency_p50_ms"],
            server_p50 as f64 / 1e6
        ));
        out.set("peak_rss_mib", peak_rss_mib());
        return out;
    }

    // Traced run: an untraced half, then a traced half, each with its
    // own schedule over the same offered rate.
    let (mut done, _) = open_loop(&mut stack, &cases, &first, seed, None);
    check(&stack, &cases, &mut done, &mut out);
    account("untraced half", &done, seconds / 2.0, &mut out);
    let untraced_tput = out.values["throughput_ops_s"];

    let base = stack.counters();
    let (mut done, reloads) = open_loop(&mut stack, &cases, &second, seed, Some(&mut rec));
    let now = stack.counters();
    check(&stack, &cases, &mut done, &mut out);
    let late = account("traced half", &done, seconds / 2.0, &mut out);
    out.set(
        "harness.trace_overhead_frac",
        1.0 - out.values["throughput_ops_s"] / untraced_tput,
    );
    out.set("harness.gen_late_ms", quantile(&late, 0.99));
    if !reloads.is_empty() {
        out.note(format!(
            "hot reloads of {} during the traced half: {} (median {:.3} ms)",
            MODELS[RELOADED],
            reloads.len(),
            median(&reloads)
        ));
    }

    for (p50, p99, hist) in [
        (
            "routed.queue_wait_us.p50",
            "routed.queue_wait_us.p99",
            "serve.stage.queue_wait_ns",
        ),
        (
            "routed.window_us.p50",
            "routed.window_us.p99",
            "serve.stage.window_ns",
        ),
        (
            "routed.compute_us.p50",
            "routed.compute_us.p99",
            "serve.stage.compute_ns",
        ),
        (
            "routed.delivery_us.p50",
            "routed.delivery_us.p99",
            "serve.stage.delivery_ns",
        ),
    ] {
        let h = since(&now.metrics, &base.metrics, hist);
        out.set(p50, h.p50() as f64 / 1e3);
        out.set(p99, h.p99() as f64 / 1e3);
    }
    let total = since(&now.metrics, &base.metrics, "serve.request.total_ns");
    out.set("routed.total_us.p50", total.p50() as f64 / 1e3);
    let completed = now.server.completed - base.server.completed;
    let batch = since(&now.metrics, &base.metrics, "serve.batch.size");
    out.set("routed.completed", completed as f64);
    out.set("routed.batch_size_mean", batch.mean());
    out.set(
        "routed.dedup_frac",
        (now.server.dedups - base.server.dedups) as f64 / completed.max(1) as f64,
    );
    out.set(
        "routed.rejected",
        (now.server.rejected - base.server.rejected) as f64,
    );
    let hits = now.cache.hits - base.cache.hits;
    let lookups = hits + now.cache.misses - base.cache.misses;
    out.set("cache.lookups", lookups as f64);
    out.set("cache.hit_rate", hits as f64 / lookups.max(1) as f64);
    out.set(
        "cache.evictions",
        (now.cache.evictions - base.cache.evictions) as f64,
    );
    out.note(format!(
        "bases: dedup_frac over {completed} completed; hit_rate over {lookups} lookups; \
         batch_size_mean over {} batches",
        batch.count
    ));
    for (m, (n, b)) in now.models.iter().zip(&base.models).enumerate() {
        out.note(format!(
            "model {}: {} completed, {} dedups, {} batches",
            MODELS[m],
            n.completed - b.completed,
            n.dedups - b.dedups,
            n.batches - b.batches
        ));
    }
    let regions = now.pool.regions_started - base.pool.regions_started;
    out.set(
        "parallel.regions_per_query",
        regions as f64 / completed.max(1) as f64,
    );
    out.set(
        "parallel.items_per_region",
        (now.pool.items - base.pool.items) as f64 / regions.max(1) as f64,
    );
    out.note(format!(
        "client p50 {:.3} ms vs server serve.request.total_ns p50 {:.3} ms; \
         shared pool: {regions} regions over {completed} completed requests",
        out.values["latency_p50_ms"],
        total.p50() as f64 / 1e6
    ));
    out.set("registry.load_ms", median(&reloads));
    finish_trace(args, &rec, &mut out);
    out
}

/// Set-up with spans around each layer, per model: parse, junction
/// tree, prepared structures, then the `Registry::load` that compiles
/// the model onto the shared pool.
fn traced_setup(models: &[ModelInput], rec: &mut Recorder, out: &mut Outcome) -> Stack {
    let mut stack = None;
    let mut shape = [0.0; 3];
    for rep in 0..crate::SETUP_REPS as u64 {
        drop(stack.take());
        let root = rec.begin("setup", rep, None);
        let registry = Arc::new(Registry::builder().threads(pool_width()).build());
        let mut nets = Vec::new();
        shape = [0.0; 3];
        for (id, m) in MODELS.iter().zip(models) {
            let (net, model_shape, _) = traced_prepare(rec, rep, root, &m.bif);
            rec.time("registry.load", rep, Some(root), || {
                registry
                    .load(*id, &net, &config())
                    .expect("an unbounded registry accepts every model")
            });
            for (sum, v) in shape.iter_mut().zip(model_shape) {
                *sum += v;
            }
            nets.push(net);
        }
        let server = rec.time("routed.start", rep, Some(root), || server_for(&registry));
        rec.end(root);
        stack = Some(Stack {
            nets,
            registry,
            server,
            retired: Vec::new(),
        });
    }
    let bif_bytes = models.iter().map(|m| m.bif.len()).sum();
    set_setup_layers(out, rec, MODELS.len(), shape, bif_bytes);
    out.note("jtree shape and set-up times are summed over the three models");
    stack.expect("SETUP_REPS > 0")
}
