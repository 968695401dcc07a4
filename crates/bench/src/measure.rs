//! Timing helpers shared by the report binaries and the Criterion benches.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn_bayesnet::{BayesianNetwork, Evidence};
use fastbn_inference::{CacheConfig, CacheStats, EngineKind, Prepared, Query, QueryBatch, Solver};
use fastbn_jtree::JtreeOptions;
use fastbn_registry::{Registry, RoutedServer, ServerStats};

/// Builds the shared prepared structures for a network.
pub fn prepare(net: &BayesianNetwork) -> Arc<Prepared> {
    Arc::new(Prepared::new(net, &JtreeOptions::default()))
}

/// Compiles a solver of `kind` over shared prepared structures.
pub fn solver_for(kind: EngineKind, prepared: Arc<Prepared>, threads: usize) -> Solver {
    Solver::from_prepared(prepared)
        .engine(kind)
        .threads(threads)
        .build()
}

/// A registry holding `solver` alone, under `id` — the serving shape
/// for one model: hand it to [`RoutedServer::builder`] and submit under
/// the same id.
pub fn one_model_registry(id: &str, solver: Arc<Solver>) -> Arc<Registry> {
    let registry = Arc::new(Registry::builder().build());
    registry
        .insert(id, solver)
        .expect("a fresh unbounded registry always has room");
    registry
}

/// [`solver_for`] with the query-result cache enabled (default
/// [`CacheConfig`]).
pub fn cached_solver_for(kind: EngineKind, prepared: Arc<Prepared>, threads: usize) -> Solver {
    Solver::from_prepared(prepared)
        .engine(kind)
        .threads(threads)
        .cache(CacheConfig::default())
        .build()
}

/// The repeated-query serving workload: the first `distinct` cases of
/// `cases`, cycled to the original length. Models traffic dominated by
/// recurring evidence sets (the Fast-PGM observation the cache exists
/// for); `distinct >= cases.len()` returns the cases unchanged.
pub fn repeat_cases(cases: &[Evidence], distinct: usize) -> Vec<Evidence> {
    if cases.is_empty() {
        return Vec::new();
    }
    let pool = &cases[..distinct.clamp(1, cases.len())];
    pool.iter().cycle().take(cases.len()).cloned().collect()
}

/// A measured engine run.
#[derive(Debug, Clone, Copy)]
pub struct EngineTiming {
    /// Thread count used.
    pub threads: usize,
    /// Total wall time for all cases.
    pub total: Duration,
}

impl EngineTiming {
    /// Seconds per case.
    pub fn per_case(&self, cases: usize) -> f64 {
        self.total.as_secs_f64() / cases.max(1) as f64
    }
}

/// Runs every case through one session of a fresh solver of `kind` and
/// returns the wall time of the query loop (solver construction excluded,
/// matching how the paper times repeated inference).
pub fn run_cases(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    threads: usize,
    cases: &[Evidence],
) -> EngineTiming {
    let solver = solver_for(kind, prepared, threads);
    let mut session = solver.session();
    // One untimed warm-up query faults in all working memory.
    if let Some(first) = cases.first() {
        let _ = session.posteriors(first);
    }
    let start = Instant::now();
    for evidence in cases {
        session
            .posteriors(evidence)
            .expect("workload evidence is sampled from the joint, so P(e) > 0");
    }
    EngineTiming {
        threads,
        total: start.elapsed(),
    }
}

/// Builds the all-marginals [`QueryBatch`] equivalent of `cases` (what
/// [`run_cases`] executes one call at a time).
pub fn batch_of(cases: &[Evidence]) -> QueryBatch {
    cases
        .iter()
        .map(|ev| Query::new().evidence(ev.clone()))
        .collect()
}

/// Times the same cases as [`run_cases`], but executed as one
/// `run_batch` call — the batched serving path the naive loop is
/// measured against. Batch construction and an untimed warm-up batch
/// are excluded from the timing, mirroring `run_cases`: the warm-up
/// must itself be a batch so the *per-chunk* pool scratch the outer
/// path draws is faulted in, not just the session's own state.
pub fn run_cases_batch(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    threads: usize,
    cases: &[Evidence],
) -> EngineTiming {
    let solver = solver_for(kind, prepared, threads);
    let batch = batch_of(cases);
    let mut session = solver.session();
    let _ = session.run_batch(&batch);
    let start = Instant::now();
    let results = session.run_batch(&batch);
    let total = start.elapsed();
    assert!(
        results.iter().all(Result::is_ok),
        "workload evidence is sampled from the joint, so every item succeeds"
    );
    EngineTiming { threads, total }
}

/// [`run_cases`] on a cache-enabled solver
/// ([`cached_solver_for`]). The untimed warm-up pass both faults in
/// scratch and fills the cache, so the timed loop measures steady-state
/// repeated traffic; the returned [`CacheStats`] covers the timed loop
/// only (hit/miss/insertion/eviction are deltas, occupancy is final).
pub fn run_cases_cached(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    threads: usize,
    cases: &[Evidence],
) -> (EngineTiming, CacheStats) {
    let solver = cached_solver_for(kind, prepared, threads);
    let mut session = solver.session();
    for evidence in cases {
        let _ = session.posteriors(evidence);
    }
    let warm = solver.cache_stats().expect("solver built with a cache");
    let start = Instant::now();
    for evidence in cases {
        session
            .posteriors(evidence)
            .expect("workload evidence is sampled from the joint, so P(e) > 0");
    }
    let total = start.elapsed();
    let end = solver.cache_stats().expect("solver built with a cache");
    (EngineTiming { threads, total }, end.delta_since(&warm))
}

/// Latency distribution of one serving run (nearest-rank percentiles
/// over the per-request submit→result round trips).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Median round-trip latency.
    pub p50: Duration,
    /// 99th-percentile round-trip latency (the serving tail).
    pub p99: Duration,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Worst observed request.
    pub max: Duration,
}

impl LatencySummary {
    /// Summarizes raw round-trip samples; panics on an empty set.
    pub fn from_samples(mut samples: Vec<Duration>) -> LatencySummary {
        assert!(!samples.is_empty(), "latency summary needs samples");
        samples.sort_unstable();
        let total: Duration = samples.iter().sum();
        LatencySummary {
            p50: percentile(&samples, 50.0),
            p99: percentile(&samples, 99.0),
            mean: total / samples.len() as u32,
            max: *samples.last().expect("non-empty"),
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted sample set.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    assert!(!sorted.is_empty(), "percentile needs samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One measured serving run: wall time, per-request latency
/// distribution, and the server's own traffic counters.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Wall time from the clients' synchronized start to the last
    /// result.
    pub total: Duration,
    /// Requests completed per second.
    pub throughput: f64,
    /// Round-trip latency distribution.
    pub latency: LatencySummary,
    /// Server counters for the timed run (warm-up baselined away).
    pub stats: ServerStats,
    /// Solver cache counters for the **timed window only** (warm-up
    /// baselined away, like `stats`); `None` when the solver has no
    /// cache. Occupancy fields are final, not deltas.
    pub cache: Option<CacheStats>,
}

/// Times the same cases as [`run_cases`] / [`run_cases_batch`], but
/// served through a [`RoutedServer`] over a one-model registry under
/// closed-loop concurrent submitters (each client submits one request,
/// waits for its result, repeats). Client count is `2 × workers × max_batch`,
/// enough in-flight requests to fill every worker's micro-batching
/// window with the next window already queued. An untimed full pass
/// warms each worker's scratch, mirroring the other measurement paths.
pub fn run_cases_serve(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    threads: usize,
    workers: usize,
    max_batch: usize,
    max_delay: Duration,
    cases: &[Evidence],
) -> ServeRun {
    let solver = Arc::new(solver_for(kind, prepared, threads));
    // Dedup off: this wrapper backs the serve-vs-batch-path comparison,
    // which measures raw per-request serving overhead — colliding
    // sampled cases must cost the server exactly what they cost the
    // batch baseline. The cache benchmark enables dedup explicitly.
    run_cases_serve_on(solver, workers, max_batch, max_delay, false, cases)
}

/// Server-shape knobs for [`run_cases_serve_with`], bundled so a
/// telemetry on/off comparison cannot accidentally vary anything else.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Serving worker threads.
    pub workers: usize,
    /// Micro-batch width.
    pub max_batch: usize,
    /// Micro-batching window deadline.
    pub max_delay: Duration,
    /// In-window duplicate collapsing.
    pub dedup: bool,
    /// Stage-histogram/timing telemetry on the server. Counters stay
    /// live either way ([`ServerStats`] depends on them);
    /// `false` measures the opt-out overhead floor.
    pub telemetry: bool,
    /// Request tracer installed on the server
    /// ([`fastbn_telemetry::Tracer`]): every request gets the slow-query
    /// accounting, head-sampled ones record span trees. `None` measures
    /// the no-tracer hot path.
    pub tracer: Option<Arc<fastbn_telemetry::Tracer>>,
}

/// The [`run_cases_serve`] core over a caller-built solver — the entry
/// point for cache-on / cache-off comparisons (pass a
/// [`cached_solver_for`] solver, or disable the server's in-window
/// `dedup` to measure raw per-request engine throughput).
pub fn run_cases_serve_on(
    solver: Arc<Solver>,
    workers: usize,
    max_batch: usize,
    max_delay: Duration,
    dedup: bool,
    cases: &[Evidence],
) -> ServeRun {
    let opts = ServeOpts {
        workers,
        max_batch,
        max_delay,
        dedup,
        telemetry: true,
        tracer: None,
    };
    run_cases_serve_with(solver, &opts, cases)
}

/// [`run_cases_serve_on`] with every server knob explicit — the runner
/// behind the telemetry-on vs telemetry-off overhead rows in
/// `serve --json`.
pub fn run_cases_serve_with(solver: Arc<Solver>, opts: &ServeOpts, cases: &[Evidence]) -> ServeRun {
    use std::sync::{Barrier, Mutex};

    let ServeOpts {
        workers,
        max_batch,
        max_delay,
        dedup,
        telemetry,
        ref tracer,
    } = *opts;
    const MODEL: &str = "model";
    let mut builder = RoutedServer::builder(one_model_registry(MODEL, Arc::clone(&solver)))
        .workers(workers)
        .max_batch(max_batch)
        .max_delay(max_delay)
        .dedup(dedup)
        .telemetry(telemetry);
    if let Some(tracer) = tracer {
        builder = builder.tracer(Arc::clone(tracer));
    }
    let server = builder.build();
    let queries: Vec<Query> = cases
        .iter()
        .map(|ev| Query::new().evidence(ev.clone()))
        .collect();
    // Untimed warm-up pass through the server itself, so every worker's
    // pooled scratch (and the batch path's per-chunk states) is faulted
    // in before the clock starts.
    let warmup: Vec<_> = queries
        .iter()
        .map(|q| server.submit(MODEL, q.clone()).expect("server accepting"))
        .collect();
    for pending in warmup {
        pending.wait().expect("workload evidence has P(e) > 0");
    }
    // Counters are bumped by workers *after* delivering each reply, so
    // give the warm-up's trailing increments a moment to land, then
    // baseline them away — the reported stats must describe the timed
    // run only.
    let warm_deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().completed < queries.len() as u64 && Instant::now() < warm_deadline {
        std::thread::yield_now();
    }
    let warm = server.stats();
    let warm_cache = solver.cache_stats();

    // Twice the windows' worth of in-flight clients keeps the queue
    // primed: while one window executes, the next window's requests are
    // already waiting, so workers never idle between dispatches (the
    // bounded queue caps actual buffering).
    let clients = (2 * workers * max_batch).min(queries.len()).max(1);
    let barrier = Barrier::new(clients + 1);
    let samples: Mutex<Vec<Duration>> = Mutex::new(Vec::with_capacity(queries.len()));
    let start = std::thread::scope(|scope| {
        for c in 0..clients {
            let server = &server;
            let queries = &queries;
            let barrier = &barrier;
            let samples = &samples;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(queries.len() / clients + 1);
                barrier.wait();
                // Closed loop over this client's share, round-robin by
                // index so every client sees the full evidence mix.
                for query in queries.iter().skip(c).step_by(clients) {
                    let begin = Instant::now();
                    let pending = server
                        .submit(MODEL, query.clone())
                        .expect("server accepting");
                    pending.wait().expect("workload evidence has P(e) > 0");
                    mine.push(begin.elapsed());
                }
                samples.lock().expect("client panicked").extend(mine);
            });
        }
        // Time from the moment every client is at the barrier — spawn
        // and arrival laggards must not count against the server.
        barrier.wait();
        Instant::now()
        // Scope exit joins every client: all requests completed.
    });
    let total = start.elapsed();
    // Shutdown joins the workers, making the counters final; subtract
    // the warm-up baseline so the stats cover the timed run alone.
    server.shutdown();
    let end = server.stats();
    let stats = ServerStats {
        submitted: end.submitted - warm.submitted,
        rejected: end.rejected - warm.rejected,
        dequeued: end.dequeued - warm.dequeued,
        completed: end.completed - warm.completed,
        cancelled: end.cancelled - warm.cancelled,
        batches: end.batches - warm.batches,
        dedups: end.dedups - warm.dedups,
        worker_panics: end.worker_panics - warm.worker_panics,
    };
    let cache = solver
        .cache_stats()
        .map(|end| end.delta_since(&warm_cache.expect("cache present before and after")));
    let samples = samples.into_inner().expect("client panicked");
    assert_eq!(samples.len(), queries.len(), "every request measured");
    ServeRun {
        total,
        throughput: queries.len() as f64 / total.as_secs_f64(),
        latency: LatencySummary::from_samples(samples),
        stats,
        cache,
    }
}

/// One model's share of a mixed-traffic run.
#[derive(Debug, Clone)]
pub struct ModelLatency {
    /// The model id.
    pub model: String,
    /// Requests this model answered.
    pub requests: usize,
    /// Round-trip latency distribution for this model's requests.
    pub latency: LatencySummary,
}

/// One measured mixed-traffic (multi-model) serving run.
#[derive(Debug, Clone)]
pub struct MixedRun {
    /// Wall time from the clients' synchronized start to the last
    /// result.
    pub total: Duration,
    /// Requests completed per second, all models together.
    pub throughput: f64,
    /// Per-model latency breakdown, in first-appearance order of the
    /// traffic stream.
    pub per_model: Vec<ModelLatency>,
}

/// Drives an interleaved multi-model traffic stream through any
/// serving front end — `submit` is called as `submit(model_id, query)`
/// and must return the request's [`Pending`](fastbn_registry::Pending)
/// handle. Used for both sides of the `serve --models` comparison: a
/// `RoutedServer` (one shared pool) and a fleet of per-model `Server`s
/// (the closure routes to the right one).
///
/// Mirrors [`run_cases_serve`]: an untimed warm-up pass first, then
/// closed-loop concurrent clients each striding the stream, with
/// per-request round trips collected per model.
pub fn run_mixed_traffic<F>(traffic: &[(String, Query)], clients: usize, submit: F) -> MixedRun
where
    F: Fn(&str, Query) -> fastbn_registry::Pending + Sync,
{
    use std::sync::{Barrier, Mutex};

    assert!(!traffic.is_empty(), "mixed run needs traffic");
    // Stable per-model slots in first-appearance order.
    let mut order: Vec<String> = Vec::new();
    let model_slot: std::collections::HashMap<&str, usize> = traffic
        .iter()
        .map(|(model, _)| {
            if !order.contains(model) {
                order.push(model.clone());
            }
            let slot = order.iter().position(|m| m == model).expect("just pushed");
            (model.as_str(), slot)
        })
        .collect();

    let warmup: Vec<_> = traffic
        .iter()
        .map(|(model, query)| submit(model, query.clone()))
        .collect();
    for pending in warmup {
        pending.wait().expect("workload evidence has P(e) > 0");
    }

    let clients = clients.min(traffic.len()).max(1);
    let barrier = Barrier::new(clients + 1);
    let samples: Mutex<Vec<(usize, Duration)>> = Mutex::new(Vec::with_capacity(traffic.len()));
    let start = std::thread::scope(|scope| {
        for c in 0..clients {
            let submit = &submit;
            let barrier = &barrier;
            let samples = &samples;
            let model_slot = &model_slot;
            scope.spawn(move || {
                let mut mine = Vec::with_capacity(traffic.len() / clients + 1);
                barrier.wait();
                for (model, query) in traffic.iter().skip(c).step_by(clients) {
                    let begin = Instant::now();
                    let pending = submit(model, query.clone());
                    pending.wait().expect("workload evidence has P(e) > 0");
                    mine.push((model_slot[model.as_str()], begin.elapsed()));
                }
                samples.lock().expect("client panicked").extend(mine);
            });
        }
        barrier.wait();
        Instant::now()
    });
    let total = start.elapsed();
    let samples = samples.into_inner().expect("client panicked");
    assert_eq!(samples.len(), traffic.len(), "every request measured");
    let mut buckets: Vec<Vec<Duration>> = vec![Vec::new(); order.len()];
    for (slot, duration) in samples {
        buckets[slot].push(duration);
    }
    let per_model = order
        .into_iter()
        .zip(buckets)
        .map(|(model, samples)| ModelLatency {
            model,
            requests: samples.len(),
            latency: LatencySummary::from_samples(samples),
        })
        .collect();
    MixedRun {
        total,
        throughput: traffic.len() as f64 / total.as_secs_f64(),
        per_model,
    }
}

/// The paper's methodology: run each thread count, report the best.
pub fn best_over_threads(
    kind: EngineKind,
    prepared: Arc<Prepared>,
    thread_counts: &[usize],
    cases: &[Evidence],
) -> EngineTiming {
    thread_counts
        .iter()
        .map(|&t| run_cases(kind, prepared.clone(), t, cases))
        .min_by(|a, b| a.total.cmp(&b.total))
        .expect("at least one thread count")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::workload_by_name;

    #[test]
    fn timings_are_positive_and_best_is_min() {
        let w = workload_by_name("hailfinder").unwrap();
        let net = w.build();
        let prepared = prepare(&net);
        let cases = w.cases(&net, 2);
        let seq = run_cases(EngineKind::Seq, prepared.clone(), 1, &cases);
        assert!(seq.total > Duration::ZERO);
        let best = best_over_threads(EngineKind::Hybrid, prepared, &[1, 2], &cases);
        assert!(best.threads == 1 || best.threads == 2);
        assert!(best.per_case(2) > 0.0);
    }
}
