//! Serving sweep — measures the micro-batching front end against the
//! PR 2 batch path it wraps, at equal batch width.
//!
//! For each network × engine it reports:
//! * the **batch path**: the cases split into `QueryBatch`es of exactly
//!   the micro-batch width, run back-to-back through one session — the
//!   throughput ceiling a perfectly coalesced offline caller gets;
//! * the **server**: the same cases submitted by closed-loop concurrent
//!   clients through a one-model `RoutedServer` at each worker count,
//!   with requests/second and the p50/p99 round-trip latency a client
//!   actually observes.
//!
//! Usage:
//! ```text
//! cargo run --release -p fastbn-bench --bin serve -- \
//!     [--cases N] [--threads T] [--width W] [--workers 1,2] \
//!     [--delay-us D] [--repeat R] [--networks pigs,...] [--engines hybrid,...] \
//!     [--cache] [--distinct D] [--models] [--workers-total N] [--quick] \
//!     [--json PATH]
//! ```
//! Defaults: 256 cases, best of 3 repetitions, engine threads = available cores, micro-batch
//! width = engine threads (the narrowest batch that takes the
//! outer-parallel path), worker counts {1, 2}, 200µs window, the hybrid
//! engine, all six networks. `--quick` shrinks everything to a smoke
//! run for CI.
//!
//! `--cache` switches to the **repeated-query** benchmark: the case
//! stream cycles through only `--distinct` (default 16) evidence sets —
//! the serving traffic shape the query-result cache exists for — and
//! each engine prints a cache-off row (no solver cache, no in-window
//! dedup) against a cache-on row (solver cache + dedup) with the
//! speedup and the hit/miss/dedup counters.
//!
//! `--models` switches to the **multi-model** benchmark: mixed traffic
//! over several networks (default 3) driven through one `RoutedServer`
//! whose models share a single worker pool, against N separate
//! one-model `RoutedServer`s (each solver with its own pool) at equal
//! total serve-worker count — with per-model p50/p99 on both sides.
//! `--workers-total` overrides the worker budget (default: one per
//! model). `--models --cache` gives every model a query-result cache,
//! cycles each model's traffic through `--distinct` evidence sets, and
//! prints per-model cache counters read through
//! `Registry::cache_stats_for`.
//!
//! `--json PATH` additionally writes the measured rows as a schema-v1
//! `BENCH_*.json` perf record (see `fastbn_bench::report`) for the
//! committed baselines in `perf/` and the CI regression gate. In the
//! default mode this also measures each serve configuration with
//! telemetry *disabled* (`serve_telem_off` rows) and with a request
//! tracer at default 1-in-16 head sampling (`serve_trace` rows): the
//! three interleaved repetitions in one file are the record that stage
//! timing costs ≈ nothing and sampled tracing stays under a few
//! percent.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn_bayesnet::Evidence;
use fastbn_bench::measure::{
    cached_solver_for, one_model_registry, prepare, repeat_cases, run_cases_serve_on,
    run_cases_serve_with, run_mixed_traffic, solver_for, MixedRun, ServeOpts, ServeRun,
};
use fastbn_bench::report::{BenchReport, BenchRow};
use fastbn_bench::workloads::all_workloads;
use fastbn_inference::{CacheConfig, CacheStats, EngineKind, Query, QueryBatch, Solver};
use fastbn_registry::{Registry, RoutedServer};
use fastbn_telemetry::{TraceConfig, Tracer};

/// Microseconds, for the JSON rows (`Duration` has no lossless float).
fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A serving measurement as a perf-trajectory row.
fn serve_row(
    network: &str,
    engine: &str,
    mode: &str,
    threads: usize,
    workers: usize,
    run: &ServeRun,
) -> BenchRow {
    BenchRow::new(network, engine, mode, threads, workers)
        .timed(run.stats.completed as usize, run.total.as_secs_f64())
        .latency_us(us(run.latency.p50), us(run.latency.p99))
        .counter("serve.batches", run.stats.batches)
        .counter("serve.dedups", run.stats.dedups)
}

/// The PR 2 batch path at fixed width: cases chopped into batches of
/// exactly `width`, run back-to-back through one session (untimed
/// warm-up pass first, like every other measurement in this crate).
fn run_cases_batch_width(
    kind: EngineKind,
    prepared: Arc<fastbn_inference::Prepared>,
    threads: usize,
    width: usize,
    cases: &[Evidence],
) -> Duration {
    let solver = solver_for(kind, prepared, threads);
    let batches: Vec<QueryBatch> = cases
        .chunks(width)
        .map(|chunk| {
            chunk
                .iter()
                .map(|ev| Query::new().evidence(ev.clone()))
                .collect()
        })
        .collect();
    let mut session = solver.session();
    for batch in &batches {
        let _ = session.run_batch(batch);
    }
    let start = Instant::now();
    for batch in &batches {
        let results = session.run_batch(batch);
        assert!(results.iter().all(Result::is_ok));
    }
    start.elapsed()
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// The repeated-query cache comparison: cache-off (no solver cache, no
/// in-window dedup) vs cache-on (both), best of `repeat`, with the
/// cache's hit/miss counters and the server's dedup counter reported.
#[allow(clippy::too_many_arguments)]
fn run_cache_rows(
    network: &str,
    kind: EngineKind,
    prepared: Arc<fastbn_inference::Prepared>,
    threads: usize,
    workers: usize,
    width: usize,
    delay: Duration,
    repeat: usize,
    cases: &[Evidence],
    report: &mut BenchReport,
) {
    let off = (0..repeat)
        .map(|_| {
            let solver = Arc::new(solver_for(kind, prepared.clone(), threads));
            run_cases_serve_on(solver, workers, width, delay, false, cases)
        })
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .expect("at least one repetition");
    println!(
        "{:<26} {:>9.0} req/s  p50 {} ms  p99 {} ms",
        format!("{} cache-off wk={workers}", kind.id()),
        off.throughput,
        fmt_ms(off.latency.p50),
        fmt_ms(off.latency.p99),
    );
    let on = (0..repeat)
        .map(|_| {
            // A fresh solver per repetition keeps the counters clean;
            // the warm-up pass inside the runner fills the cache, so
            // the timed window measures steady-state repeated traffic.
            let solver = Arc::new(cached_solver_for(kind, prepared.clone(), threads));
            run_cases_serve_on(Arc::clone(&solver), workers, width, delay, true, cases)
        })
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .expect("at least one repetition");
    println!(
        "{:<26} {:>9.0} req/s  p50 {} ms  p99 {} ms  ({:.2}x cache-off)",
        format!("  cache-on  wk={workers}"),
        on.throughput,
        fmt_ms(on.latency.p50),
        fmt_ms(on.latency.p99),
        on.throughput / off.throughput,
    );
    // Both counters below cover the timed window only (warm-up pass
    // baselined away), so the hit rate describes steady-state traffic.
    let stats = on.cache.expect("cached solver reports cache stats");
    println!(
        "{:<26} timed window: {} hits / {} misses ({:.1}% hit rate, {} entries), {} dedups",
        "",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries,
        on.stats.dedups,
    );
    report.push(serve_row(
        network,
        kind.id(),
        "cache_off",
        threads,
        workers,
        &off,
    ));
    report.push(
        serve_row(network, kind.id(), "cache_on", threads, workers, &on)
            .counter("cache.hits", stats.hits)
            .counter("cache.misses", stats.misses),
    );
}

/// Prints one side of the multi-model comparison.
fn print_mixed(label: &str, run: &MixedRun) {
    println!(
        "{:<34} {:>9.0} req/s  ({} ms total)",
        label,
        run.throughput,
        fmt_ms(run.total),
    );
    for m in &run.per_model {
        println!(
            "{:<34} {:>6} req   p50 {} ms  p99 {} ms",
            format!("    {}", m.model),
            m.requests,
            fmt_ms(m.latency.p50),
            fmt_ms(m.latency.p99),
        );
    }
}

/// The `--models` mode: mixed traffic over several networks through
/// one `RoutedServer` (models sharing a single worker pool) vs N
/// separate one-model `RoutedServer`s (one private pool each) at equal
/// total serve-worker count, with per-model p50/p99. With `cache`,
/// every model gets a query-result cache, each model's traffic cycles
/// `distinct` evidence sets, and the routed side reports per-model
/// cache counters read through `Registry::cache_stats_for`.
#[allow(clippy::too_many_arguments)]
fn run_models_mode(
    names: &[String],
    kind: EngineKind,
    threads: usize,
    workers_total: usize,
    width: usize,
    delay: Duration,
    repeat: usize,
    cases_per_model: usize,
    cache: bool,
    distinct: usize,
    report: &mut BenchReport,
) {
    let workloads: Vec<_> = names
        .iter()
        .map(|name| {
            all_workloads()
                .into_iter()
                .find(|w| w.name == *name)
                .unwrap_or_else(|| panic!("unknown network {name:?}"))
        })
        .collect();
    assert!(
        workloads.len() >= 2,
        "--models needs at least two networks (got {names:?})"
    );
    let prepared: Vec<_> = workloads
        .iter()
        .map(|w| {
            let net = w.build();
            let mut cases = w.cases(&net, cases_per_model);
            if cache {
                cases = repeat_cases(&cases, distinct);
            }
            (w.name, prepare(&net), cases)
        })
        .collect();
    // The interleaved stream: round-robin across models, so every
    // micro-batch window sees mixed traffic.
    let mut traffic: Vec<(String, Query)> = Vec::with_capacity(names.len() * cases_per_model);
    for i in 0..cases_per_model {
        for (name, _, cases) in &prepared {
            traffic.push((name.to_string(), Query::new().evidence(cases[i].clone())));
        }
    }
    let clients = 2 * workers_total * width;
    println!(
        "Multi-model serving: {} networks × {cases_per_model} cases (interleaved), engine {}, \
         t={threads}, width {width}, {}µs window, {workers_total} total workers, \
         {clients} clients, best of {repeat}\n",
        names.len(),
        kind.id(),
        delay.as_micros(),
    );

    // One RoutedServer: every model compiled onto one shared pool.
    let (routed_best, routed_caches) = (0..repeat)
        .map(|_| {
            let registry = Arc::new(Registry::builder().threads(threads).build());
            for (name, prep, _) in &prepared {
                let mut builder = Solver::from_prepared(Arc::clone(prep))
                    .engine(kind)
                    .pool(registry.pool_handle());
                if cache {
                    builder = builder.cache(CacheConfig::default());
                }
                registry
                    .insert(*name, Arc::new(builder.build()))
                    .expect("unbounded registry");
            }
            let server = RoutedServer::builder(Arc::clone(&registry))
                .workers(workers_total)
                .max_batch(width)
                .max_delay(delay)
                .dedup(false)
                .build();
            let run = run_mixed_traffic(&traffic, clients, |model, query| {
                server.submit(model, query).expect("model resident")
            });
            server.shutdown();
            // Observed, not used: `cache_stats_for` reads a resident
            // model's counters without bumping its LRU recency.
            let caches: Vec<(String, Option<CacheStats>)> = names
                .iter()
                .map(|name| (name.clone(), registry.cache_stats_for(name)))
                .collect();
            (run, caches)
        })
        .max_by(|(a, _), (b, _)| a.throughput.total_cmp(&b.throughput))
        .expect("at least one repetition");
    print_mixed(
        &format!("routed  (1 shared pool, {workers_total} wk)"),
        &routed_best,
    );
    if cache {
        for (name, stats) in &routed_caches {
            let stats = stats.as_ref().expect("--models --cache builds caches");
            println!(
                "{:<34} cache: {} hits / {} misses ({:.1}% hit rate, {} entries)",
                format!("    {name}"),
                stats.hits,
                stats.misses,
                stats.hit_rate() * 100.0,
                stats.entries,
            );
        }
    }

    // N separate single-model servers: each solver spawns its own
    // engine pool, and the worker budget is split across the servers.
    let per_server = (workers_total / names.len()).max(1);
    let separate_best = (0..repeat)
        .map(|_| {
            let servers: std::collections::HashMap<String, RoutedServer> = prepared
                .iter()
                .map(|(name, prep, _)| {
                    let solver = Arc::new(if cache {
                        cached_solver_for(kind, Arc::clone(prep), threads)
                    } else {
                        solver_for(kind, Arc::clone(prep), threads)
                    });
                    let server = RoutedServer::builder(one_model_registry(name, solver))
                        .workers(per_server)
                        .max_batch(width)
                        .max_delay(delay)
                        .dedup(false)
                        .build();
                    (name.to_string(), server)
                })
                .collect();
            let run = run_mixed_traffic(&traffic, clients, |model, query| {
                servers[model]
                    .submit(model, query)
                    .expect("server accepting")
            });
            for server in servers.values() {
                server.shutdown();
            }
            run
        })
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .expect("at least one repetition");
    print_mixed(
        &format!("separate ({} pools, {per_server} wk each)", names.len()),
        &separate_best,
    );
    println!(
        "\nrouted vs separate at equal total workers: {:.2}x",
        routed_best.throughput / separate_best.throughput
    );

    // Perf-trajectory rows: one per side, the whole interleaved stream
    // as a unit (the network field names the mix).
    let mix = names.join("+");
    let mode = |side: &str| {
        if cache {
            format!("{side}_cache")
        } else {
            side.to_string()
        }
    };
    let mut routed_row = BenchRow::new(&mix, kind.id(), &mode("routed"), threads, workers_total)
        .timed(traffic.len(), routed_best.total.as_secs_f64());
    if cache {
        for (name, stats) in &routed_caches {
            let stats = stats.as_ref().expect("--models --cache builds caches");
            routed_row = routed_row.counter(&format!("cache.{name}.hits"), stats.hits);
        }
    }
    report.push(routed_row);
    report.push(
        BenchRow::new(&mix, kind.id(), &mode("separate"), threads, per_server)
            .timed(traffic.len(), separate_best.total.as_secs_f64()),
    );
}

fn main() {
    let mut cases_n = 256usize;
    let mut threads = fastbn_parallel::available_threads().max(2);
    let mut width: Option<usize> = None;
    let mut worker_counts = vec![1usize, 2];
    let mut delay = Duration::from_micros(200);
    let mut repeat = 3usize;
    let mut networks: Option<Vec<String>> = None;
    let mut engines: Vec<EngineKind> = vec![EngineKind::Hybrid];
    let mut cache = false;
    let mut models = false;
    let mut workers_total: Option<usize> = None;
    let mut distinct = 16usize;
    let mut quick = false;
    let mut json: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--cache" => cache = true,
            "--models" => models = true,
            "--json" => json = Some(PathBuf::from(it.next().expect("--json PATH"))),
            "--workers-total" => {
                workers_total = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--workers-total N"),
                )
            }
            "--distinct" => {
                distinct = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--distinct D")
            }
            "--quick" => {
                // Each measurement must cover tens of milliseconds or OS
                // jitter swamps the batch-vs-serve comparison; 384 cases
                // of the smallest network keep the whole smoke run ~1s.
                quick = true;
                cases_n = 384;
                threads = 2;
                worker_counts = vec![1, 2];
                networks = Some(vec!["hailfinder".into()]);
            }
            "--cases" => cases_n = it.next().and_then(|v| v.parse().ok()).expect("--cases N"),
            "--repeat" => repeat = it.next().and_then(|v| v.parse().ok()).expect("--repeat R"),
            "--threads" => threads = it.next().and_then(|v| v.parse().ok()).expect("--threads T"),
            "--width" => width = Some(it.next().and_then(|v| v.parse().ok()).expect("--width W")),
            "--delay-us" => {
                delay = Duration::from_micros(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--delay-us D"),
                )
            }
            "--workers" => {
                worker_counts = it
                    .next()
                    .expect("--workers list")
                    .split(',')
                    .map(|w| w.parse().expect("worker count"))
                    .collect()
            }
            "--networks" => {
                networks = Some(
                    it.next()
                        .expect("--networks list")
                        .split(',')
                        .map(str::to_string)
                        .collect(),
                )
            }
            "--engines" => {
                engines = it
                    .next()
                    .expect("--engines list")
                    .split(',')
                    .map(|e| {
                        e.parse::<EngineKind>()
                            .unwrap_or_else(|err| panic!("{err}"))
                    })
                    .collect()
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
    let width = width.unwrap_or(threads).max(1);
    // Fewer cases than the width would never exercise the outer batch
    // path (same guard as sweep --batch).
    let cases_n = cases_n.max(width);

    let mut report = BenchReport::new("serve", quick);
    let write_report = |report: &BenchReport| {
        if let Some(path) = &json {
            report.write(path).expect("write --json report");
            println!("wrote {} ({} rows)", path.display(), report.rows.len());
        }
    };

    if models {
        // `--quick` pinned networks to hailfinder for the single-model
        // sweep; the multi-model comparison needs ≥ 3 of them.
        let names = networks
            .filter(|list| !quick || list.len() >= 2)
            .unwrap_or_else(|| {
                vec![
                    "hailfinder".to_string(),
                    "pathfinder".to_string(),
                    "diabetes".to_string(),
                ]
            });
        let workers_total = workers_total.unwrap_or(names.len()).max(1);
        let cases_per_model = if quick {
            16
        } else {
            (cases_n / names.len()).max(width)
        };
        run_models_mode(
            &names,
            engines[0],
            threads,
            workers_total,
            width,
            delay,
            if quick { 1 } else { repeat },
            cases_per_model,
            cache,
            distinct,
            &mut report,
        );
        write_report(&report);
        return;
    }

    if cache {
        println!(
            "Repeated-query cache sweep: {cases_n} cases/network cycling {distinct} distinct \
             evidence sets, engine threads t={threads}, micro-batch width {width}, {}µs window\n",
            delay.as_micros()
        );
    } else {
        println!(
            "Serving sweep: {cases_n} cases/network, engine threads t={threads}, \
             micro-batch width {width}, {}µs window\n",
            delay.as_micros()
        );
    }
    for w in all_workloads() {
        if let Some(filter) = &networks {
            if !filter.iter().any(|n| n == w.name) {
                continue;
            }
        }
        let net = w.build();
        let prepared = prepare(&net);
        let cases = w.cases(&net, cases_n);
        println!(
            "== {} ({}, {} nodes) ==",
            w.name,
            if w.large_scale { "large" } else { "small" },
            net.num_vars()
        );
        if cache {
            let repeated = repeat_cases(&cases, distinct);
            for &kind in &engines {
                for &workers in &worker_counts {
                    run_cache_rows(
                        w.name,
                        kind,
                        prepared.clone(),
                        threads,
                        workers,
                        width,
                        delay,
                        repeat,
                        &repeated,
                        &mut report,
                    );
                }
            }
            println!();
            continue;
        }
        for &kind in &engines {
            // Best of `repeat` for both sides, the paper's best-over-runs
            // methodology: OS jitter hits each measurement independently.
            let batch_total = (0..repeat)
                .map(|_| run_cases_batch_width(kind, prepared.clone(), threads, width, &cases))
                .min()
                .expect("at least one repetition");
            let batch_thru = cases.len() as f64 / batch_total.as_secs_f64();
            println!(
                "{:<24} {:>9.0} req/s  ({} ms total, best of {repeat})",
                format!("{} batch path w={width}", kind.id()),
                batch_thru,
                fmt_ms(batch_total),
            );
            report.push(
                BenchRow::new(w.name, kind.id(), "batch", threads, 0)
                    .timed(cases.len(), batch_total.as_secs_f64()),
            );
            // Dedup off, as in `run_cases_serve`: the batch-vs-serve
            // comparison measures raw per-request serving overhead.
            // With `--json`, every telemetry-on repetition is followed
            // immediately by a telemetry-off one and a traced one
            // (fresh tracer, default 1-in-16 head sampling) — machine-
            // speed drift over the seconds of a sweep then hits all
            // sides alike instead of masquerading as instrumentation
            // overhead.
            let run_serve = |workers: usize, with_variants: bool| {
                let run_one = |telemetry: bool, tracer: Option<Arc<Tracer>>| {
                    let opts = ServeOpts {
                        workers,
                        max_batch: width,
                        max_delay: delay,
                        dedup: false,
                        telemetry,
                        tracer,
                    };
                    let solver = Arc::new(solver_for(kind, prepared.clone(), threads));
                    run_cases_serve_with(solver, &opts, &cases)
                };
                let faster = |best: &Option<ServeRun>, run: &ServeRun| {
                    best.as_ref().is_none_or(|b| run.throughput > b.throughput)
                };
                let mut best_on: Option<ServeRun> = None;
                let mut best_off: Option<ServeRun> = None;
                let mut best_trace: Option<ServeRun> = None;
                for _ in 0..repeat {
                    let on = run_one(true, None);
                    if faster(&best_on, &on) {
                        best_on = Some(on);
                    }
                    if with_variants {
                        let off = run_one(false, None);
                        if faster(&best_off, &off) {
                            best_off = Some(off);
                        }
                        let traced =
                            run_one(true, Some(Arc::new(Tracer::new(TraceConfig::default()))));
                        if faster(&best_trace, &traced) {
                            best_trace = Some(traced);
                        }
                    }
                }
                (
                    best_on.expect("at least one repetition"),
                    best_off,
                    best_trace,
                )
            };
            let mut best_thru = 0.0f64;
            let runs: Vec<(usize, ServeRun, Option<ServeRun>, Option<ServeRun>)> = worker_counts
                .iter()
                .map(|&workers| {
                    let (on, off, traced) = run_serve(workers, json.is_some());
                    (workers, on, off, traced)
                })
                .collect();
            for (workers, run, _, _) in &runs {
                println!(
                    "{:<24} {:>9.0} req/s  ({:.2}x batch)  p50 {} ms  p99 {} ms  \
                     [{} batches, mean {} ms]",
                    format!("  serve workers={workers}"),
                    run.throughput,
                    run.throughput / batch_thru,
                    fmt_ms(run.latency.p50),
                    fmt_ms(run.latency.p99),
                    run.stats.batches,
                    fmt_ms(run.latency.mean),
                );
                best_thru = best_thru.max(run.throughput);
                report.push(serve_row(
                    w.name,
                    kind.id(),
                    "serve",
                    threads,
                    *workers,
                    run,
                ));
            }
            println!(
                "{:<24} {:>9.0} req/s  ({:.2}x batch path at equal width)",
                "  serve best",
                best_thru,
                best_thru / batch_thru
            );
            // The instrumentation overhead record: the same
            // configurations with stage timing disabled and with a
            // sampling tracer installed, in the same file, so both
            // ratios are part of the committed trajectory.
            for (workers, on, off, traced) in &runs {
                let Some(off) = off else { continue };
                println!(
                    "{:<24} {:>9.0} req/s  (telemetry on: {:>+5.1}%)",
                    format!("  telem-off workers={workers}"),
                    off.throughput,
                    (on.throughput / off.throughput - 1.0) * 100.0,
                );
                report.push(serve_row(
                    w.name,
                    kind.id(),
                    "serve_telem_off",
                    threads,
                    *workers,
                    off,
                ));
                let Some(traced) = traced else { continue };
                println!(
                    "{:<24} {:>9.0} req/s  (vs untraced: {:>+5.1}%)",
                    format!("  traced    workers={workers}"),
                    traced.throughput,
                    (traced.throughput / on.throughput - 1.0) * 100.0,
                );
                report.push(serve_row(
                    w.name,
                    kind.id(),
                    "serve_trace",
                    threads,
                    *workers,
                    traced,
                ));
            }
        }
        println!();
    }
    write_report(&report);
}
