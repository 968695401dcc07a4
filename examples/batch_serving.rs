//! Batched execution: run a mixed set of independent queries as one
//! `QueryBatch` and compare against the naive one-at-a-time loop.
//!
//! This shows the *offline* batch path — the caller assembles the batch
//! by hand. For live traffic (requests arriving one at a time from many
//! clients), don't hand-roll this: the `serving` example shows the
//! recommended front end, a `fastbn::RoutedServer` that coalesces queued
//! requests into these same batches with a deadline.
//!
//! Run with: `cargo run --release --example batch_serving`

use std::time::Instant;

use fastbn::bayesnet::{datasets, sampler};
use fastbn::{EngineKind, Evidence, Query, QueryBatch, Solver};

fn main() {
    let net = datasets::asia();
    let threads = fastbn::parallel::available_threads().max(2);
    let solver = Solver::builder(&net)
        .engine(EngineKind::Hybrid) // Fast-BNI-par
        .threads(threads)
        .build();
    println!(
        "solver: {} with {threads} worker threads on {} ({} variables)\n",
        solver.engine_name(),
        net.name(),
        net.num_vars()
    );

    // A mixed batch, like the ones the `RoutedServer` front end assembles from
    // queued requests: sampled-evidence marginals, a targeted query, a
    // virtual-evidence query, an MPE query — and one bad request, whose
    // typed error occupies its own slot without failing the batch.
    let dysp = net.var_id("Dyspnea").unwrap();
    let lung = net.var_id("LungCancer").unwrap();
    let xray = net.var_id("XRay").unwrap();
    let mut batch: QueryBatch = sampler::generate_cases(&net, 60, 0.25, 7)
        .into_iter()
        .map(|case| Query::new().evidence(case.evidence))
        .collect();
    batch.push(Query::new().observe(dysp, 0).targets([lung]));
    batch.push(Query::new().likelihood(xray, vec![0.8, 0.2]));
    batch.push(Query::new().observe(dysp, 0).mpe());
    batch.push(Query::new().likelihood(xray, vec![0.0, 0.0])); // malformed

    // Naive loop: one query at a time through a session.
    let mut session = solver.session();
    let _ = session.posteriors(&Evidence::empty()); // warm-up
    let start = Instant::now();
    let sequential: Vec<_> = batch.iter().map(|q| session.run(q)).collect();
    let loop_time = start.elapsed();

    // Batched: same queries, one call; wide batches spread across the
    // engine's worker pool with pooled scratch.
    let start = Instant::now();
    let batched = session.run_batch(&batch);
    let batch_time = start.elapsed();

    let ok = batched.iter().filter(|r| r.is_ok()).count();
    let err = batched.len() - ok;
    println!("batch of {}: {ok} ok, {err} failed slots", batch.len());
    for (i, result) in batched.iter().enumerate() {
        if let Err(e) = result {
            println!("  slot {i}: {e}");
        }
    }
    assert_eq!(sequential, batched, "batch must match the loop exactly");

    println!(
        "\nnaive loop: {:>8.3} ms\nrun_batch:  {:>8.3} ms  ({:.2}x)",
        loop_time.as_secs_f64() * 1e3,
        batch_time.as_secs_f64() * 1e3,
        loop_time.as_secs_f64() / batch_time.as_secs_f64()
    );
}
