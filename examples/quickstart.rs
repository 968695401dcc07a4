//! Quickstart: build a network, compile a solver, run Fast-BNI queries
//! through a session, print posteriors.
//!
//! Run with: `cargo run --release --example quickstart`

use fastbn::bayesnet::datasets;
use fastbn::{CacheConfig, EngineKind, Query, Solver, VarId};

fn main() {
    // The classic "Asia" chest-clinic network (8 binary variables).
    let net = datasets::asia();
    println!(
        "network: {} ({} variables, {} edges)\n",
        net.name(),
        net.num_vars(),
        net.num_edges()
    );

    // One-time compilation: moralize, triangulate, build the junction
    // tree, select the center root, assign CPTs to cliques, precompute
    // the engine's task plans. The solver is immutable and Send + Sync.
    let solver = Solver::builder(&net)
        .engine(EngineKind::Hybrid) // Fast-BNI-par
        .threads(2)
        .build();
    let prepared = solver.prepared();
    println!(
        "junction tree: {} cliques, {} separators, width {}, {} layers\n",
        prepared.num_cliques(),
        prepared.num_separators(),
        prepared.built.tree.width(),
        prepared.built.schedule.num_layers(),
    );

    // A per-caller session; repeated queries reuse its scratch.
    let mut session = solver.session();

    // A patient with dyspnea who recently visited Asia.
    let query = Query::new()
        .observe(net.var_id("Dyspnea").unwrap(), 0)
        .observe(net.var_id("VisitAsia").unwrap(), 0);
    let posteriors = session.run(&query).unwrap().into_posteriors().unwrap();

    println!("P(evidence) = {:.6}", posteriors.prob_evidence);
    println!("posterior marginals given dyspnea + Asia visit:");
    for v in 0..net.num_vars() {
        let id = VarId::from_index(v);
        let var = net.var(id);
        let m = posteriors.marginal(id);
        let states: Vec<String> = var
            .states()
            .iter()
            .zip(m)
            .map(|(s, p)| format!("{s}={p:.4}"))
            .collect();
        println!("  {:<14} {}", var.name(), states.join("  "));
    }

    // Targeted query: pay only for the marginal you need.
    let lung = net.var_id("LungCancer").unwrap();
    let targeted = session
        .run(
            &Query::new()
                .observe(net.var_id("Dyspnea").unwrap(), 0)
                .targets([lung]),
        )
        .unwrap()
        .into_posteriors()
        .unwrap();
    println!(
        "\ntargeted: P(LungCancer = yes | dyspnea) = {:.4} (only this marginal was extracted)",
        targeted.marginal(lung)[0]
    );

    // Repeated traffic? Enable the query-result cache: posteriors are
    // memoized per canonicalized query (the model is immutable, so
    // entries never go stale), and a hit is bit-identical to
    // recomputing. Proportional likelihood vectors and last-wins
    // re-observations canonicalize to the same entry.
    let cached = Solver::builder(&net)
        .engine(EngineKind::Hybrid)
        .threads(2)
        .cache(CacheConfig::default())
        .build();
    let repeat = Query::new().observe(net.var_id("Dyspnea").unwrap(), 0);
    let cold = cached.query(&repeat).unwrap(); // computed
    let warm = cached.query(&repeat).unwrap(); // replayed from the cache
    assert_eq!(cold, warm);
    let stats = cached.cache_stats().unwrap();
    println!(
        "\ncache: {} hit / {} miss ({} entries, ~{} bytes)",
        stats.hits, stats.misses, stats.entries, stats.bytes
    );

    // Got many independent queries instead of one? Don't loop — group
    // them into a `QueryBatch` (see the batch_serving example), and for
    // live traffic from many clients put a `RoutedServer` in front (see the
    // serving example; pair it with `.cache(..)` so repeated requests
    // are answered from memory and identical in-flight requests dedup).
}
