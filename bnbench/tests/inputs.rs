//! The benchmark's inputs are a pure function of the workload seed:
//! the same seed gives byte-identical BIF text, evidence, arrival
//! schedules and edit streams, and another seed changes the traffic
//! but never the network structure.

use fastbn::Evidence;
use fastbn_benchmark::inputs::Arrival;
use fastbn_benchmark::{infer, live, serve};

/// Evidence rendered as text, so equality means byte equality.
fn evidence_text(cases: &[Evidence]) -> String {
    let pairs: Vec<Vec<(usize, usize)>> = cases
        .iter()
        .map(|e| e.iter().map(|(v, s)| (v.index(), s)).collect())
        .collect();
    format!("{pairs:?}")
}

fn schedule_text(arrivals: &[Arrival]) -> String {
    format!("{arrivals:?}")
}

#[test]
fn infer_inputs_repeat_for_a_seed_and_vary_across_seeds() {
    for spec in [&infer::PIGS, &infer::DIABETES] {
        let a = infer::inputs(spec, 7);
        let b = infer::inputs(spec, 7);
        let c = infer::inputs(spec, 8);
        assert_eq!(a.model.bif, b.model.bif, "{}", spec.model);
        assert_eq!(evidence_text(&a.cases), evidence_text(&b.cases));
        assert_eq!(a.model.bif, c.model.bif, "structure is seed-independent");
        assert_ne!(evidence_text(&a.cases), evidence_text(&c.cases));
    }
}

#[test]
fn serve_inputs_repeat_for_a_seed_and_vary_across_seeds() {
    let a = serve::inputs(3, 2);
    let b = serve::inputs(3, 2);
    let c = serve::inputs(4, 2);
    for (x, y) in a.models.iter().zip(&b.models) {
        assert_eq!(x.bif, y.bif);
    }
    for (x, y) in a.cases.iter().zip(&b.cases) {
        assert_eq!(evidence_text(x), evidence_text(y));
    }
    for (x, y) in [
        (&a.warm, &b.warm),
        (&a.timed, &b.timed),
        (&a.halves[0], &b.halves[0]),
        (&a.halves[1], &b.halves[1]),
    ] {
        assert_eq!(schedule_text(x), schedule_text(y));
    }
    assert_ne!(evidence_text(&a.cases[0]), evidence_text(&c.cases[0]));
    assert_ne!(schedule_text(&a.timed), schedule_text(&c.timed));
}

#[test]
fn serve_schedule_offers_the_configured_rate_and_mix() {
    let inputs = serve::inputs(1, 10);
    let n = inputs.timed.len() as f64;
    assert!((n / 10.0 - 500.0).abs() < 30.0, "{n} arrivals in 10 s");
    assert!(inputs.timed.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    let share = |m| inputs.timed.iter().filter(|a| a.model == m).count() as f64 / n;
    assert!((share(0) - 0.5).abs() < 0.03);
    assert!((share(1) - 0.3).abs() < 0.03);
    assert!((share(2) - 0.2).abs() < 0.03);
}

#[test]
fn live_edit_stream_repeats_for_a_seed_and_varies_across_seeds() {
    let a = live::inputs(5);
    let b = live::inputs(5);
    let c = live::inputs(6);
    assert_eq!(a.model.bif, b.model.bif);
    assert_eq!(a.hot, c.hot, "the hot set is part of the structure");
    let take = |i: &live::Inputs| i.edits().take(10_000).collect::<Vec<_>>();
    let (ea, eb, ec) = (take(&a), take(&b), take(&c));
    assert_eq!(format!("{ea:?}"), format!("{eb:?}"));
    assert_ne!(ea, ec);
    // Every edit changes its variable's state.
    let mut current = std::collections::HashMap::new();
    for (var, state) in ea {
        assert!(a.hot.contains(&var));
        assert_ne!(current.insert(var, state), Some(state));
    }
}
