//! The metric names and units the binary prints are exactly the ones
//! `BENCHMARK.json` declares.

use fastbn_benchmark::cli::Workload;
use fastbn_benchmark::report::{END_TO_END, PER_LAYER};

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root")
}

#[test]
fn declared_metrics_match_the_binary() {
    let json = benchmark_json();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{entry} not declared");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
    let declared = json.matches("\"name\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len(),
        "BENCHMARK.json declares a metric or workload the binary does not know"
    );
}
