//! The command line: malformed invocations print the usage text and
//! exit with code 2 instead of panicking, and the result line obeys the
//! format `BENCHMARK.json` promises.

use std::process::{Command, Output};

fn bnbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bnbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    for args in [
        &[][..],
        &["--help"],
        &["--bogus"],
        &["--workload"],
        &["--workload", "nope"],
        &["--workload", "infer-pigs", "--seed", "x"],
        &["--workload", "infer-pigs", "--seed", "-3"],
        &["--workload", "infer-pigs", "--seconds", "0"],
        &["--workload", "infer-pigs", "--seconds", "1.5"],
        &["--workload", "infer-pigs", "--trace", "yes"],
        &["--workload", "infer-pigs", "extra"],
    ] {
        let out = bnbench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: bnbench"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn a_short_run_prints_a_correct_result_line() {
    let out = bnbench(&["--workload", "infer-pigs", "--seconds", "1"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, unit) in fastbn_benchmark::report::END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(last.contains(&format!("\"unit\": \"{unit}\"")));
    }
}
