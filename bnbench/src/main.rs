//! `bnbench`: runs one benchmark workload and prints its metrics, the
//! last line being the JSON result. Exit codes: 0 when every checked
//! result matched its reference, 1 on a mismatch or failed operation,
//! 2 on bad arguments.

use std::process::ExitCode;

use fastbn_benchmark::cli;
use fastbn_benchmark::report::{END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = fastbn_benchmark::run(&args);
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    print!("{}", outcome.render(wanted));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
