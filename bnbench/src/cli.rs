//! Command-line parsing. Every malformed invocation yields an
//! [`ArgError`] carrying the usage text; `main` prints it and exits
//! with code 2 rather than panicking.

use std::fmt;

/// The usage text printed on any argument error.
pub const USAGE: &str = "\
usage: bnbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]

  --workload   infer-diabetes | infer-pigs | serve-mix | live-munin2
  --seed       workload seed, an unsigned integer (default 1)
  --seconds    length of the timed window, 1..=600 (default 10)
  --trace      0: end-to-end metrics, untraced (default)
               1: traced run, per-layer metrics";

/// The four benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of all-marginals queries on the diabetes analogue.
    InferDiabetes,
    /// Closed loop of all-marginals queries on the pigs analogue.
    InferPigs,
    /// Open-loop multi-model serving through a `RoutedServer`.
    ServeMix,
    /// Incremental evidence edits on a `LiveSession` (munin2 analogue).
    LiveMunin2,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::InferDiabetes,
        Workload::InferPigs,
        Workload::ServeMix,
        Workload::LiveMunin2,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InferDiabetes => "infer-diabetes",
            Workload::InferPigs => "infer-pigs",
            Workload::ServeMix => "serve-mix",
            Workload::LiveMunin2 => "live-munin2",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A validated invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: u64,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
}

/// Why an invocation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error: {}\n\n{USAGE}", self.0)
    }
}

/// Parses the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| ArgError(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| ArgError(format!("unknown workload {name:?}")))?,
                );
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| ArgError(format!("--seed {v:?} is not an unsigned integer")))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| ArgError(format!("--seconds {v:?} is not in 1..=600")))?;
            }
            "--trace" => {
                let v = value()?;
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(ArgError(format!("--trace {v:?} is not 0 or 1"))),
                };
            }
            other => return Err(ArgError(format!("unknown argument {other:?}"))),
        }
    }
    let workload = workload.ok_or_else(|| ArgError("--workload is required".into()))?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, ArgError> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_invocation_parses() {
        let a = args(&[
            "--workload",
            "serve-mix",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ServeMix,
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn bad_values_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "infer-pigs", "--seed", "-1"],
            &["--workload", "infer-pigs", "--seconds", "0"],
            &["--workload", "infer-pigs", "--trace", "2"],
            &["--workload", "infer-pigs", "--seed"],
            &["--workload", "infer-pigs", "--bogus"],
            &["--seed", "3"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }
}
