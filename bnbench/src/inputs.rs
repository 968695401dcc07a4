//! Seeded input generation. Everything a workload feeds the program —
//! BIF text, sampled evidence, the open-loop arrival schedule and the
//! live edit stream — is a pure function of the workload seed, so the
//! same seed always gives byte-identical inputs.
//!
//! Network *structure* never depends on the seed: every model is the
//! fixed `fastbn_bench::workloads` analogue, so a workload keeps its
//! identity across seeds and only the traffic over it varies.

use fastbn::bayesnet::bif::to_bif_string;
use fastbn::bayesnet::sampler::generate_cases;
use fastbn::{BayesianNetwork, Evidence, VarId};
use fastbn_bench::workload_by_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Share of variables observed per sampled case (the paper's 20%).
pub const OBSERVED_FRACTION: f64 = 0.2;

/// One model as the benchmark hands it to the program: BIF text, plus
/// the analogue network the harness samples evidence from.
pub struct ModelInput {
    /// Analogue name (`diabetes`, `pigs`, ...).
    pub name: &'static str,
    /// The generated network; used only on the harness side.
    pub net: BayesianNetwork,
    /// The network serialised as BIF — the program's input.
    pub bif: String,
}

impl ModelInput {
    /// Generates the named paper-network analogue and its BIF text.
    pub fn analogue(name: &'static str) -> ModelInput {
        let net = workload_by_name(name)
            .unwrap_or_else(|| panic!("{name} is a fastbn_bench workload"))
            .build();
        let bif = to_bif_string(&net);
        ModelInput { name, net, bif }
    }
}

/// Derives an independent stream seed for one purpose (`tag`) from the
/// workload seed (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` evidence sets sampled from `net` (forward sample, then 20% of
/// the variables observed).
pub fn cases(net: &BayesianNetwork, n: usize, seed: u64) -> Vec<Evidence> {
    generate_cases(net, n, OBSERVED_FRACTION, seed)
        .into_iter()
        .map(|c| c.evidence)
        .collect()
}

/// One scheduled request of the open loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, in nanoseconds from the start of the
    /// schedule.
    pub due_ns: u64,
    /// Index of the model it targets.
    pub model: usize,
    /// Index of its evidence in that model's case pool.
    pub case: usize,
}

/// The shape of open-loop traffic.
#[derive(Debug, Clone)]
pub struct TrafficSpec {
    /// Offered rate, requests per second (Poisson arrivals).
    pub rate: f64,
    /// Relative share of each model.
    pub mix: Vec<f64>,
    /// Distinct evidence sets per model.
    pub pool: usize,
    /// Zipf exponent of the case popularity (`P(k) ∝ 1/(k+1)^skew`).
    pub skew: f64,
}

/// Poisson arrivals at `spec.rate` covering `duration_ns`, each routed
/// to a model by `spec.mix` and to a case by the Zipf popularity.
pub fn arrivals(spec: &TrafficSpec, duration_ns: u64, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mix = cumulative(spec.mix.iter().copied());
    let popularity = cumulative((0..spec.pool).map(|k| 1.0 / ((k + 1) as f64).powf(spec.skew)));
    let mut out = Vec::with_capacity((spec.rate * duration_ns as f64 / 1e9 * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        // Exponential gap; 1 - u lies in (0, 1], so the log is finite.
        t += -(1.0 - rng.gen::<f64>()).ln() / spec.rate * 1e9;
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(Arrival {
            due_ns: t as u64,
            model: pick(&mix, rng.gen::<f64>()),
            case: pick(&popularity, rng.gen::<f64>()),
        });
    }
}

/// Normalised cumulative distribution of `weights`.
fn cumulative(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = weights
        .map(|w| {
            acc += w;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The index whose cumulative share first reaches `u`.
fn pick(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The live workload's fixed monitoring set: `count` hot variables
/// spread evenly over the network (independent of the seed).
pub fn hot_vars(net: &BayesianNetwork, count: usize) -> Vec<VarId> {
    let n = net.num_vars();
    (0..count)
        .map(|i| VarId::from_index((i * n) / count + n / (2 * count)))
        .collect()
}

/// The variable the live workload re-reads after every edit: the last
/// one in the network, which is never hot.
pub fn watched_var(net: &BayesianNetwork) -> VarId {
    VarId::from_index(net.num_vars() - 1)
}

/// A seeded, endless stream of single-finding edits over a fixed set
/// of hot variables. Each edit picks a hot variable at random and moves
/// it to a state different from its current one, so every edit is an
/// effective change.
pub struct EditStream {
    rng: StdRng,
    hot: Vec<(VarId, usize)>,
    current: Vec<Option<usize>>,
}

impl EditStream {
    /// The stream over `hot` (variables of `net`) for `seed`.
    pub fn new(net: &BayesianNetwork, hot: &[VarId], seed: u64) -> EditStream {
        EditStream {
            rng: StdRng::seed_from_u64(seed),
            hot: hot.iter().map(|&v| (v, net.cardinality(v))).collect(),
            current: vec![None; hot.len()],
        }
    }
}

impl Iterator for EditStream {
    type Item = (VarId, usize);

    fn next(&mut self) -> Option<(VarId, usize)> {
        let slot = self.rng.gen_range(0..self.hot.len());
        let (var, card) = self.hot[slot];
        let state = match self.current[slot] {
            // Shift by 1..card so the state always changes.
            Some(old) => (old + self.rng.gen_range(1..card)) % card,
            None => self.rng.gen_range(0..card),
        };
        self.current[slot] = Some(state);
        Some((var, state))
    }
}

/// Whether operation `index` of a run belongs to the seeded sample
/// whose results are checked bit for bit (about one in `every`, and
/// always the first operation).
pub fn sampled(seed: u64, index: u64, every: u64) -> bool {
    index == 0 || sub_seed(seed, index).is_multiple_of(every)
}
