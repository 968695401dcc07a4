//! `live-munin2`: one `LiveSession` on the munin2 analogue runs a seeded
//! stream of single-finding `EvidenceDelta::observe` edits over a fixed
//! set of hot variables. Each edit is followed by a targeted
//! `marginal_into` read of one watched variable, and every
//! [`FULL_EVERY`]th step reads all posteriors instead. One operation is
//! one edit plus its read.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbn::bayesnet::bif::parse_str;
use fastbn::{
    Evidence, EvidenceDelta, InferenceError, LiveSession, Posteriors, Query, Solver, VarId,
};

use crate::cli::Args;
use crate::inputs::{hot_vars, sampled, sub_seed, watched_var, EditStream, ModelInput};
use crate::report::{peak_rss_mib, Latencies, Outcome, Stopwatch};
use crate::trace::Recorder;
use crate::{finish_trace, same_bits, set_setup_layers, timed_setup, traced_prepare, WARMUP};

const MODEL: &str = "munin2";

/// Hot variables the edits rotate over.
const HOT: usize = 16;

/// Every this many operations the read is a full `posteriors()`.
const FULL_EVERY: u64 = 64;

/// Goodput counts an operation only when it finished within this.
const LIMIT_MS: f64 = 10.0;

/// About one operation in this many is checked against the reference.
const CHECK_EVERY: u64 = 512;

/// Interleaved measurement rounds of the traced run.
const ROUNDS: u32 = 5;

const TAG_EDITS: u64 = 21;
const TAG_SAMPLE: u64 = 22;

/// Whether operation `op` (counted from 0) reads every posterior.
fn is_full_read(op: u64) -> bool {
    (op + 1).is_multiple_of(FULL_EVERY)
}

/// What one operation read.
enum Read {
    /// The watched variable's marginal and `P(e)`.
    Watched(Vec<f64>, f64),
    /// Every posterior.
    Full(Posteriors),
}

/// A sampled operation: the cumulative evidence after its edit and
/// what the live session returned.
struct Kept {
    evidence: Evidence,
    read: Read,
}

/// The live workload's state between blocks.
struct Live {
    session: LiveSession,
    stream: EditStream,
    watch: VarId,
    buf: Vec<f64>,
    /// Operations run so far (decides full reads and sampling).
    ops: u64,
    seed: u64,
}

impl Live {
    /// One edit plus its read, with spans when `rec` is given. Returns
    /// the latency in milliseconds and, when the operation is sampled,
    /// the result kept for the check.
    fn step(
        &mut self,
        (var, state): (VarId, usize),
        rec: Option<&mut Recorder>,
    ) -> Result<(f64, Option<Kept>), InferenceError> {
        let id = self.ops;
        self.ops += 1;
        let full = is_full_read(id);
        let t0 = Instant::now();
        let applied = self.session.apply(EvidenceDelta::observe(var, state));
        let t1 = Instant::now();
        let read = applied.and_then(|()| {
            if full {
                self.session.posteriors().map(Some)
            } else {
                self.session
                    .marginal_into(self.watch, &mut self.buf)
                    .map(|()| None)
            }
        });
        let t2 = Instant::now();
        if let Some(r) = rec {
            let op = r.record("delta.op", id, None, t0, t2);
            r.record("delta.apply", id, Some(op), t0, t1);
            let name = if full {
                "delta.full_read"
            } else {
                "delta.read"
            };
            r.record(name, id, Some(op), t1, t2);
        }
        let read = read?;
        let kept = sampled(self.seed, id, CHECK_EVERY).then(|| Kept {
            evidence: self.session.evidence().clone(),
            read: match read {
                Some(post) => Read::Full(post),
                None => Read::Watched(self.buf.clone(), self.session.prob_evidence()),
            },
        });
        Ok(((t2 - t0).as_secs_f64() * 1e3, kept))
    }

    /// Operations until `window` has elapsed, traced when `rec` is
    /// given. Returns each operation's latency, the kept results, the
    /// elapsed seconds and the edits applied.
    #[allow(clippy::type_complexity)]
    fn block(
        &mut self,
        window: Duration,
        mut rec: Option<&mut Recorder>,
    ) -> (Vec<Option<f64>>, Vec<Kept>, f64, Vec<(VarId, usize)>) {
        let (mut lat, mut kept, mut edits) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while start.elapsed() < window {
            let edit = self.stream.next().expect("the edit stream is endless");
            let result = self.step(edit, rec.as_deref_mut());
            lat.push(result.as_ref().ok().map(|(ms, _)| *ms));
            if let Ok((_, Some(k))) = result {
                kept.push(k);
            }
            edits.push(edit);
        }
        (lat, kept, start.elapsed().as_secs_f64(), edits)
    }
}

/// Parses the BIF text, compiles the model and opens the live session
/// (its initial full propagation included).
fn compile(bif: &str) -> LiveSession {
    let net = parse_str(bif).expect("the benchmark's own BIF text parses");
    Arc::new(Solver::new(&net)).live_session()
}

/// Compares kept results with a from-scratch query on `reference` (a
/// Seq solver) with the same cumulative evidence: targeted for watched
/// reads, full otherwise.
fn check(reference: &Solver, watch: VarId, kept: &[Kept], out: &mut Outcome) {
    let mut session = reference.session();
    for k in kept {
        out.checked += 1;
        let ok = match &k.read {
            Read::Full(post) => session
                .posteriors(&k.evidence)
                .is_ok_and(|r| same_bits(&r, post)),
            Read::Watched(marginal, prob_evidence) => session
                .run(&Query::new().evidence(k.evidence.clone()).targets([watch]))
                .ok()
                .and_then(|r| r.into_posteriors())
                .is_some_and(|r| {
                    r.prob_evidence.to_bits() == prob_evidence.to_bits()
                        && r.marginal(watch).len() == marginal.len()
                        && r.marginal(watch)
                            .iter()
                            .zip(marginal)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                }),
        };
        if !ok {
            out.mismatched += 1;
            out.failed += 1;
        }
    }
}

/// Everything the workload feeds the program for one seed.
pub struct Inputs {
    /// The model, as BIF text.
    pub model: ModelInput,
    /// The hot variables the edits rotate over.
    pub hot: Vec<VarId>,
    /// The variable read after every edit.
    pub watch: VarId,
    edit_seed: u64,
}

impl Inputs {
    /// The endless edit stream.
    pub fn edits(&self) -> EditStream {
        EditStream::new(&self.model.net, &self.hot, self.edit_seed)
    }
}

/// Generates the workload's inputs for `seed`.
pub fn inputs(seed: u64) -> Inputs {
    let model = ModelInput::analogue(MODEL);
    let hot = hot_vars(&model.net, HOT);
    let watch = watched_var(&model.net);
    Inputs {
        model,
        hot,
        watch,
        edit_seed: sub_seed(seed, TAG_EDITS),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let inputs = inputs(args.seed);
    let (input, watch) = (&inputs.model, inputs.watch);
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 1 << 18);
    let session = if args.trace {
        traced_setup(input, &mut rec, &mut out)
    } else {
        let (setup_s, session) = timed_setup(|| compile(&input.bif));
        out.set("setup_s", setup_s);
        session
    };
    let mut live = Live {
        session,
        stream: inputs.edits(),
        watch,
        buf: vec![0.0; input.net.cardinality(watch)],
        ops: 0,
        seed: sub_seed(args.seed, TAG_SAMPLE),
    };
    let solver = Solver::from_prepared(Arc::clone(live.session.solver().prepared())).build();
    live.block(WARMUP, None);
    let window = Duration::from_secs(args.seconds);
    if !args.trace {
        let clock = Stopwatch::start();
        let (lat, kept, _, _) = live.block(window, None);
        let elapsed = clock.elapsed();
        out.attempted = lat.len() as u64;
        out.failed = lat.iter().filter(|l| l.is_none()).count() as u64;
        Latencies {
            ms: lat,
            limit_ms: LIMIT_MS,
        }
        .report_closed_loop(elapsed, &mut out);
        check(&solver, watch, &kept, &mut out);
        out.set("peak_rss_mib", peak_rss_mib());
        return out;
    }
    run_traced(args, &mut live, &solver, window, rec, out)
}

/// The traced run: rounds of an untraced block, a from-scratch replay
/// of that block's edits, and a traced block with spans around each
/// edit and read.
fn run_traced(
    args: &Args,
    live: &mut Live,
    solver: &Solver,
    window: Duration,
    mut rec: Recorder,
    mut out: Outcome,
) -> Outcome {
    let block = window.mul_f64(1.0 / (3 * ROUNDS) as f64);
    let mut scratch = solver.session();
    let (mut untraced_n, mut untraced_secs, mut untraced_ms) = (0u64, 0.0, 0.0);
    let (mut scratch_n, mut scratch_secs, mut incr_ms) = (0u64, 0.0, 0.0);
    let (mut traced_n, mut traced_secs) = (0u64, 0.0);
    for _ in 0..ROUNDS {
        let mut evidence = live.session.evidence().clone();
        let first_op = live.ops;
        let (lat, kept, secs, edits) = live.block(block, None);
        out.attempted += lat.len() as u64;
        out.failed += lat.iter().filter(|l| l.is_none()).count() as u64;
        untraced_n += lat.len() as u64;
        untraced_secs += secs;
        untraced_ms += lat.iter().flatten().sum::<f64>();
        check(solver, live.watch, &kept, &mut out);

        // The same edits from scratch: a full query per operation with
        // the cumulative evidence (targeted, or all marginals on the
        // full-read steps).
        let start = Instant::now();
        for (i, (&(var, state), l)) in edits.iter().zip(&lat).enumerate() {
            if start.elapsed() >= block {
                break;
            }
            evidence.set(var, state);
            let full = is_full_read(first_op + i as u64);
            let t0 = Instant::now();
            if full {
                black_box(scratch.posteriors(&evidence).ok());
            } else {
                let q = Query::new()
                    .evidence(evidence.clone())
                    .targets([live.watch]);
                black_box(scratch.run(&q).ok());
            }
            scratch_secs += t0.elapsed().as_secs_f64();
            incr_ms += l.unwrap_or(0.0);
            scratch_n += 1;
        }

        let (lat, kept, secs, _) = live.block(block, Some(&mut rec));
        out.attempted += lat.len() as u64;
        out.failed += lat.iter().filter(|l| l.is_none()).count() as u64;
        traced_n += lat.len() as u64;
        traced_secs += secs;
        check(solver, live.watch, &kept, &mut out);
    }

    let totals = rec.totals();
    out.set("delta.apply_us", totals["delta.apply"].total_us_each());
    out.set("delta.read_us", totals["delta.read"].total_us_each());
    if let Some(t) = totals.get("delta.full_read") {
        out.set("delta.full_read_us", t.total_us_each());
    }
    out.set(
        "delta.speedup_vs_scratch",
        scratch_secs * 1e3 / incr_ms.max(f64::MIN_POSITIVE),
    );
    out.set(
        "harness.trace_overhead_frac",
        1.0 - (traced_n as f64 / traced_secs) / (untraced_n as f64 / untraced_secs),
    );
    out.note(format!(
        "speedup base: scratch {:.1} us vs incremental {:.1} us per operation over the same {scratch_n} edits; \
         untraced {untraced_n} operations ({:.1} us each), traced {traced_n}",
        scratch_secs * 1e6 / scratch_n.max(1) as f64,
        incr_ms * 1e3 / scratch_n.max(1) as f64,
        untraced_ms * 1e3 / untraced_n.max(1) as f64,
    ));
    finish_trace(args, &rec, &mut out);
    out
}

/// Set-up with spans around each layer: parse, junction tree, prepared
/// structures, the solver, and the live session's first propagation.
fn traced_setup(input: &ModelInput, rec: &mut Recorder, out: &mut Outcome) -> LiveSession {
    let mut live = None;
    let mut shape = [0.0; 3];
    for rep in 0..crate::SETUP_REPS as u64 {
        drop(live.take());
        let root = rec.begin("setup", rep, None);
        let prepared;
        (_, shape, prepared) = traced_prepare(rec, rep, root, &input.bif);
        let solver = rec.time("inference.engine", rep, Some(root), || {
            Arc::new(Solver::from_prepared(prepared).build())
        });
        live = Some(rec.time("delta.session", rep, Some(root), || solver.live_session()));
        rec.end(root);
    }
    set_setup_layers(out, rec, 1, shape, input.bif.len());
    live.expect("SETUP_REPS > 0")
}
