//! `ReferenceJt` — the UnBBayes-substitute sequential baseline.
//!
//! The paper's sequential comparison target is UnBBayes (see
//! `docs/ARCHITECTURE.md` for the substitution), a
//! Java junction-tree implementation whose per-entry cost is dominated by
//! object/dictionary overhead rather than asymptotics. This engine
//! reproduces that cost model faithfully in safe Rust:
//!
//! * every table entry is processed via a **full mixed-radix decode into a
//!   freshly allocated assignment vector** (no odometers, no stride
//!   fusion, no precompiled plans);
//! * variable positions are found by **linear scans** of the scope (like
//!   attribute-list lookups);
//! * every message allocates **fresh separator tables** instead of reusing
//!   the slab's scratch regions.
//!
//! Results are bit-identical to the optimized engines (same accumulation
//! order); only the constant factor differs — which is exactly what the
//! Table-1 "sequential speedup" column measures.
//!
//! fastbn: deny-hot-alloc

use std::sync::Arc;

use fastbn_bayesnet::{Evidence, VarId};
use fastbn_potential::Domain;

use crate::engines::InferenceEngine;
use crate::prepared::Prepared;
use crate::state::WorkState;

/// Textbook-style sequential junction-tree engine (UnBBayes analogue).
pub struct ReferenceJt {
    prepared: Arc<Prepared>,
}

impl ReferenceJt {
    /// Creates an engine over prepared structures.
    pub fn new(prepared: Arc<Prepared>) -> Self {
        ReferenceJt { prepared }
    }
}

/// Decodes `idx` into a freshly allocated assignment vector (the "object
/// per configuration" cost model).
// fastbn: allow(hot-alloc): deliberate — this engine reproduces UnBBayes'
// allocation-per-entry cost model.
fn decode_fresh(domain: &Domain, idx: usize) -> Vec<usize> {
    let mut states = vec![0usize; domain.num_vars()];
    domain.decode(idx, &mut states);
    states
}

/// Linear-scan position lookup (no binary search).
fn position_linear(domain: &Domain, var: VarId) -> usize {
    domain
        .vars()
        .iter()
        .position(|&v| v == var)
        .expect("variable in domain")
}

/// Index of the sub-assignment of `states` (over `src`) in `target`.
fn project_index(src: &Domain, states: &[usize], target: &Domain) -> usize {
    let mut idx = 0;
    for (pos, &v) in target.vars().iter().enumerate() {
        let src_pos = position_linear(src, v);
        idx += states[src_pos] * target.strides()[pos];
    }
    idx
}

// fastbn: allow(hot-alloc): deliberate — see `decode_fresh`.
fn naive_marginalize(src: &[f64], src_dom: &Domain, target: &Domain) -> Vec<f64> {
    let mut out = vec![0.0; target.size()];
    for (i, &v) in src.iter().enumerate() {
        let states = decode_fresh(src_dom, i);
        out[project_index(src_dom, &states, target)] += v;
    }
    out
}

fn naive_divide(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter()
        .zip(den)
        .map(|(&n, &d)| if d == 0.0 { 0.0 } else { n / d })
        .collect()
}

fn naive_extend_multiply(table: &mut [f64], dom: &Domain, msg: &[f64], msg_dom: &Domain) {
    for (i, v) in table.iter_mut().enumerate() {
        let states = decode_fresh(dom, i);
        *v *= msg[project_index(dom, &states, msg_dom)];
    }
}

fn naive_reduce(table: &mut [f64], dom: &Domain, var: VarId, state: usize) {
    for (i, v) in table.iter_mut().enumerate() {
        let states = decode_fresh(dom, i);
        if states[position_linear(dom, var)] != state {
            *v = 0.0;
        }
    }
}

impl ReferenceJt {
    fn message(&self, state: &mut WorkState, sender: usize, receiver: usize, sep: usize) {
        let prepared = &*self.prepared;
        let send_dom = &prepared.clique_domains[sender];
        let recv_dom = &prepared.clique_domains[receiver];
        let sep_dom = &prepared.sep_domains[sep];
        let (s, r, sp, _fresh, _ratio) = state.message_slices(sender, receiver, sep);
        // Fresh allocations per message, like the Java baseline — the
        // slab's scratch regions stay deliberately unused here.
        let fresh = naive_marginalize(s, send_dom, sep_dom);
        let ratio = naive_divide(&fresh, sp);
        sp.copy_from_slice(&fresh);
        naive_extend_multiply(r, recv_dom, &ratio, sep_dom);
    }
}

impl InferenceEngine for ReferenceJt {
    fn name(&self) -> &'static str {
        "Reference"
    }

    fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    fn enter_evidence(&self, state: &mut WorkState, evidence: &Evidence) {
        // Per-entry decode even for reduction, as the baseline would.
        for (var, observed) in evidence.iter() {
            let home = self.prepared.home[var.index()];
            let dom = &self.prepared.clique_domains[home];
            naive_reduce(state.clique_mut(home), dom, var, observed);
        }
    }

    fn propagate(&self, state: &mut WorkState) {
        let schedule = &self.prepared.built.schedule;
        crate::trace::collect(|| {
            for layer in &schedule.collect_layers {
                for &id in layer {
                    let m = schedule.messages[id];
                    self.message(state, m.child, m.parent, m.sep);
                }
            }
        });
        crate::trace::distribute(|| {
            for layer in &schedule.distribute_layers {
                for &id in layer {
                    let m = schedule.messages[id];
                    self.message(state, m.parent, m.child, m.sep);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::EngineKind;
    use crate::solver::Solver;
    use fastbn_bayesnet::{datasets, sampler};
    use fastbn_jtree::JtreeOptions;
    use fastbn_potential::PotentialTable;

    fn naive_marginal_of_var(values: &[f64], dom: &Domain, var: VarId, card: usize) -> Vec<f64> {
        let mut out = vec![0.0; card];
        for (i, &v) in values.iter().enumerate() {
            let states = decode_fresh(dom, i);
            out[states[position_linear(dom, var)]] += v;
        }
        out
    }

    #[test]
    fn reference_matches_seq_bitwise_on_asia() {
        let net = datasets::asia();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let reference = Solver::from_prepared(prepared.clone())
            .engine(EngineKind::Reference)
            .build();
        let seq = Solver::from_prepared(prepared).build();
        let mut ref_session = reference.session();
        let mut seq_session = seq.session();
        for case in sampler::generate_cases(&net, 25, 0.25, 11) {
            let a = ref_session.posteriors(&case.evidence).unwrap();
            let b = seq_session.posteriors(&case.evidence).unwrap();
            assert_eq!(a.max_abs_diff(&b), 0.0, "case {:?}", case.evidence);
            assert_eq!(a.prob_evidence.to_bits(), b.prob_evidence.to_bits());
        }
    }

    #[test]
    fn reference_matches_seq_on_student_no_evidence() {
        let net = datasets::student();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let reference = Solver::from_prepared(prepared.clone())
            .engine(EngineKind::Reference)
            .build();
        let seq = Solver::from_prepared(prepared).build();
        let a = reference.posteriors(&Evidence::empty()).unwrap();
        let b = seq.posteriors(&Evidence::empty()).unwrap();
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn naive_helpers_match_optimized_ops() {
        use fastbn_potential::ops;
        let domain = Arc::new(Domain::new(vec![
            (VarId(0), 2),
            (VarId(2), 3),
            (VarId(5), 2),
        ]));
        let values: Vec<f64> = (0..domain.size()).map(|i| (i * i % 13) as f64).collect();
        let table = PotentialTable::from_values(domain.clone(), values);
        let target = Arc::new(Domain::new(vec![(VarId(2), 3)]));

        let naive = naive_marginalize(table.values(), table.domain(), &target);
        let fast = ops::marginalize(&table, target.clone());
        assert_eq!(naive.as_slice(), fast.values());

        let msg_dom = Arc::new(Domain::new(vec![(VarId(5), 2)]));
        let msg = PotentialTable::from_values(msg_dom.clone(), vec![0.5, 2.0]);
        let mut a = table.clone();
        let mut b = table.clone();
        naive_extend_multiply(a.values_mut(), &domain, msg.values(), &msg_dom);
        ops::extend_multiply(&mut b, &msg);
        assert_eq!(a.values(), b.values());

        let mut c = table.clone();
        let mut d = table.clone();
        naive_reduce(c.values_mut(), &domain, VarId(2), 1);
        ops::reduce_evidence(&mut d, VarId(2), 1);
        assert_eq!(c.values(), d.values());

        assert_eq!(
            naive_marginal_of_var(table.values(), &domain, VarId(0), 2),
            ops::marginal_of_var(&table, VarId(0))
        );
    }
}
