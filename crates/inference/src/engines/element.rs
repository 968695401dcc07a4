//! `ElementJt` — element-wise fine-grained parallelism (the Zheng '13 GPU
//! analogue).
//!
//! Zheng's GPU junction tree precomputes index-mapping tables in device
//! memory once per network, then launches one kernel per elementary table
//! operation, each thread handling one element via the mapping tables.
//! The CPU analogue (see `docs/ARCHITECTURE.md`):
//!
//! * all mapping arrays are **materialized up front** (engine
//!   construction), one per separator and direction;
//! * each table operation is one parallel region whose tasks read the
//!   mapping arrays (indirect, memory-bound access — the GPU cost shape);
//! * the dynamic schedule uses a deliberately small grain, mimicking
//!   element-granularity task issue.
//!
//! Compared to `PrimitiveJt` this trades index arithmetic for memory
//! traffic; both share the "one region per operation" overhead the hybrid
//! engine eliminates.
//!
//! fastbn: deny-hot-alloc

use std::sync::Arc;

use fastbn_bayesnet::Evidence;
use fastbn_parallel::{Schedule, ThreadPool};
use fastbn_potential::{fiber_offsets, ops_par};

use crate::engines::InferenceEngine;
use crate::prepared::Prepared;
use crate::state::WorkState;

/// Element-level task issue for the query-time kernels: tiny claimable
/// tasks, as in one-thread-per-element GPU kernels. The fine-grain claim
/// traffic is this engine's defining overhead (the paper: "large
/// parallelization overhead since the table operations are invoked
/// frequently").
const ELEMENT_GRAIN: usize = 2;

/// The one-time construction phase (materializing mapping tables) is the
/// GPU's "upload" step and is not part of query time; it uses a normal
/// coarse schedule.
const SETUP_GRAIN: usize = 4096;

/// Per-separator mapping tables, both directions.
struct SepMaps {
    /// sep-entry → base index in the child clique.
    bases_in_child: Vec<u32>,
    /// sep-entry → base index in the parent clique.
    bases_in_parent: Vec<u32>,
    /// Source offsets completing a sep assignment in the child clique.
    fibers_child: Vec<usize>,
    /// Same for the parent clique.
    fibers_parent: Vec<usize>,
    /// child-clique-entry → sep entry (extension during distribute).
    map_child: Vec<u32>,
    /// parent-clique-entry → sep entry (extension during collect).
    map_parent: Vec<u32>,
}

/// Element-wise (GPU-analogue) parallel engine.
pub struct ElementJt {
    prepared: Arc<Prepared>,
    pool: Arc<ThreadPool>,
    sched: Schedule,
    maps: Vec<SepMaps>,
}

impl ElementJt {
    /// Creates the engine; materializes every mapping array in parallel
    /// (the GPU "upload tables" phase).
    pub fn new(prepared: Arc<Prepared>, threads: usize) -> Self {
        ElementJt::with_pool(prepared, ThreadPool::shared(threads))
    }

    /// Creates the engine on an **injected** (possibly shared) pool —
    /// the multi-model path, where many engines run their regions on
    /// one worker team instead of spawning a team each. The mapping
    /// arrays are materialized on that pool.
    pub fn with_pool(prepared: Arc<Prepared>, pool: Arc<ThreadPool>) -> Self {
        let sched = Schedule::Dynamic { grain: SETUP_GRAIN };
        let mut maps = Vec::with_capacity(prepared.num_separators());
        for (s, edge) in prepared.sep_plans.iter().enumerate() {
            // Parent/child orientation is precomputed with the plans.
            let (child, parent) = (edge.child_clique, edge.parent_clique);
            let sep_dom = &prepared.sep_domains[s];
            let child_dom = &prepared.clique_domains[child];
            let parent_dom = &prepared.clique_domains[parent];
            maps.push(SepMaps {
                bases_in_child: ops_par::materialize_map_par(&pool, sched, sep_dom, child_dom),
                bases_in_parent: ops_par::materialize_map_par(&pool, sched, sep_dom, parent_dom),
                fibers_child: fiber_offsets(child_dom, sep_dom),
                fibers_parent: fiber_offsets(parent_dom, sep_dom),
                map_child: ops_par::materialize_map_par(&pool, sched, child_dom, sep_dom),
                map_parent: ops_par::materialize_map_par(&pool, sched, parent_dom, sep_dom),
            });
        }
        ElementJt {
            pool,
            sched: Schedule::Dynamic {
                grain: ELEMENT_GRAIN,
            },
            maps,
            prepared,
        }
    }

    /// One message as three mapped element-wise kernels.
    fn message(
        &self,
        state: &mut WorkState,
        sender: usize,
        receiver: usize,
        sep: usize,
        collect: bool,
    ) {
        let maps = &self.maps[sep];
        let (bases, fibers, ext_map) = if collect {
            (&maps.bases_in_child, &maps.fibers_child, &maps.map_parent)
        } else {
            (&maps.bases_in_parent, &maps.fibers_parent, &maps.map_child)
        };
        let (s, r, sp, fresh, ratio) = state.message_slices(sender, receiver, sep);
        ops_par::marginalize_mapped_slice_par(&self.pool, self.sched, s, fresh, bases, fibers);
        ops_par::sep_update_par(&self.pool, self.sched, fresh, sp, ratio);
        ops_par::extend_multiply_mapped_slice_par(&self.pool, self.sched, r, ratio, ext_map);
    }
}

impl InferenceEngine for ElementJt {
    fn name(&self) -> &'static str {
        "Element"
    }

    fn threads(&self) -> usize {
        self.pool.threads()
    }

    fn pool(&self) -> Option<&ThreadPool> {
        Some(&self.pool)
    }

    fn pool_handle(&self) -> Option<Arc<ThreadPool>> {
        Some(Arc::clone(&self.pool))
    }

    fn prepared(&self) -> &Arc<Prepared> {
        &self.prepared
    }

    fn enter_evidence(&self, state: &mut WorkState, evidence: &Evidence) {
        // Reduction as an element-wise kernel, like the other ops.
        for (var, observed) in evidence.iter() {
            let home = self.prepared.home[var.index()];
            let dom = &self.prepared.clique_domains[home];
            let (stride, card) = (dom.stride_of(var), dom.card_of(var));
            ops_par::reduce_evidence_slice_par(
                &self.pool,
                self.sched,
                state.clique_mut(home),
                stride,
                card,
                observed,
            );
        }
    }

    fn propagate(&self, state: &mut WorkState) {
        let schedule = &self.prepared.built.schedule;
        crate::trace::collect(|| {
            for layer in &schedule.collect_layers {
                for &id in layer {
                    let m = schedule.messages[id];
                    self.message(state, m.child, m.parent, m.sep, true);
                }
            }
        });
        crate::trace::distribute(|| {
            for layer in &schedule.distribute_layers {
                for &id in layer {
                    let m = schedule.messages[id];
                    self.message(state, m.parent, m.child, m.sep, false);
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
    use fastbn_bayesnet::{datasets, generators, sampler};
    use fastbn_jtree::JtreeOptions;

    #[test]
    fn element_matches_seq_bitwise() {
        let net = datasets::asia();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let seq = Solver::from_prepared(prepared.clone()).build();
        let mut seq_session = seq.session();
        let cases = sampler::generate_cases(&net, 15, 0.2, 13);
        for threads in [1, 2, 4] {
            let element = Solver::from_prepared(prepared.clone())
                .engine(EngineKind::Element)
                .threads(threads)
                .build();
            let mut session = element.session();
            for case in &cases {
                let a = seq_session.posteriors(&case.evidence).unwrap();
                let b = session.posteriors(&case.evidence).unwrap();
                assert_eq!(a.max_abs_diff(&b), 0.0, "t={threads}");
            }
        }
    }

    #[test]
    fn element_matches_seq_on_polytree() {
        let net = generators::polytree(35, 3, 4);
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let seq = Solver::from_prepared(prepared.clone()).build();
        let element = Solver::from_prepared(prepared)
            .engine(EngineKind::Element)
            .threads(2)
            .build();
        let mut seq_session = seq.session();
        let mut session = element.session();
        for case in sampler::generate_cases(&net, 8, 0.2, 5) {
            let a = seq_session.posteriors(&case.evidence).unwrap();
            let b = session.posteriors(&case.evidence).unwrap();
            assert_eq!(a.max_abs_diff(&b), 0.0);
        }
    }

    #[test]
    fn mapping_tables_have_expected_shapes() {
        let net = datasets::sprinkler();
        let prepared = Arc::new(Prepared::new(&net, &JtreeOptions::default()));
        let engine = ElementJt::new(prepared.clone(), 2);
        assert_eq!(engine.maps.len(), prepared.num_separators());
        for (s, maps) in engine.maps.iter().enumerate() {
            let sep_size = prepared.sep_domains[s].size();
            assert_eq!(maps.bases_in_child.len(), sep_size);
            assert_eq!(maps.bases_in_parent.len(), sep_size);
            // fibers × sep entries = clique entries.
            assert_eq!(maps.fibers_child.len() * sep_size, maps.map_child.len());
            assert_eq!(maps.fibers_parent.len() * sep_size, maps.map_parent.len());
        }
    }
}
