//! The [`Registry`]: a named set of compiled models behind **one
//! shared worker pool**, with hot load/unload while traffic is in
//! flight and LRU eviction of idle models under a capacity bound.
//!
//! # Why a registry
//!
//! A parallel engine built the ordinary way spawns its own
//! [`ThreadPool`]; N models served that way mean `N × t` worker
//! threads fighting the scheduler for `t` cores. The registry instead
//! owns one pool ([`ThreadPool::shared`]) and compiles every model
//! onto it ([`SolverBuilder::pool`](fastbn_inference::SolverBuilder::pool)),
//! so mixed traffic across many networks contends for exactly the
//! machine's cores. Regions from different models interleave on the
//! team; each model's bits are identical to a private pool of the same
//! width (the chunk layout depends only on schedule and width).
//!
//! # Hot load / unload
//!
//! Models are handed out as `Arc<Solver>`: [`Registry::get`] clones
//! the `Arc`, so [`Registry::remove`] (or an LRU eviction) only drops
//! the *registry's* reference. Queries already holding the solver —
//! in-flight windows, open sessions — run to completion untouched;
//! the model's memory is freed when the last holder finishes. That is
//! the whole unload-isolation story, and `tests/registry.rs` asserts
//! it bitwise.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use fastbn_bayesnet::BayesianNetwork;
use fastbn_inference::{CacheConfig, EngineKind, Solver};
use fastbn_jtree::JtreeOptions;
use fastbn_parallel::ThreadPool;

/// How one model should be compiled by [`Registry::load`].
#[derive(Debug, Clone, Default)]
pub struct ModelConfig {
    engine: Option<EngineKind>,
    cache: Option<CacheConfig>,
    jtree: JtreeOptions,
}

impl ModelConfig {
    /// Starts from the registry defaults: the Fast-BNI-par hybrid
    /// engine (the shared pool exists to be used), no query cache,
    /// default junction-tree options.
    pub fn new() -> Self {
        ModelConfig::default()
    }

    /// Selects the propagation engine (default: `EngineKind::Hybrid`).
    /// Sequential kinds are allowed; they simply never touch the
    /// shared pool.
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.engine = Some(kind);
        self
    }

    /// Enables this model's own query-result cache — caching is
    /// **per-model**: each solver keys and bounds its cache
    /// independently, so one chatty model cannot evict another's hot
    /// entries.
    pub fn cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Junction-tree construction options for this model.
    pub fn jtree_options(mut self, options: JtreeOptions) -> Self {
        self.jtree = options;
        self
    }
}

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The registry is at its model capacity and every resident model
    /// is busy (referenced outside the registry), so none could be
    /// evicted to make room.
    Full {
        /// The configured capacity bound.
        capacity: usize,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Full { capacity } => write!(
                f,
                "registry full: all {capacity} resident models are busy, none evictable"
            ),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One resident model: the compiled solver plus its LRU stamp.
struct Entry {
    solver: Arc<Solver>,
    /// Tick of the last `get` (or the insert); smallest = least
    /// recently used.
    last_used: AtomicU64,
}

/// Where the shared pool comes from. The pool is created lazily — a
/// registry that only ever holds pre-built, [`Registry::insert`]ed
/// solvers never spawns a worker team of its own.
enum PoolSource {
    /// Spawn a pool of this width on first use.
    Width(usize),
    /// An injected pool, possibly shared with other tenants.
    Injected(Arc<ThreadPool>),
}

/// Configures a [`Registry`].
pub struct RegistryBuilder {
    source: PoolSource,
    capacity: Option<usize>,
}

impl RegistryBuilder {
    /// Width of the shared worker pool created on first
    /// [`Registry::load`] (default: the machine's logical CPUs).
    /// Overridden by [`RegistryBuilder::pool`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.source = PoolSource::Width(threads.max(1));
        self
    }

    /// Runs every loaded model on an existing pool instead of creating
    /// one — e.g. to share a team with models compiled elsewhere.
    pub fn pool(mut self, pool: Arc<ThreadPool>) -> Self {
        self.source = PoolSource::Injected(pool);
        self
    }

    /// Bounds the number of resident models (default: unbounded).
    /// Inserting past the bound evicts the least-recently-used *idle*
    /// model (one no outside handle references); when every resident
    /// model is busy the insert fails with [`RegistryError::Full`]
    /// instead of evicting work out from under a query.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity.max(1));
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Registry {
        Registry {
            pool: OnceLock::new(),
            source: self.source,
            capacity: self.capacity,
            ticks: AtomicU64::new(0),
            models: RwLock::new(HashMap::new()),
        }
    }
}

/// A set of named compiled models (`model id → Arc<Solver>`) sharing
/// one worker pool. `Send + Sync`; wrap it in an `Arc` and share it
/// between the loading side and any number of
/// [`RoutedServer`](crate::RoutedServer)s or direct callers.
///
/// ```
/// use fastbn_bayesnet::datasets;
/// use fastbn_inference::Query;
/// use fastbn_registry::{ModelConfig, Registry};
///
/// let registry = Registry::builder().threads(2).build();
/// registry.load("asia", &datasets::asia(), &ModelConfig::new()).unwrap();
/// registry.load("sprinkler", &datasets::sprinkler(), &ModelConfig::new()).unwrap();
/// assert_eq!(registry.len(), 2);
///
/// // Both models answer through the same worker team.
/// let asia = registry.get("asia").unwrap();
/// let sprinkler = registry.get("sprinkler").unwrap();
/// assert!(std::sync::Arc::ptr_eq(
///     &asia.pool_handle().unwrap(),
///     &sprinkler.pool_handle().unwrap(),
/// ));
/// assert!(asia.query(&Query::new()).is_ok());
///
/// // Unload is just dropping the registry's reference; the handle we
/// // still hold keeps answering.
/// registry.remove("asia").unwrap();
/// assert!(registry.get("asia").is_none());
/// assert!(asia.query(&Query::new()).is_ok());
/// ```
pub struct Registry {
    pool: OnceLock<Arc<ThreadPool>>,
    source: PoolSource,
    capacity: Option<usize>,
    /// LRU clock: bumped by every `get`/insert.
    ticks: AtomicU64,
    models: RwLock<HashMap<String, Entry>>,
}

impl Registry {
    /// A registry with defaults: shared pool as wide as the machine,
    /// unbounded capacity.
    pub fn new() -> Registry {
        Registry::builder().build()
    }

    /// Starts configuring a registry.
    pub fn builder() -> RegistryBuilder {
        RegistryBuilder {
            source: PoolSource::Width(fastbn_parallel::available_threads()),
            capacity: None,
        }
    }

    /// The shared worker pool, created on first use. Hand it to
    /// [`SolverBuilder::pool`](fastbn_inference::SolverBuilder::pool)
    /// to compile a model onto this registry's team yourself (then
    /// [`Registry::insert`] it).
    pub fn pool_handle(&self) -> Arc<ThreadPool> {
        Arc::clone(self.pool.get_or_init(|| match &self.source {
            PoolSource::Width(width) => ThreadPool::shared(*width),
            PoolSource::Injected(pool) => Arc::clone(pool),
        }))
    }

    /// Compiles `net` onto the shared pool and registers it under `id`
    /// (replacing any previous model with that id — hot reload). This
    /// is the expensive step (triangulation, initial potentials, task
    /// plans); it runs outside the registry lock, so traffic on other
    /// models is never stalled by a load.
    ///
    /// Returns the compiled solver; fails with [`RegistryError::Full`]
    /// only when a capacity bound is set and no resident model is
    /// evictable.
    pub fn load(
        &self,
        id: impl Into<String>,
        net: &BayesianNetwork,
        config: &ModelConfig,
    ) -> Result<Arc<Solver>, RegistryError> {
        let mut builder = Solver::builder(net)
            .engine(config.engine.unwrap_or(EngineKind::Hybrid))
            .pool(self.pool_handle())
            .jtree_options(config.jtree);
        if let Some(cache) = config.cache {
            builder = builder.cache(cache);
        }
        let solver = Arc::new(builder.build());
        self.insert(id, Arc::clone(&solver))?;
        Ok(solver)
    }

    /// Registers a pre-built solver under `id`, replacing (and
    /// returning) any previous model with that id. For pool sharing to
    /// mean anything the solver should have been compiled on
    /// [`Registry::pool_handle`] — pre-built solvers with private
    /// pools are accepted (a one-model registry serving an existing
    /// solver is the common case) but bring their own worker team
    /// along.
    pub fn insert(
        &self,
        id: impl Into<String>,
        solver: Arc<Solver>,
    ) -> Result<Option<Arc<Solver>>, RegistryError> {
        let id = id.into();
        let mut models = self.models.write().unwrap_or_else(PoisonError::into_inner);
        if let Some(previous) = models.remove(&id) {
            // Hot reload: same id, no capacity pressure added.
            models.insert(id, self.entry(solver));
            return Ok(Some(previous.solver));
        }
        if let Some(capacity) = self.capacity {
            while models.len() >= capacity {
                if !evict_lru_idle(&mut models) {
                    return Err(RegistryError::Full { capacity });
                }
            }
        }
        models.insert(id, self.entry(solver));
        Ok(None)
    }

    /// Looks up a model, bumping its LRU stamp. The returned `Arc`
    /// keeps the model alive (and un-evictable) for as long as the
    /// caller holds it — removal never interrupts work in flight.
    pub fn get(&self, id: &str) -> Option<Arc<Solver>> {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        let entry = models.get(id)?;
        entry.last_used.store(
            self.ticks.fetch_add(1, Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        Some(Arc::clone(&entry.solver))
    }

    /// Unregisters a model (hot unload), returning its solver. Only
    /// the registry's reference is dropped: in-flight queries holding
    /// the `Arc` complete normally; subsequent routed submissions for
    /// the id get a typed unknown-model error.
    pub fn remove(&self, id: &str) -> Option<Arc<Solver>> {
        self.models
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(id)
            .map(|entry| entry.solver)
    }

    /// A snapshot of one resident model's query-cache counters:
    /// `None` when `id` is absent **or** resident without a cache
    /// (tell the two apart with [`Registry::contains`]). Unlike
    /// [`Registry::get`] this is an observation, not a use — it does
    /// not bump the model's LRU stamp, so monitoring a registry never
    /// protects an idle model from eviction.
    pub fn cache_stats_for(&self, id: &str) -> Option<fastbn_inference::CacheStats> {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(id)?
            .solver
            .cache_stats()
    }

    /// Writes every resident model's point-in-time stats into
    /// `metrics` as gauges under `{scope}.model.<id>.*` (see
    /// [`Solver::export_metrics`]), plus the shared pool's occupancy
    /// gauges under `{scope}.pool.*` when the pool has been created.
    /// Like [`Registry::cache_stats_for`] this bumps no LRU stamps.
    pub fn export_metrics(&self, metrics: &fastbn_telemetry::MetricsRegistry, scope: &str) {
        let models = self.models.read().unwrap_or_else(PoisonError::into_inner);
        for (id, entry) in models.iter() {
            entry
                .solver
                .export_metrics(metrics, &format!("{scope}.model.{id}"));
        }
        drop(models);
        if let Some(pool) = self.pool.get() {
            pool.export_metrics(metrics, &format!("{scope}.pool"));
        }
    }

    /// Whether `id` is currently resident.
    pub fn contains(&self, id: &str) -> bool {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(id)
    }

    /// Number of resident models.
    pub fn len(&self) -> usize {
        self.models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no model is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The resident model ids, sorted.
    pub fn model_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .models
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The configured capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    fn entry(&self, solver: Arc<Solver>) -> Entry {
        Entry {
            solver,
            last_used: AtomicU64::new(self.ticks.fetch_add(1, Ordering::Relaxed) + 1),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("models", &self.model_ids())
            .field("capacity", &self.capacity)
            .field("pool_threads", &self.pool.get().map(|pool| pool.threads()))
            .finish()
    }
}

/// Evicts the least-recently-used **idle** entry (one whose solver has
/// no references outside the map — `Arc::strong_count == 1` under the
/// exclusive map lock, so no new reference can appear mid-eviction).
/// Returns false when every resident model is busy.
fn evict_lru_idle(models: &mut HashMap<String, Entry>) -> bool {
    let victim = models
        .iter()
        .filter(|(_, entry)| Arc::strong_count(&entry.solver) == 1)
        .min_by_key(|(_, entry)| entry.last_used.load(Ordering::Relaxed))
        .map(|(id, _)| id.clone());
    match victim {
        Some(id) => {
            models.remove(&id);
            true
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbn_bayesnet::datasets;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn registry_is_send_and_sync() {
        assert_send_sync::<Registry>();
    }

    #[test]
    fn load_get_remove_round_trip() {
        let registry = Registry::builder().threads(2).build();
        assert!(registry.is_empty());
        registry
            .load("asia", &datasets::asia(), &ModelConfig::new())
            .unwrap();
        registry
            .load("sprinkler", &datasets::sprinkler(), &ModelConfig::new())
            .unwrap();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.model_ids(), vec!["asia", "sprinkler"]);
        assert!(registry.contains("asia"));
        let asia = registry.get("asia").expect("resident");
        assert_eq!(asia.threads(), 2);
        assert!(registry.remove("asia").is_some());
        assert!(registry.get("asia").is_none());
        assert!(registry.remove("asia").is_none(), "idempotent");
        // The handle we still hold keeps answering after the unload.
        assert!(asia.query(&fastbn_inference::Query::new()).is_ok());
    }

    #[test]
    fn loaded_models_share_one_pool() {
        let registry = Registry::builder().threads(3).build();
        let a = registry
            .load("a", &datasets::asia(), &ModelConfig::new())
            .unwrap();
        let b = registry
            .load("b", &datasets::cancer(), &ModelConfig::new())
            .unwrap();
        let pa = a.pool_handle().expect("hybrid engine has a pool");
        let pb = b.pool_handle().expect("hybrid engine has a pool");
        assert!(Arc::ptr_eq(&pa, &pb), "one worker team for both models");
        assert!(Arc::ptr_eq(&pa, &registry.pool_handle()));
        assert_eq!(pa.threads(), 3);
    }

    #[test]
    fn sequential_models_never_create_the_pool() {
        let registry = Registry::builder().threads(2).build();
        let solver = Arc::new(Solver::new(&datasets::sprinkler()));
        registry.insert("seq", solver).unwrap();
        assert!(
            registry.pool.get().is_none(),
            "pre-built inserts spawn no worker team"
        );
    }

    #[test]
    fn reload_replaces_and_returns_previous() {
        let registry = Registry::builder().threads(1).capacity(1).build();
        let first = registry
            .load("m", &datasets::asia(), &ModelConfig::new())
            .unwrap();
        // At capacity with "m" busy (we hold `first`), yet reloading the
        // *same id* must succeed — it replaces, not grows.
        let replaced = registry
            .insert("m", Arc::new(Solver::new(&datasets::sprinkler())))
            .unwrap()
            .expect("previous model handed back");
        assert!(Arc::ptr_eq(&first, &replaced));
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn capacity_evicts_lru_idle_and_refuses_when_all_busy() {
        let registry = Registry::builder().threads(1).capacity(2).build();
        registry
            .load("old", &datasets::asia(), &ModelConfig::new())
            .unwrap();
        registry
            .load("newer", &datasets::sprinkler(), &ModelConfig::new())
            .unwrap();
        // Touch "old" so "newer" becomes the LRU entry.
        let _ = registry.get("old");
        registry
            .load("third", &datasets::cancer(), &ModelConfig::new())
            .unwrap();
        assert_eq!(registry.model_ids(), vec!["old", "third"]);
        assert!(!registry.contains("newer"), "LRU idle model evicted");

        // Hold both residents: nothing is idle, the insert must refuse
        // rather than evict work out from under a caller.
        let _old = registry.get("old").unwrap();
        let _third = registry.get("third").unwrap();
        let err = registry
            .insert("fourth", Arc::new(Solver::new(&datasets::student())))
            .unwrap_err();
        assert_eq!(err, RegistryError::Full { capacity: 2 });
        assert!(err.to_string().contains("busy"));
        // Release one handle: the insert now finds an idle victim.
        drop(_old);
        registry
            .insert("fourth", Arc::new(Solver::new(&datasets::student())))
            .unwrap();
        assert!(registry.contains("fourth"));
        assert!(!registry.contains("old"));
    }

    #[test]
    fn cache_stats_for_reports_without_bumping_lru() {
        let registry = Registry::builder().threads(1).capacity(2).build();
        let cached = registry
            .load(
                "cached",
                &datasets::asia(),
                &ModelConfig::new().cache(CacheConfig::default()),
            )
            .unwrap();
        registry
            .load("plain", &datasets::sprinkler(), &ModelConfig::new())
            .unwrap();
        drop(cached);

        // A hit/miss pair shows up in the aggregated stats.
        let solver = registry.get("cached").unwrap();
        let query = fastbn_inference::Query::new();
        solver.query(&query).unwrap();
        solver.query(&query).unwrap();
        drop(solver);
        let stats = registry.cache_stats_for("cached").unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(registry.cache_stats_for("plain").is_none(), "no cache");
        assert!(registry.cache_stats_for("ghost").is_none(), "not resident");

        // Observing "plain" repeatedly must NOT refresh its LRU stamp:
        // it stays the eviction victim ("cached" was touched by `get`).
        for _ in 0..8 {
            let _ = registry.cache_stats_for("plain");
        }
        registry
            .load("third", &datasets::cancer(), &ModelConfig::new())
            .unwrap();
        assert!(!registry.contains("plain"), "observation is not use");
        assert!(registry.contains("cached"));

        // The exporter mirrors the same numbers into gauges.
        let metrics = fastbn_telemetry::MetricsRegistry::new();
        registry.export_metrics(&metrics, "registry");
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("registry.model.cached.cache.hits"), Some(1));
        assert_eq!(snap.gauge("registry.model.cached.cache.misses"), Some(1));
        assert_eq!(snap.gauge("registry.model.cached.threads"), Some(1));
        assert!(
            snap.gauge("registry.model.third.cache.hits").is_none(),
            "cacheless models export no cache gauges"
        );
        assert_eq!(snap.gauge("registry.pool.threads"), Some(1));
    }

    #[test]
    fn per_model_cache_configs_are_independent() {
        let registry = Registry::builder().threads(1).build();
        let cached = registry
            .load(
                "cached",
                &datasets::asia(),
                &ModelConfig::new().cache(CacheConfig::default()),
            )
            .unwrap();
        let plain = registry
            .load("plain", &datasets::asia(), &ModelConfig::new())
            .unwrap();
        assert!(cached.cache_stats().is_some());
        assert!(plain.cache_stats().is_none());
    }
}
