//! The hot model registry and its generation-stamped store.
//!
//! A serving process loads its models through the same
//! envelope-verified store path the CLI uses ([`rsg_core::persist`]).
//! [`ModelRegistry`] is the plain loaded value; [`ModelStore`] wraps it
//! in a **generation-stamped, atomically swappable** holder so the
//! admin surface can roll a new model directory into a live process:
//!
//! 1. the candidate directory is loaded through the envelope-verified
//!    store (checksums, artifact kinds — exactly the startup path),
//! 2. a probe specification is generated and run through
//!    `rsg-analyze`'s cross-language lints (a model that loads but
//!    renders garbage is rejected here),
//! 3. only then is the new [`Generation`] swapped in, under a write
//!    lock held for the duration of one pointer store.
//!
//! Any failure keeps the previous generation serving — a reload can
//! never leave the process half-loaded or model-less. Requests clone
//! an `Arc<Generation>` once at dispatch, so every response is
//! answered by exactly one generation even while a swap lands
//! mid-flight. `/metrics` and `/readyz` report both the current and
//! previous generation numbers plus the last reload error.

use rsg_analyze::Input;
use rsg_core::heurmodel::HeuristicPredictionModel;
use rsg_core::persist;
use rsg_core::specgen::{GeneratorConfig, SpecGenerator};
use rsg_core::{StoreError, ThresholdedSizeModel};
use rsg_dag::DagStats;
use rsg_obs::Counter;
use rsg_sched::HeuristicKind;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

static RELOAD_OK: Counter = Counter::new("serve.reload.ok");
static RELOAD_FAILED: Counter = Counter::new("serve.reload.failed");

/// The models a serving process answers from, plus their provenance.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    /// Size prediction model (one plane-fit model per knee threshold).
    pub size_model: ThresholdedSizeModel,
    /// Heuristic prediction model; a degenerate always-MCP model when
    /// the directory ships none.
    pub heuristic_model: HeuristicPredictionModel,
    /// Path the size model was loaded from (`None` for in-memory).
    pub size_model_path: Option<String>,
    /// Path the heuristic model was loaded from (`None` when the
    /// fixed fallback is in use).
    pub heuristic_model_path: Option<String>,
}

impl ModelRegistry {
    /// Wraps already-built models (used by benchmarks and tests that
    /// train inline instead of loading from disk).
    pub fn from_models(
        size_model: ThresholdedSizeModel,
        heuristic_model: HeuristicPredictionModel,
    ) -> ModelRegistry {
        ModelRegistry {
            size_model,
            heuristic_model,
            size_model_path: None,
            heuristic_model_path: None,
        }
    }

    /// Loads the registry from a model directory or deployment tree,
    /// found by [`persist::load_model_dir`] — the same rule `rsg audit`
    /// checks as AUDIT001. Without a heuristic model the registry falls
    /// back to [`HeuristicPredictionModel::fixed`]`(Mcp)`, mirroring
    /// the `rsg spec` default.
    pub fn load(dir: &Path) -> Result<ModelRegistry, StoreError> {
        let models = persist::load_model_dir(dir)?;
        let (size_model, size_path) = models.size_model;
        let (heuristic_model, heuristic_model_path) = match models.heuristic_model {
            Some((m, p)) => (m, Some(p.display().to_string())),
            None => (HeuristicPredictionModel::fixed(HeuristicKind::Mcp), None),
        };
        Ok(ModelRegistry {
            size_model,
            heuristic_model,
            size_model_path: Some(size_path.display().to_string()),
            heuristic_model_path,
        })
    }
}

/// One immutable, numbered set of serving models: the registry plus
/// the [`SpecGenerator`] assembled from it. Requests hold an
/// `Arc<Generation>` for their whole lifetime, so a mid-request swap
/// never mixes models within one response.
#[derive(Debug)]
pub struct Generation {
    /// 1-based generation number; the boot load is generation 1 and
    /// every successful reload increments it.
    pub number: u64,
    /// The loaded models and their provenance.
    pub registry: ModelRegistry,
    /// The generator assembled from this generation's models.
    pub generator: SpecGenerator,
}

impl Generation {
    fn build(number: u64, registry: ModelRegistry) -> Generation {
        let generator = SpecGenerator::new(
            registry.size_model.clone(),
            registry.heuristic_model.clone(),
        );
        Generation {
            number,
            registry,
            generator,
        }
    }
}

/// Outcome of the most recent reload attempt, for `/metrics`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// No reload has been attempted since boot.
    Never,
    /// The last reload swapped `from` out for `to`.
    Swapped {
        /// Generation number before the swap.
        from: u64,
        /// Generation number now serving.
        to: u64,
    },
    /// The last reload failed; generation `kept` is still serving.
    RolledBack {
        /// Generation that kept serving through the failure.
        kept: u64,
        /// Why the candidate was rejected.
        error: String,
    },
}

/// The generation-stamped, atomically swappable model holder.
///
/// Readers take the read lock for exactly one `Arc` clone; the writer
/// (a reload) builds and validates the whole candidate generation
/// *outside* the lock and holds the write lock for one pointer store.
/// Reloads themselves are serialized by a separate mutex so two
/// concurrent `/admin/reload`s cannot interleave their
/// load-validate-swap sequences.
#[derive(Debug)]
pub struct ModelStore {
    current: RwLock<Arc<Generation>>,
    previous_number: AtomicU64,
    reloading: AtomicBool,
    reload_serial: Mutex<()>,
    last_outcome: Mutex<ReloadOutcome>,
}

impl ModelStore {
    /// Wraps the boot-time registry as generation 1.
    pub fn new(registry: ModelRegistry) -> ModelStore {
        ModelStore {
            current: RwLock::new(Arc::new(Generation::build(1, registry))),
            previous_number: AtomicU64::new(0),
            reloading: AtomicBool::new(false),
            reload_serial: Mutex::new(()),
            last_outcome: Mutex::new(ReloadOutcome::Never),
        }
    }

    /// The generation currently serving. One lock + one `Arc` clone.
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(
            &self
                .current
                .read()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Current generation number without touching the lock.
    pub fn generation(&self) -> u64 {
        self.current().number
    }

    /// The generation number that was serving before the last
    /// successful swap (0 when no swap has happened yet).
    pub fn previous_generation(&self) -> u64 {
        self.previous_number.load(Ordering::Relaxed)
    }

    /// Whether a reload is validating a candidate right now.
    pub fn reloading(&self) -> bool {
        self.reloading.load(Ordering::Relaxed)
    }

    /// Outcome of the most recent reload attempt.
    pub fn last_outcome(&self) -> ReloadOutcome {
        self.last_outcome
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Loads, validates and swaps in the models under `dir`.
    ///
    /// On any failure — unreadable directory, missing size model,
    /// checksum mismatch, wrong artifact kind, or a candidate that
    /// renders specifications `rsg-analyze` rejects — the previous
    /// generation keeps serving and the error string is returned (and
    /// kept for `/metrics`). On success returns the new generation.
    pub fn reload(&self, dir: &Path) -> Result<Arc<Generation>, String> {
        let _serial = self
            .reload_serial
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.reloading.store(true, Ordering::Relaxed);
        let result = self.reload_inner(dir);
        self.reloading.store(false, Ordering::Relaxed);
        result
    }

    fn reload_inner(&self, dir: &Path) -> Result<Arc<Generation>, String> {
        let old = self.current();
        let attempt = ModelRegistry::load(dir)
            .map_err(|e| format!("load {}: {e}", dir.display()))
            .and_then(|registry| {
                let candidate = Generation::build(old.number + 1, registry);
                lint_candidate(&candidate)?;
                Ok(candidate)
            });
        match attempt {
            Ok(generation) => {
                let generation = Arc::new(generation);
                {
                    let mut slot = self
                        .current
                        .write()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    *slot = Arc::clone(&generation);
                }
                self.previous_number.store(old.number, Ordering::Relaxed);
                *self
                    .last_outcome
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = ReloadOutcome::Swapped {
                    from: old.number,
                    to: generation.number,
                };
                RELOAD_OK.incr();
                Ok(generation)
            }
            Err(error) => {
                *self
                    .last_outcome
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) =
                    ReloadOutcome::RolledBack {
                        kept: old.number,
                        error: error.clone(),
                    };
                RELOAD_FAILED.incr();
                Err(error)
            }
        }
    }
}

/// The pre-swap lint gate: generate a specification for a canonical
/// probe workload from the candidate models and run the renderings
/// through `rsg-analyze`'s full cross-language analysis. A model file
/// that decodes but predicts garbage (zero sizes, inverted clock
/// ranges, renderings that do not round-trip) is caught here, before
/// any request can see it.
fn lint_candidate(candidate: &Generation) -> Result<(), String> {
    let probe = DagStats {
        size: 100,
        height: 10,
        tasks_per_level: 10.0,
        width: 16,
        ccr: 0.2,
        parallelism: 0.6,
        density: 0.5,
        regularity: 0.7,
        mean_comp: 25.0,
    };
    let spec = candidate
        .generator
        .generate_from_stats(&probe, &GeneratorConfig::default());
    if spec.rc_size == 0 {
        return Err("candidate model predicts an empty resource collection".into());
    }
    let vgdl = SpecGenerator::to_vgdl(&spec).to_string();
    let classad = SpecGenerator::to_classad(&spec).to_string();
    let sword = rsg_select::sword::write_sword(&SpecGenerator::to_sword(&spec));
    let inputs = [
        Input::new("reload-probe.vg", &vgdl),
        Input::new("reload-probe.classad", &classad),
        Input::new("reload-probe.xml", &sword),
    ];
    let report = rsg_analyze::analyze(&inputs, None);
    if report.errors() > 0 {
        let first = report
            .diagnostics
            .iter()
            .find(|d| d.severity.label() == "error")
            .map_or_else(
                || "unknown diagnostic".to_string(),
                |d| format!("{}: {}", d.code.as_str(), d.detail),
            );
        return Err(format!(
            "candidate model renders rejected specifications ({} error(s); first: {first})",
            report.errors()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_core::curve::CurveConfig;
    use rsg_core::observation::{measure, ObservationGrid};

    fn tiny_size_model() -> ThresholdedSizeModel {
        let tables = measure(
            &ObservationGrid::tiny(),
            &CurveConfig::default(),
            &rsg_core::THRESHOLD_LADDER,
            0,
        );
        ThresholdedSizeModel::fit(&tables)
    }

    fn tiny_registry() -> ModelRegistry {
        ModelRegistry::from_models(
            tiny_size_model(),
            HeuristicPredictionModel::fixed(HeuristicKind::Mcp),
        )
    }

    fn model_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_model(dir: &Path) {
        rsg_core::store::write_atomic(
            &dir.join("size_model.tsv"),
            persist::SIZE_MODEL_KIND,
            &tiny_size_model().to_tsv(),
        )
        .unwrap();
    }

    #[test]
    fn loads_from_directory_and_prefers_exact_name() {
        let dir = model_dir("rsg-serve-test-registry");
        let model = tiny_size_model();
        rsg_core::store::write_atomic(
            &dir.join("size_model_other.tsv"),
            persist::SIZE_MODEL_KIND,
            &model.to_tsv(),
        )
        .unwrap();
        // Only the variant file: it is found.
        let r = ModelRegistry::load(&dir).unwrap();
        assert!(r.size_model_path.unwrap().ends_with("size_model_other.tsv"));
        assert!(r.heuristic_model_path.is_none());
        // The exact name wins once present.
        rsg_core::store::write_atomic(
            &dir.join("size_model.tsv"),
            persist::SIZE_MODEL_KIND,
            &model.to_tsv(),
        )
        .unwrap();
        let r = ModelRegistry::load(&dir).unwrap();
        assert!(r.size_model_path.unwrap().ends_with("/size_model.tsv"));
    }

    #[test]
    fn missing_size_model_is_a_typed_error() {
        let dir = model_dir("rsg-serve-test-registry-empty");
        let e = ModelRegistry::load(&dir).unwrap_err();
        assert!(matches!(e, StoreError::Io { .. }), "{e:?}");
    }

    #[test]
    fn corrupt_envelope_fails_loudly() {
        let dir = model_dir("rsg-serve-test-registry-corrupt");
        write_model(&dir);
        let path = dir.join("size_model.tsv");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        assert!(ModelRegistry::load(&dir).is_err());
    }

    #[test]
    fn reload_swaps_generations_and_stamps_provenance() {
        let store = ModelStore::new(tiny_registry());
        assert_eq!(store.generation(), 1);
        assert_eq!(store.previous_generation(), 0);
        assert_eq!(store.last_outcome(), ReloadOutcome::Never);

        let dir = model_dir("rsg-serve-test-store-swap");
        write_model(&dir);
        let gen2 = store.reload(&dir).unwrap();
        assert_eq!(gen2.number, 2);
        assert_eq!(store.generation(), 2);
        assert_eq!(store.previous_generation(), 1);
        assert!(gen2
            .registry
            .size_model_path
            .as_deref()
            .unwrap()
            .ends_with("size_model.tsv"));
        assert_eq!(
            store.last_outcome(),
            ReloadOutcome::Swapped { from: 1, to: 2 }
        );
    }

    #[test]
    fn failed_reload_rolls_back_and_keeps_serving() {
        let store = ModelStore::new(tiny_registry());
        let before = store.current();

        // A directory whose size model fails its checksum.
        let dir = model_dir("rsg-serve-test-store-rollback");
        write_model(&dir);
        let path = dir.join("size_model.tsv");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 2] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();

        let err = store.reload(&dir).unwrap_err();
        assert!(err.contains("load"), "{err}");
        // The old generation is untouched and still serving.
        assert_eq!(store.generation(), 1);
        assert!(Arc::ptr_eq(&before, &store.current()));
        match store.last_outcome() {
            ReloadOutcome::RolledBack { kept, error } => {
                assert_eq!(kept, 1);
                assert!(!error.is_empty());
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert!(!store.reloading());

        // A missing directory rolls back the same way.
        let err = store
            .reload(Path::new("/nonexistent/rsg-models"))
            .unwrap_err();
        assert!(err.contains("load"), "{err}");
        assert_eq!(store.generation(), 1);

        // And a subsequent good reload still works (failure is not
        // sticky).
        let good = model_dir("rsg-serve-test-store-recover");
        write_model(&good);
        assert_eq!(store.reload(&good).unwrap().number, 2);
    }

    #[test]
    fn in_flight_generation_survives_a_swap() {
        let store = ModelStore::new(tiny_registry());
        let held = store.current();
        let dir = model_dir("rsg-serve-test-store-inflight");
        write_model(&dir);
        store.reload(&dir).unwrap();
        // The held Arc still answers from generation 1.
        assert_eq!(held.number, 1);
        assert_eq!(store.current().number, 2);
    }
}
