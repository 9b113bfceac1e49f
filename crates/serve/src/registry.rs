//! The multi-model registry: routes model ids to shared [`Engine`]s.
//!
//! Each registered model is an independent engine — its own
//! [`CompiledVit`] and precision — behind one id. Engines are
//! held in `Arc`s, so the server's worker pool and every client route
//! to the *same* frozen weight allocation; registering a model never
//! copies weights, and neither does serving it.
//!
//! Registries are loadable from disk: [`ModelRegistry::load_dir`] scans
//! a directory for `*.vitcod` artifacts written by
//! [`vitcod_engine::save_compiled_vit`] and builds one engine per file
//! (model id = file stem, precision = the artifact's stored tag).

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use vitcod_engine::{load_compiled_vit, ArtifactError, Engine};

/// File extension the directory loader looks for.
pub const ARTIFACT_EXTENSION: &str = "vitcod";

/// Error registering models or loading them from disk.
#[derive(Debug)]
pub enum RegistryError {
    /// A model id was registered twice.
    DuplicateId(String),
    /// Reading an artifact file failed.
    Io(std::io::Error),
    /// An artifact file failed to parse or validate.
    Artifact {
        /// The file that failed.
        path: String,
        /// Why it failed.
        source: ArtifactError,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::DuplicateId(id) => write!(f, "model id '{id}' registered twice"),
            RegistryError::Io(e) => write!(f, "artifact i/o error: {e}"),
            RegistryError::Artifact { path, source } => {
                write!(f, "artifact '{path}' invalid: {source}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// Routes model ids to shared engines; see the [module docs](self).
#[derive(Default)]
pub struct ModelRegistry {
    engines: BTreeMap<String, Arc<Engine>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `engine` under `id`. Each model's engine keeps its own
    /// precision.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateId`] when `id` is already taken.
    pub fn register(&mut self, id: impl Into<String>, engine: Engine) -> Result<(), RegistryError> {
        self.register_shared(id, Arc::new(engine))
    }

    /// Registers an already-shared engine (e.g. one also served
    /// elsewhere) without cloning it.
    ///
    /// # Errors
    ///
    /// [`RegistryError::DuplicateId`] when `id` is already taken.
    pub fn register_shared(
        &mut self,
        id: impl Into<String>,
        engine: Arc<Engine>,
    ) -> Result<(), RegistryError> {
        let id = id.into();
        if self.engines.contains_key(&id) {
            return Err(RegistryError::DuplicateId(id));
        }
        self.engines.insert(id, engine);
        Ok(())
    }

    /// Loads one artifact file and registers it under `id`, serving at
    /// the precision the artifact was saved with.
    ///
    /// # Errors
    ///
    /// I/O, parse/schema, or duplicate-id errors.
    pub fn register_file(
        &mut self,
        id: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<(), RegistryError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)?;
        let (compiled, precision) =
            load_compiled_vit(&text).map_err(|source| RegistryError::Artifact {
                path: path.display().to_string(),
                source,
            })?;
        self.register(id, Engine::builder(compiled).precision(precision).build())
    }

    /// Builds a registry from every `*.vitcod` artifact in `dir`
    /// (model id = file stem), in lexicographic order.
    ///
    /// # Errors
    ///
    /// I/O, parse/schema, or duplicate-stem errors.
    pub fn load_dir(dir: impl AsRef<Path>) -> Result<Self, RegistryError> {
        let mut registry = Self::new();
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(ARTIFACT_EXTENSION))
            .collect();
        paths.sort();
        for path in paths {
            let id = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("model")
                .to_string();
            registry.register_file(id, &path)?;
        }
        Ok(registry)
    }

    /// The engine registered under `id`.
    pub fn get(&self, id: &str) -> Option<Arc<Engine>> {
        self.engines.get(id).map(Arc::clone)
    }

    /// Registered model ids, sorted.
    pub fn ids(&self) -> Vec<&str> {
        self.engines.keys().map(String::as_str).collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether no model is registered.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    pub(crate) fn into_engines(self) -> BTreeMap<String, Arc<Engine>> {
        self.engines
    }
}
