//! The content-addressed artifact store.
//!
//! Artifacts live under `root/<namespace>/<key>.json`, where the key is a
//! [`ContentHash`](ssresf_netlist::ContentHash) over everything that
//! determines the artifact's bytes (netlist content, campaign config,
//! seed — see [`key`](crate::key)). Content addressing makes the store
//! trivially correct under concurrent writers: two processes computing the
//! same key write the same bytes, so a lost race costs nothing. Writes go
//! through a uniquely named temp file plus an atomic rename — a reader
//! never sees a half-written artifact.
//!
//! Lookups and insertions feed the `cache.hits` / `cache.misses` /
//! `cache.evictions` counters and the `cache.bytes` gauge of an attached
//! [`MetricsRegistry`] (the deterministic export zeroes the gauge: a cold
//! campaign artifact prints wall-clock seconds); eviction is size-capped
//! and oldest-first.

use ssresf_json::Value;
use ssresf_telemetry::MetricsRegistry;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Namespace for merged campaign outcomes, the only artifacts stored.
pub const NS_CAMPAIGN: &str = "campaign";

/// Unique suffix for temp files within one process.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A filesystem-backed content-addressed artifact cache.
#[derive(Debug)]
pub struct ArtifactCache<'a> {
    root: PathBuf,
    max_bytes: Option<u64>,
    metrics: Option<&'a MetricsRegistry>,
}

impl<'a> ArtifactCache<'a> {
    /// Opens (creating if needed) a cache rooted at `root`. A `max_bytes`
    /// of `None` disables eviction.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(
        root: impl Into<PathBuf>,
        max_bytes: Option<u64>,
        metrics: Option<&'a MetricsRegistry>,
    ) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        let cache = ArtifactCache {
            root,
            max_bytes,
            metrics,
        };
        // Register the counters at zero so every cache-attached export
        // carries the same key set, evictions or not.
        if let Some(m) = metrics {
            for name in ["cache.hits", "cache.misses", "cache.evictions"] {
                m.counter_add(name, 0);
            }
        }
        cache.publish_bytes();
        Ok(cache)
    }

    /// The cache root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn artifact_path(&self, namespace: &str, key: &str) -> PathBuf {
        self.root.join(namespace).join(format!("{key}.json"))
    }

    fn count(&self, name: &str) {
        if let Some(m) = self.metrics {
            m.counter_add(name, 1);
        }
    }

    fn publish_bytes(&self) {
        if let Some(m) = self.metrics {
            m.gauge_set("cache.bytes", self.bytes() as f64);
        }
    }

    /// Looks up an artifact, counting a hit or a miss. An unparseable
    /// artifact (torn by an external actor — our own writes are atomic) is
    /// treated as a miss.
    pub fn get(&self, namespace: &str, key: &str) -> Option<Value> {
        let loaded = fs::read_to_string(self.artifact_path(namespace, key))
            .ok()
            .and_then(|text| ssresf_json::parse(&text).ok());
        match loaded {
            Some(value) => {
                self.count("cache.hits");
                Some(value)
            }
            None => {
                self.count("cache.misses");
                None
            }
        }
    }

    /// Stores an artifact (atomically), then evicts oldest-first down to
    /// the byte cap. The just-written artifact is exempt from eviction —
    /// a cache whose cap is smaller than one artifact still serves it to
    /// the putter's next get.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn put(&self, namespace: &str, key: &str, value: &Value) -> io::Result<()> {
        let path = self.artifact_path(namespace, key);
        let dir = path.parent().expect("artifact path has a namespace dir");
        fs::create_dir_all(dir)?;
        let temp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&temp, value.to_string_compact())?;
        fs::rename(&temp, &path)?;
        self.evict_to_cap(&path)?;
        self.publish_bytes();
        Ok(())
    }

    /// Total bytes currently stored.
    pub fn bytes(&self) -> u64 {
        self.artifacts().into_iter().map(|(_, len, _)| len).sum()
    }

    /// Every artifact as `(path, len, mtime)`.
    fn artifacts(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        let Ok(namespaces) = fs::read_dir(&self.root) else {
            return out;
        };
        for ns in namespaces.flatten() {
            let Ok(entries) = fs::read_dir(ns.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "json") {
                    if let Ok(meta) = entry.metadata() {
                        let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                        out.push((path, meta.len(), mtime));
                    }
                }
            }
        }
        out
    }

    fn evict_to_cap(&self, keep: &Path) -> io::Result<()> {
        let Some(cap) = self.max_bytes else {
            return Ok(());
        };
        let mut artifacts = self.artifacts();
        let mut total: u64 = artifacts.iter().map(|(_, len, _)| len).sum();
        artifacts.sort_by_key(|(_, _, mtime)| *mtime);
        for (path, len, _) in artifacts {
            if total <= cap {
                break;
            }
            if path == keep {
                continue;
            }
            fs::remove_file(&path)?;
            total -= len;
            self.count("cache.evictions");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ssresf-serve-cache-{tag}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let metrics = MetricsRegistry::new();
        let root = temp_root("hits");
        let cache = ArtifactCache::open(&root, None, Some(&metrics)).unwrap();
        assert!(cache.get(NS_CAMPAIGN, "deadbeef").is_none());
        let artifact = ssresf_json::object([("x", Value::from(1u64))]);
        cache.put(NS_CAMPAIGN, "deadbeef", &artifact).unwrap();
        let back = cache.get(NS_CAMPAIGN, "deadbeef").unwrap();
        assert_eq!(back.to_string_compact(), artifact.to_string_compact());
        assert_eq!(metrics.counter("cache.hits"), 1);
        assert_eq!(metrics.counter("cache.misses"), 1);
        assert!(metrics.gauge("cache.bytes").unwrap() > 0.0);
        // A second cache over the same root sees the artifact (persistence).
        let reopened = ArtifactCache::open(&root, None, None).unwrap();
        assert!(reopened.get(NS_CAMPAIGN, "deadbeef").is_some());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn eviction_is_oldest_first_and_spares_the_new_artifact() {
        let metrics = MetricsRegistry::new();
        let root = temp_root("evict");
        let cache = ArtifactCache::open(&root, Some(64), Some(&metrics)).unwrap();
        let big = Value::String("y".repeat(60));
        cache.put(NS_CAMPAIGN, "old", &big).unwrap();
        // Distinct mtimes even on coarse-grained filesystems.
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.put(NS_CAMPAIGN, "new", &big).unwrap();
        assert!(cache.get(NS_CAMPAIGN, "old").is_none(), "oldest evicted");
        assert!(cache.get(NS_CAMPAIGN, "new").is_some(), "newest kept");
        assert_eq!(metrics.counter("cache.evictions"), 1);
        fs::remove_dir_all(&root).unwrap();
    }
}
