//! Content-addressed result cache for deterministic simulation runs.
//!
//! Every run in this workspace is byte-identical given the same
//! resolved inputs, so a finished result can be keyed by a digest of
//! those inputs and replayed from disk instead of re-simulated. This
//! crate owns the three pieces that makes that safe:
//!
//! - [`Key`]: a canonical digest builder. Callers feed it the fully
//!   *resolved* run recipe (machine config, workload, seed, fault
//!   plan — everything that affects output, nothing that doesn't) as
//!   named records; the digest is SHA-256 over a length-prefixed
//!   encoding that starts with [`MODEL_FINGERPRINT`], a hash of the
//!   model's source, so any source change invalidates every old entry
//!   at once.
//! - [`Store`]: the on-disk object store (`.emu-cache/` by default,
//!   `EMU_CACHE_DIR` override) with atomic tmp+rename writes and
//!   mtime-ordered [`Store::gc`].
//! - module-level [`active`], [`lookup`], and [`publish`]: the gate the
//!   execution paths call. [`active`] is the one admission guard (cache
//!   enabled, run not observed); lookups and publishes no-op unless
//!   caching is enabled and count the session's hits, misses and stores
//!   in the `emu_core::obs` registry, where the daemon's metrics
//!   endpoints pick them up automatically.
//!
//! ## Enablement
//!
//! The cache belongs to the current [`RunCtx`]: its `cache` field names
//! the store directory, and `None` turns the cache off. Outside any
//! scope the environment decides (`EMU_CACHE=1`, `EMU_CACHE_DIR`); an
//! embedder or test enters a ctx with `cache: Some(dir)` instead. A
//! cold process never touches the filesystem unless something opted in.
//!
//! The cache stores *rendered results* (report JSON, CSV cell text,
//! point-outcome JSON), not engine state; entries carry an optional
//! `recipe` string so `simctl cache verify` can re-run a sample from
//! scratch and byte-compare.

pub mod sha256;

use emu_core::ctx::RunCtx;
use emu_core::json::jstr;
use emu_core::jsonread;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// SHA-256 (hex) over every `crates/*/src` file and `Cargo.lock`,
/// computed by this crate's build script. Every [`Key`] records it
/// first, so an entry written by a build of other source is never read:
/// a cache hit always comes from the model that answers the lookup.
pub const MODEL_FINGERPRINT: &str = include_str!(concat!(env!("OUT_DIR"), "/model_fingerprint"));

// ---------------------------------------------------------------------------
// Canonical key
// ---------------------------------------------------------------------------

/// Builder for a canonical content digest.
///
/// Records are length-prefixed (`name:len:value\n`) so multi-line
/// values — scenario sources, debug dumps — cannot collide with a
/// differently-split sequence of records. Push records in a fixed
/// order; the caller is responsible for feeding *resolved* values
/// (post-preset, post-override) so that semantically equal inputs
/// produce identical material.
#[derive(Debug, Clone)]
pub struct Key {
    material: String,
}

impl Key {
    /// Start a key for one kind of cached artifact ("figure", "scn",
    /// "simd-stream", ...). The kind partitions the digest space.
    pub fn new(kind: &str) -> Key {
        let mut k = Key {
            material: String::with_capacity(256),
        };
        k.record("model", MODEL_FINGERPRINT);
        k.record("kind", kind);
        k
    }

    /// Append one named record.
    pub fn record(&mut self, name: &str, value: &str) -> &mut Key {
        use std::fmt::Write;
        let _ = writeln!(self.material, "{name}:{}:{value}", value.len());
        self
    }

    /// Append a record rendered through `Debug` — the workspace's
    /// canonical stable encoding for config structs (f64 renders as
    /// shortest-round-trip, containers in declaration/key order).
    pub fn record_debug(&mut self, name: &str, value: &impl std::fmt::Debug) -> &mut Key {
        self.record(name, &format!("{value:?}"))
    }

    /// The canonical material fed to the hash (for tests/debugging).
    pub fn material(&self) -> &str {
        &self.material
    }

    /// The content digest: 64 hex chars of SHA-256 over the material.
    pub fn digest(&self) -> String {
        sha256::hex_digest(self.material.as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Entry codec
// ---------------------------------------------------------------------------

/// One cached artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Artifact kind — matches the `Key::new` kind that addressed it.
    pub kind: String,
    /// Human-readable label ("fig bandwidth chick", scenario name, ...).
    pub label: String,
    /// The rendered result: report JSON, CSV cell text, outcome JSON.
    pub payload: String,
    /// Re-run recipe for `cache verify`; `None` when the artifact
    /// cannot be reproduced from a self-contained recipe string.
    pub recipe: Option<String>,
}

impl Entry {
    /// Serialize to the on-disk JSON document.
    pub fn encode(&self) -> String {
        let recipe = match &self.recipe {
            Some(r) => jstr(r),
            None => "null".to_string(),
        };
        format!(
            "{{\"v\":1,\"kind\":{},\"label\":{},\"payload\":{},\"recipe\":{}}}\n",
            jstr(&self.kind),
            jstr(&self.label),
            jstr(&self.payload),
            recipe
        )
    }

    /// Parse an on-disk document; rejects unknown versions.
    pub fn decode(text: &str) -> Result<Entry, String> {
        let v = jsonread::parse(text)?;
        let version = v.get("v").and_then(|x| x.as_u64()).ok_or("missing v")?;
        if version != 1 {
            return Err(format!("unsupported entry version {version}"));
        }
        let field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("missing {name}"))
        };
        let recipe = match v.get("recipe") {
            Some(jsonread::Value::Null) | None => None,
            Some(r) => Some(r.as_str().ok_or("recipe must be a string")?.to_string()),
        };
        Ok(Entry {
            kind: field("kind")?,
            label: field("label")?,
            payload: field("payload")?,
            recipe,
        })
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// Metadata for one object file, from a directory scan.
#[derive(Debug, Clone)]
pub struct ObjInfo {
    /// Content digest (the file stem).
    pub digest: String,
    /// Object file size in bytes.
    pub bytes: u64,
    /// Last-modified time, for gc ordering.
    pub mtime: std::time::SystemTime,
}

/// Result of a [`Store::gc`] pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct GcResult {
    /// Objects deleted.
    pub removed: usize,
    /// Bytes freed.
    pub freed_bytes: u64,
    /// Objects surviving.
    pub kept: usize,
    /// Bytes surviving.
    pub kept_bytes: u64,
}

/// The on-disk object store. Layout:
///
/// ```text
/// <root>/objects/<digest>.json   one Entry per object, atomic writes
/// ```
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
}

impl Store {
    /// Open the store at an explicit root.
    pub fn at(root: impl Into<PathBuf>) -> Store {
        Store { root: root.into() }
    }

    /// Open the configured store at [`resolve_dir`].
    pub fn open_default() -> Store {
        Store::at(resolve_dir())
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn objects(&self) -> PathBuf {
        self.root.join("objects")
    }

    fn object_path(&self, digest: &str) -> PathBuf {
        self.objects().join(format!("{digest}.json"))
    }

    /// Load an entry by digest. Pure I/O — no counters, no enablement
    /// gate (that lives in the module-level [`lookup`]).
    pub fn load(&self, digest: &str) -> Option<Entry> {
        let text = std::fs::read_to_string(self.object_path(digest)).ok()?;
        Entry::decode(&text).ok()
    }

    /// Persist an entry under `digest`, atomically (unique tmp file in
    /// the same directory, then rename). Returns bytes written.
    pub fn save(&self, digest: &str, entry: &Entry) -> std::io::Result<u64> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = self.objects();
        std::fs::create_dir_all(&dir)?;
        let doc = entry.encode();
        let tmp = dir.join(format!(
            ".tmp-{}-{}-{digest}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &doc)?;
        let dest = self.object_path(digest);
        std::fs::rename(&tmp, &dest).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })?;
        Ok(doc.len() as u64)
    }

    /// Enumerate object files (digest, size, mtime). Tmp leftovers and
    /// non-`.json` files are skipped.
    pub fn scan(&self) -> Vec<ObjInfo> {
        let Ok(rd) = std::fs::read_dir(self.objects()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for e in rd.flatten() {
            let path = e.path();
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if stem.starts_with('.') || path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let Ok(md) = e.metadata() else { continue };
            out.push(ObjInfo {
                digest: stem.to_string(),
                bytes: md.len(),
                mtime: md.modified().unwrap_or(std::time::UNIX_EPOCH),
            });
        }
        out.sort_by(|a, b| a.digest.cmp(&b.digest));
        out
    }

    /// Evict oldest-first (by mtime, digest as tiebreak) until total
    /// object bytes fit within `max_bytes`.
    pub fn gc(&self, max_bytes: u64) -> GcResult {
        let mut objs = self.scan();
        objs.sort_by(|a, b| a.mtime.cmp(&b.mtime).then(a.digest.cmp(&b.digest)));
        let mut total: u64 = objs.iter().map(|o| o.bytes).sum();
        let mut res = GcResult::default();
        for o in &objs {
            if total <= max_bytes {
                break;
            }
            if std::fs::remove_file(self.object_path(&o.digest)).is_ok() {
                total -= o.bytes;
                res.removed += 1;
                res.freed_bytes += o.bytes;
            }
        }
        res.kept = objs.len() - res.removed;
        res.kept_bytes = total;
        res
    }
}

// ---------------------------------------------------------------------------
// Enablement, configured directory, gated lookup/publish
// ---------------------------------------------------------------------------

/// Whether the current [`RunCtx`] has the cache on (`cache` names a
/// store directory).
pub fn enabled() -> bool {
    RunCtx::with_current(|c| c.cache.is_some())
}

/// Whether a run may be served from (or published to) the cache right
/// now: the current [`RunCtx`] has the cache on, is not observed (no
/// telemetry, report sink or phase profiling) and sets no run budget.
/// A traced, profiled, or report-collecting run must execute every
/// point for its artifacts to mean anything, and a budget may cut a
/// run short, which must never be stored under a key that does not
/// cover the budget. Every execution path (figure cells, scenario
/// points, daemon runs) asks this before probing.
pub fn active() -> bool {
    RunCtx::with_current(|c| {
        c.cache.is_some() && !c.observed() && c.deadline.is_none() && c.max_events.is_none()
    })
}

/// The directory the default store resolves to right now: the current
/// [`RunCtx`]'s cache directory, else `EMU_CACHE_DIR`, else
/// [`emu_core::ctx::DEFAULT_CACHE_DIR`].
pub fn resolve_dir() -> PathBuf {
    RunCtx::with_current(|c| c.cache.clone())
        .unwrap_or_else(|| emu_core::ctx::env_cache_dir().to_path_buf())
}

/// The current ctx's store, if the cache is on.
fn enabled_store() -> Option<Store> {
    RunCtx::with_current(|c| c.cache.clone()).map(Store::at)
}

/// This process's cache traffic (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that missed (or found an undecodable entry).
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Total bytes written.
    pub bytes_written: u64,
}

struct Counters {
    hits: &'static emu_core::obs::Counter,
    misses: &'static emu_core::obs::Counter,
    stores: &'static emu_core::obs::Counter,
    bytes: &'static emu_core::obs::Counter,
}

/// The session counters, registered in the `emu_core::obs` registry.
fn counters() -> &'static Counters {
    static M: OnceLock<Counters> = OnceLock::new();
    M.get_or_init(|| Counters {
        hits: emu_core::obs::counter("emu_cache_hits_total"),
        misses: emu_core::obs::counter("emu_cache_misses_total"),
        stores: emu_core::obs::counter("emu_cache_stores_total"),
        bytes: emu_core::obs::counter("emu_cache_bytes_written_total"),
    })
}

/// Current session counters.
pub fn session_stats() -> SessionStats {
    let c = counters();
    SessionStats {
        hits: c.hits.get(),
        misses: c.misses.get(),
        stores: c.stores.get(),
        bytes_written: c.bytes.get(),
    }
}

/// Look up a digest in the configured store. Returns `None` without
/// touching disk or counters when the cache is disabled; otherwise
/// counts one hit or miss.
pub fn lookup(digest: &str) -> Option<Entry> {
    let entry = enabled_store()?.load(digest);
    let c = counters();
    match entry {
        Some(_) => c.hits.inc(),
        None => c.misses.inc(),
    }
    entry
}

/// Persist an entry in the configured store. Best-effort: a write
/// failure is swallowed (the run already has its result in hand), but
/// successful writes count toward the store/bytes counters.
pub fn publish(digest: &str, entry: &Entry) {
    let Some(store) = enabled_store() else {
        return;
    };
    if let Ok(n) = store.save(digest, entry) {
        let c = counters();
        c.stores.inc();
        c.bytes.add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "runcache-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("mk tmpdir");
        d
    }

    #[test]
    fn key_material_is_length_prefixed_and_salted() {
        let mut k = Key::new("figure");
        k.record("cfg", "a=1").record("seed", "42");
        assert_eq!(MODEL_FINGERPRINT.len(), 64);
        assert!(MODEL_FINGERPRINT.bytes().all(|b| b.is_ascii_hexdigit()));
        assert!(k
            .material()
            .starts_with(&format!("model:64:{MODEL_FINGERPRINT}\nkind:6:figure\n")));
        assert!(k.material().contains("cfg:3:a=1\nseed:2:42\n"));
        assert_eq!(k.digest().len(), 64);
    }

    #[test]
    fn key_records_cannot_collide_across_boundaries() {
        // "ab" + "c" must differ from "a" + "bc" — length prefixes
        // make the concatenation injective.
        let mut k1 = Key::new("t");
        k1.record("x", "ab").record("y", "c");
        let mut k2 = Key::new("t");
        k2.record("x", "a").record("y", "bc");
        assert_ne!(k1.digest(), k2.digest());
    }

    #[test]
    fn kind_partitions_digest_space() {
        let mut a = Key::new("figure");
        a.record("cfg", "same");
        let mut b = Key::new("scn");
        b.record("cfg", "same");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn entry_codec_round_trips() {
        let e = Entry {
            kind: "scn".into(),
            label: "stream \"quoted\" λ".into(),
            payload: "{\"metrics\":{\"x\":1.5}}\nline2".into(),
            recipe: Some("case:v1 seed=9".into()),
        };
        let doc = e.encode();
        assert!(emu_core::json::json_ok(doc.trim_end()));
        assert_eq!(Entry::decode(&doc).unwrap(), e);

        let none = Entry {
            recipe: None,
            ..e.clone()
        };
        assert_eq!(Entry::decode(&none.encode()).unwrap(), none);
    }

    #[test]
    fn store_save_load_scan() {
        let dir = tmpdir("store");
        let store = Store::at(&dir);
        let e = Entry {
            kind: "figure".into(),
            label: "cell".into(),
            payload: "12.5".into(),
            recipe: None,
        };
        let digest = Key::new("figure").record("p", "x").digest();
        assert!(store.load(&digest).is_none());
        let n = store.save(&digest, &e).expect("save");
        assert!(n > 0);
        assert_eq!(store.load(&digest).unwrap(), e);
        let objs = store.scan();
        assert_eq!(objs.len(), 1);
        assert_eq!(objs[0].digest, digest);
        assert_eq!(objs[0].bytes, n);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_oldest_until_under_budget() {
        let dir = tmpdir("gc");
        let store = Store::at(&dir);
        let mut digests = Vec::new();
        for i in 0..4 {
            let e = Entry {
                kind: "t".into(),
                label: format!("obj{i}"),
                payload: "x".repeat(100),
                recipe: None,
            };
            let d = Key::new("t").record("i", &i.to_string()).digest();
            store.save(&d, &e).unwrap();
            digests.push(d);
            // Distinct mtimes so eviction order is deterministic.
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        let total: u64 = store.scan().iter().map(|o| o.bytes).sum();
        let per = total / 4;
        let res = store.gc(per * 2);
        assert_eq!(res.removed, 2);
        assert_eq!(res.kept, 2);
        assert!(res.kept_bytes <= per * 2);
        // The two oldest are gone, the two newest survive.
        assert!(store.load(&digests[0]).is_none());
        assert!(store.load(&digests[1]).is_none());
        assert!(store.load(&digests[2]).is_some());
        assert!(store.load(&digests[3]).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_lookup_is_inert() {
        // A ctx with the cache off: lookup must not count.
        RunCtx::default().scope(|| {
            assert!(!enabled() && !active());
            let before = session_stats();
            let digest = "0000000000000000000000000000000000000000000000000000000000000000";
            assert!(lookup(digest).is_none());
            publish(
                digest,
                &Entry {
                    kind: "t".into(),
                    label: "t".into(),
                    payload: String::new(),
                    recipe: None,
                },
            );
            assert_eq!(session_stats(), before);
        });
    }
}
