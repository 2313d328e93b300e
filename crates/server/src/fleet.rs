//! The archive fleet: every `*.twpa` directly under a root directory,
//! lazily opened as a *tenant* and kept registered across rescans.
//!
//! Opens are O(footer) ([`LazyArchive::open_with_cache`]), so a fleet of
//! hundreds of archives costs metadata reads only — decoded frames land
//! in one shared byte-capped [`FrameCache`], the single knob bounding
//! resident frame bytes across all tenants. A second byte-capped LRU
//! holds solved answer summaries keyed by archive uid and encoded
//! request (which carries the budget class); because the uid is
//! process-unique *per open*, a rescan that reopens a changed file
//! invalidates both caches for the old epoch automatically, and
//! [`Fleet::rescan`] proactively purges the dead uid's entries so the
//! bytes come back immediately.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use twpp::cache::{ByteLruCache, CacheStats, FrameCache};
use twpp::lazy::LazyArchive;
use twpp::net::{valid_source_name, Answer, ArchiveStat, Frame};
use twpp::obs::Obs;

/// Default byte cap of the answer-summary cache.
pub const DEFAULT_SUMMARY_CACHE_BYTES: u64 = 8 << 20;

/// Length of the archive-uid prefix of a summary-cache key.
const UID_LEN: usize = std::mem::size_of::<u64>();

/// One archive under the fleet root, open lazily.
pub struct Tenant {
    /// Archive name: the file stem, a [`valid_source_name`].
    pub name: String,
    /// Absolute path of the backing file.
    pub path: PathBuf,
    /// Size of the backing file when (re)opened.
    pub file_bytes: u64,
    /// Modification fingerprint (`len`, mtime nanos) used to detect
    /// in-place replacement across rescans.
    fingerprint: (u64, u128),
    /// The lazily-opened archive.
    pub archive: LazyArchive,
}

impl Tenant {
    /// The [`ArchiveStat`] wire entry for this tenant.
    pub fn stat(&self) -> ArchiveStat {
        ArchiveStat {
            name: self.name.clone(),
            functions: self.archive.function_count() as u32,
            degraded: self.archive.is_degraded(),
            file_bytes: self.file_bytes,
        }
    }
}

/// What one [`Fleet::rescan`] changed.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScanDelta {
    /// Archives newly opened (or reopened after an in-place change).
    pub opened: Vec<String>,
    /// Archives dropped because their file disappeared.
    pub removed: Vec<String>,
    /// Files that looked like archives but failed to open, with the
    /// error text. Retried on the next rescan.
    pub failed: Vec<(String, String)>,
}

impl ScanDelta {
    /// `true` when the rescan changed nothing.
    pub fn is_empty(&self) -> bool {
        self.opened.is_empty() && self.removed.is_empty() && self.failed.is_empty()
    }
}

/// A live registry of tenants over one fleet root.
pub struct Fleet {
    root: PathBuf,
    frames: Arc<FrameCache>,
    /// Answer summaries: [`Fleet::summary_key`] bytes → cached reply.
    /// The encoded request frame carries the budget spec, so
    /// differently-budgeted requests never alias. One shared allocation
    /// serves as both the map's and the recency list's copy of a key.
    summaries: ByteLruCache<Arc<[u8]>, Arc<Answer>>,
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    /// Last rescan's open failures, for `/status`.
    failures: Mutex<Vec<(String, String)>>,
    obs: Obs,
}

impl Fleet {
    /// Creates an empty fleet over `root` (no scan yet) with the given
    /// cache byte caps.
    pub fn new(root: &Path, frame_cache_bytes: u64, summary_cache_bytes: u64, obs: Obs) -> Fleet {
        Fleet {
            root: root.to_path_buf(),
            frames: Arc::new(FrameCache::observed(frame_cache_bytes, obs.clone())),
            summaries: ByteLruCache::new(summary_cache_bytes),
            tenants: RwLock::new(HashMap::new()),
            failures: Mutex::new(Vec::new()),
            obs,
        }
    }

    /// The fleet root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The shared frame cache every tenant decodes into.
    pub fn frame_cache(&self) -> &Arc<FrameCache> {
        &self.frames
    }

    /// Scans the root and reconciles the registry: opens new `*.twpa`
    /// files, reopens ones whose `(len, mtime)` fingerprint changed, and
    /// drops ones whose file is gone — purging both caches for every
    /// retired uid. Open failures are recorded (visible in `/status`)
    /// and retried next time; they never take the fleet down.
    ///
    /// # Errors
    ///
    /// `Err` only when the root directory itself cannot be listed.
    pub fn rescan(&self) -> Result<ScanDelta, std::io::Error> {
        let mut delta = ScanDelta::default();
        let mut seen: HashMap<String, (PathBuf, (u64, u128))> = HashMap::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("twpa") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if !valid_source_name(stem) {
                delta
                    .failed
                    .push((stem.to_owned(), "invalid archive name".into()));
                continue;
            }
            let Ok(md) = entry.metadata() else { continue };
            if !md.is_file() {
                continue;
            }
            let mtime = md
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            seen.insert(stem.to_owned(), (path, (md.len(), mtime)));
        }

        let mut retired: Vec<u64> = Vec::new();
        {
            let mut tenants = write_unpoisoned(&self.tenants);
            // Drop tenants whose file vanished, remembering their uids.
            tenants.retain(|name, t| {
                if seen.contains_key(name) {
                    true
                } else {
                    retired.push(t.archive.archive_uid());
                    delta.removed.push(name.clone());
                    false
                }
            });
            // Open new files and reopen changed ones.
            for (name, (path, fingerprint)) in seen {
                if let Some(t) = tenants.get(&name) {
                    if t.fingerprint == fingerprint {
                        continue;
                    }
                    retired.push(t.archive.archive_uid());
                }
                match LazyArchive::open_with_cache(&path, Arc::clone(&self.frames), self.obs.clone())
                {
                    Ok(archive) => {
                        tenants.insert(
                            name.clone(),
                            Arc::new(Tenant {
                                name: name.clone(),
                                path,
                                file_bytes: fingerprint.0,
                                fingerprint,
                                archive,
                            }),
                        );
                        delta.opened.push(name);
                    }
                    Err(e) => delta.failed.push((name, e.to_string())),
                }
            }
        }
        for uid in retired {
            self.frames.invalidate_archive(uid);
            let prefix = uid.to_le_bytes();
            self.summaries.retain(|k| !k.starts_with(&prefix));
        }
        delta.opened.sort();
        delta.removed.sort();
        delta.failed.sort();
        *lock_unpoisoned(&self.failures) = delta.failed.clone();
        if self.obs.is_enabled() {
            self.obs
                .counter("twpp_serve_rescans_total", "Fleet root rescans performed")
                .inc();
            if !delta.opened.is_empty() {
                self.obs
                    .counter("twpp_serve_archives_opened_total", "Archives (re)opened by rescans")
                    .add(delta.opened.len() as u64);
            }
            if !delta.removed.is_empty() {
                self.obs
                    .counter("twpp_serve_archives_removed_total", "Archives dropped by rescans")
                    .add(delta.removed.len() as u64);
            }
            if !delta.failed.is_empty() {
                self.obs
                    .counter("twpp_serve_open_failures_total", "Archive open failures during rescans")
                    .add(delta.failed.len() as u64);
            }
        }
        Ok(delta)
    }

    /// Looks up a tenant by archive name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        read_unpoisoned(&self.tenants).get(name).cloned()
    }

    /// All tenants, sorted by name.
    pub fn list(&self) -> Vec<Arc<Tenant>> {
        let mut v: Vec<Arc<Tenant>> = read_unpoisoned(&self.tenants).values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        read_unpoisoned(&self.tenants).len()
    }

    /// `true` when no archive is registered.
    pub fn is_empty(&self) -> bool {
        read_unpoisoned(&self.tenants).is_empty()
    }

    /// Last rescan's open failures.
    pub fn open_failures(&self) -> Vec<(String, String)> {
        lock_unpoisoned(&self.failures).clone()
    }

    /// The summary-cache key of `request` on archive `uid`: the uid's
    /// little-endian bytes followed by the encoded request frame.
    pub fn summary_key(uid: u64, request: &Frame) -> Vec<u8> {
        // Room for the uid and a typical request frame in one allocation.
        let mut key = Vec::with_capacity(96);
        key.extend_from_slice(&uid.to_le_bytes());
        request.encode_into(&mut key);
        key
    }

    /// A cached answer for a [`Fleet::summary_key`], if present; the
    /// lookup allocates nothing. Counts
    /// `twpp_serve_summary_cache_{hits,misses}_total`.
    pub fn summary_lookup(&self, key: &[u8]) -> Option<Arc<Answer>> {
        let hit = self.summaries.get(key);
        if self.obs.is_enabled() {
            let (name, help) = if hit.is_some() {
                ("twpp_serve_summary_cache_hits_total", "Answers served from the summary cache")
            } else {
                ("twpp_serve_summary_cache_misses_total", "Answers solved because the summary cache missed")
            };
            self.obs.counter(name, help).inc();
        }
        hit
    }

    /// Caches `answer` under a [`Fleet::summary_key`], weighted by the
    /// request and rendered sizes. Returns the canonical entry (an
    /// earlier racing insert wins). Counts
    /// `twpp_serve_summary_cache_evicted_bytes_total`.
    pub fn summary_insert(&self, key: &[u8], answer: Arc<Answer>) -> Arc<Answer> {
        let bytes = (key.len().saturating_sub(UID_LEN) + answer.text.len() + 64) as u64;
        let (answer, freed) = self
            .summaries
            .insert_or_get_evicting(Arc::from(key), answer, bytes);
        if freed > 0 && self.obs.is_enabled() {
            self.obs
                .counter(
                    "twpp_serve_summary_cache_evicted_bytes_total",
                    "Bytes of answer summaries evicted to stay under the cache cap",
                )
                .add(freed);
        }
        answer
    }

    /// [`Fleet::summary_lookup`] for an encoded request frame `request`
    /// on archive `uid`.
    pub fn summary_get(&self, uid: u64, request: &[u8]) -> Option<Arc<Answer>> {
        self.summary_lookup(&[&uid.to_le_bytes()[..], request].concat())
    }

    /// [`Fleet::summary_insert`] for an encoded request frame `request`
    /// on archive `uid`.
    pub fn summary_put(&self, uid: u64, request: Vec<u8>, answer: Arc<Answer>) -> Arc<Answer> {
        self.summary_insert(&[&uid.to_le_bytes()[..], &request].concat(), answer)
    }

    /// Summary-cache statistics.
    pub fn summary_stats(&self) -> CacheStats {
        self.summaries.stats()
    }

    /// Drops every cached summary (used when caching is disabled
    /// mid-flight or by tests).
    pub fn clear_summaries(&self) {
        self.summaries.clear();
    }
}

fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn read_unpoisoned<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write_unpoisoned<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(std::sync::PoisonError::into_inner)
}
