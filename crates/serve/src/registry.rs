//! The sharded snapshot registry.
//!
//! Concurrency model: the fingerprint → path index is built at
//! [`SnapshotRegistry::open`] and extended only by
//! [`SnapshotRegistry::refresh`], so it sits behind an `RwLock` that is
//! almost always read-locked. Resident state lives in `N` shards, each
//! a `Mutex` over its own map; a fingerprint is pinned to one shard by
//! a remix of its bits, so fetches for different programs contend only
//! when they land on the same shard (1/N of the time). Snapshot files
//! are loaded and merged *outside* the shard lock — a slow disk never
//! stalls other programs on the shard — with a double-check on insert
//! so a racing loader's result is reused instead of clobbered. The
//! index lock and a shard lock are never held at the same time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;
use tlr_core::{ReplacementPolicy, ReuseTraceMemory, RtmSnapshot};
use tlr_persist::snapshot::write_snapshot;
use tlr_persist::{
    base_file_name, delta_file_name, delta_seq_from_path, diff_snapshots, group_digests,
    load_merged_snapshots_with, load_snapshot_payload, peek_snapshot_identity, save_base,
    save_delta_segment, PersistError, SnapshotPayload, SnapshotWriteOptions,
};
use tlr_util::{FxHashMap, FxHashSet};

/// File extension the directory scan considers ([`SnapshotRegistry::open`]):
/// binary RTM snapshots only; JSON debug dumps are ignored.
pub const SNAPSHOT_FILE_EXT: &str = "tlrsnap";

/// Registry sizing and policy.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Number of shards (one lock each). Use at least the expected
    /// number of concurrently serving threads.
    pub shards: usize,
    /// Resident RTMs a shard may hold before evicting its least
    /// recently fetched entry.
    pub max_resident_per_shard: usize,
    /// Replacement policy applied when pooling reuse state: both the
    /// merge-on-load of several snapshot files and every publish-back
    /// merge resolve capacity contention under this policy, ranking by
    /// the persisted per-trace provenance for the non-recency policies.
    pub policy: ReplacementPolicy,
    /// Delta segments a fingerprint may accumulate before
    /// [`spill`](SnapshotRegistry::spill) folds base + deltas into a
    /// fresh base file (LSM level-0 style).
    pub compact_threshold: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            max_resident_per_shard: 64,
            policy: ReplacementPolicy::Lru,
            compact_threshold: 8,
        }
    }
}

/// Per-entry behaviour counters and residency gauges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntryStats {
    /// Fetches answered from the resident entry.
    pub hits: u64,
    /// Fetches that had to load from the snapshot directory.
    pub misses: u64,
    /// Publish-back merges applied to the resident entry.
    pub refreshes: u64,
    /// Traces resident for this program (gauge, refreshed on every
    /// load/publish).
    pub resident_traces: u64,
    /// Hit-weighted residency: the sum of resident traces' provenance
    /// hit counts — how much *observed* reuse the resident state
    /// represents, not just how many traces it holds (gauge).
    pub resident_hits: u64,
    /// Image fetches answered from the cached serialized image.
    pub image_hits: u64,
    /// Serialized images built (first fetch after load/invalidation).
    pub image_builds: u64,
    /// Cached images dropped because the resident state changed
    /// (publish/refresh merge).
    pub image_invalidations: u64,
    /// Fetches answered by *shape resolution*: the exact fingerprint was
    /// unknown, but another program with the same shape fingerprint
    /// (same code, different data) had published state this entry was
    /// warm-started from.
    pub shape_hits: u64,
}

/// Registry-wide aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// RTMs currently resident across all shards.
    pub resident: u64,
    /// Sum of per-entry hits (evicted entries included).
    pub hits: u64,
    /// Sum of per-entry misses (evicted entries included).
    pub misses: u64,
    /// Sum of per-entry refreshes (evicted entries included).
    pub refreshes: u64,
    /// Resident entries evicted by the LRU bound.
    pub evicted: u64,
    /// Fetches for fingerprints with no snapshot on disk.
    pub unknown: u64,
    /// Sum of per-entry image-cache hits (evicted entries included).
    pub image_hits: u64,
    /// Sum of per-entry image builds (evicted entries included).
    pub image_builds: u64,
    /// Sum of per-entry image invalidations (evicted entries included).
    pub image_invalidations: u64,
    /// Sum of per-entry shape-resolved fetches (evicted entries
    /// included): warm starts served to a data-varied client from
    /// another seed's published state.
    pub shape_hits: u64,
    /// Shape lookups that found same-shape donors but could not pool
    /// them (load or merge failure). Before these were counted, such a
    /// fetch was indistinguishable from an unknown program — the miss
    /// was silent.
    pub shape_rejects: u64,
}

/// What one [`SnapshotRegistry::refresh`] pass did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// Snapshot files discovered and indexed this pass.
    pub new_files: u64,
    /// Resident entries that absorbed newly discovered files.
    pub refreshed: u64,
    /// Files with the snapshot extension that could not be indexed this
    /// pass (unreadable or mid-write); they are left unindexed and will
    /// be retried on the next refresh.
    pub skipped: u64,
    /// Known files whose (mtime, length) stamp matched the last scan —
    /// not re-read at all this pass.
    pub unchanged: u64,
}

/// How [`SnapshotRegistry::spill`] persisted an entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillKind {
    /// The program is not resident, or nothing changed since the last
    /// spill — no bytes written.
    #[default]
    NoChange,
    /// A full base file was written (the entry had no durable state to
    /// diff against).
    Base,
    /// A delta segment holding only changed PC groups was appended next
    /// to the base.
    Delta,
    /// Accumulated deltas crossed
    /// [`RegistryConfig::compact_threshold`] and were folded into a
    /// fresh base; the superseded files were deleted.
    Compacted,
}

/// What one [`SnapshotRegistry::spill`] call wrote.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpillOutcome {
    /// The kind of write performed.
    pub kind: SpillKind,
    /// Bytes this spill put on disk (0 for [`SpillKind::NoChange`]).
    pub bytes_written: u64,
    /// Changed PC groups a delta spill carried.
    pub delta_groups: u64,
    /// Emptied PC groups a delta spill tombstoned.
    pub tombstones: u64,
    /// Superseded files a compaction deleted.
    pub removed_files: u64,
    /// The file written, if any.
    pub path: Option<PathBuf>,
}

/// Why the registry could not serve.
#[derive(Debug)]
pub enum ServeError {
    /// A snapshot file failed to load, validate, or merge.
    Persist(PersistError),
    /// A published snapshot's geometry disagrees with the resident
    /// entry's.
    Merge(tlr_core::MergeError),
    /// A `tlrd` protocol exchange failed (see [`crate::proto`]).
    Proto(crate::proto::ProtoError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Persist(e) => write!(f, "{e}"),
            ServeError::Merge(e) => write!(f, "{e}"),
            ServeError::Proto(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Persist(e) => Some(e),
            ServeError::Merge(e) => Some(e),
            ServeError::Proto(e) => Some(e),
        }
    }
}

impl From<crate::proto::ProtoError> for ServeError {
    fn from(e: crate::proto::ProtoError) -> Self {
        ServeError::Proto(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> Self {
        ServeError::Persist(e)
    }
}

impl From<tlr_core::MergeError> for ServeError {
    fn from(e: tlr_core::MergeError) -> Self {
        ServeError::Merge(e)
    }
}

/// Durable-state bookkeeping for incremental spills: what of this
/// entry is already on disk, and under which delta sequence the next
/// spill continues.
#[derive(Clone, Debug)]
struct SpillState {
    /// Per-PC-group digests of the state already durable on disk; the
    /// next spill diffs the resident snapshot against these.
    groups: BTreeMap<u32, u64>,
    /// Sequence number the next delta segment will carry.
    next_seq: u64,
    /// Delta files this registry has spilled (or loaded) for the
    /// fingerprint — when they reach the compaction threshold the next
    /// spill folds everything into a fresh base.
    delta_files: Vec<PathBuf>,
}

/// One resident program: its warm RTM, the export handed to engines,
/// and behaviour counters.
struct Entry {
    /// Canonical resident reuse state; publish-back merges into it.
    rtm: ReuseTraceMemory,
    /// Cached export of `rtm`, shared with engines cheaply. Rebuilt on
    /// refresh.
    snap: Arc<RtmSnapshot>,
    /// Cached serialized snapshot file image of `snap`, built lazily by
    /// [`SnapshotRegistry::get_image`] and dropped whenever `snap` is
    /// replaced.
    image: Option<Arc<[u8]>>,
    /// Bumped whenever `snap` is replaced, so an image serialized
    /// outside the shard lock is cached only if the state it encoded
    /// still stands.
    generation: u64,
    /// `None` until the entry's state has a durable representation to
    /// diff against (publish-born entries before their first spill).
    spill: Option<SpillState>,
    stats: EntryStats,
    /// Fetch-recency stamp for the shard's LRU bound.
    last_touch: u64,
}

impl Entry {
    /// Drop the cached image because `snap` was replaced.
    fn invalidate_image(&mut self) {
        self.generation += 1;
        if self.image.take().is_some() {
            self.stats.image_invalidations += 1;
        }
    }
}

#[derive(Default)]
struct Shard {
    entries: FxHashMap<u64, Entry>,
    tick: u64,
    /// Stats of entries that were evicted, so aggregates never go
    /// backwards.
    retired: EntryStats,
}

impl Shard {
    fn touch(&mut self, fingerprint: u64) -> Option<&mut Entry> {
        self.tick += 1;
        let entry = self.entries.get_mut(&fingerprint)?;
        entry.last_touch = self.tick;
        Some(entry)
    }

    /// Enforce the LRU bound after an insert. Returns entries evicted.
    fn enforce_bound(&mut self, max_resident: usize) -> u64 {
        let mut evicted = 0;
        while self.entries.len() > max_resident.max(1) {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(fp, _)| *fp)
                .expect("len > 1, so a victim exists");
            if let Some(e) = self.entries.remove(&victim) {
                self.retired.hits += e.stats.hits;
                self.retired.misses += e.stats.misses;
                self.retired.refreshes += e.stats.refreshes;
                self.retired.image_hits += e.stats.image_hits;
                self.retired.image_builds += e.stats.image_builds;
                self.retired.image_invalidations += e.stats.image_invalidations;
                self.retired.shape_hits += e.stats.shape_hits;
            }
            evicted += 1;
        }
        evicted
    }
}

/// The (mtime, length) identity a refresh scan uses to tell whether a
/// known file changed without re-reading it.
type FileStamp = (SystemTime, u64);

/// The snapshot file image of `snap`, as served by
/// [`SnapshotRegistry::get_image`].
fn serialize_image(fingerprint: u64, snap: &RtmSnapshot) -> Result<Arc<[u8]>, ServeError> {
    let mut bytes = Vec::with_capacity(64 + snap.len() * 64);
    write_snapshot(&mut bytes, fingerprint, snap)?;
    Ok(bytes.into())
}

/// Stat `path` into a [`FileStamp`]; `None` when the file vanished or
/// the filesystem reports no mtime (treated as "changed").
fn file_stamp(path: &Path) -> Option<FileStamp> {
    let meta = std::fs::metadata(path).ok()?;
    Some((meta.modified().ok()?, meta.len()))
}

/// The fingerprint → snapshot-file index, extended by refresh passes.
#[derive(Default)]
struct Index {
    /// fingerprint → snapshot files of that program, in deterministic
    /// (sorted-path) order so merge MRU priority is stable.
    by_fingerprint: FxHashMap<u64, Vec<PathBuf>>,
    /// shape fingerprint → value fingerprints of programs whose
    /// snapshots carry that shape (v6+ files only). Shape 0
    /// (value-pinned) is never indexed.
    by_shape: FxHashMap<u64, Vec<u64>>,
    /// Every path indexed so far, so a refresh scan can cheaply tell
    /// new files from known ones.
    files: FxHashSet<PathBuf>,
    /// Last-seen (mtime, length) per indexed path, so refresh skips
    /// files that have not changed since the previous scan.
    stamps: FxHashMap<PathBuf, FileStamp>,
}

impl Index {
    /// Index `path` under `fingerprint` (idempotent), record its
    /// current stamp, and — when the file carries a nonzero `shape` —
    /// register the fingerprint under that shape for cross-seed
    /// resolution.
    fn add(&mut self, fingerprint: u64, shape: u64, path: PathBuf) {
        let paths = self.by_fingerprint.entry(fingerprint).or_default();
        if !paths.contains(&path) {
            paths.push(path.clone());
            paths.sort();
        }
        if let Some(stamp) = file_stamp(&path) {
            self.stamps.insert(path.clone(), stamp);
        } else {
            self.stamps.remove(&path);
        }
        self.files.insert(path);
        self.add_shape(fingerprint, shape);
    }

    /// Register `fingerprint` under a nonzero shape (idempotent, sorted
    /// for deterministic donor order).
    fn add_shape(&mut self, fingerprint: u64, shape: u64) {
        if shape == 0 {
            return;
        }
        let fps = self.by_shape.entry(shape).or_default();
        if !fps.contains(&fingerprint) {
            fps.push(fingerprint);
            fps.sort_unstable();
        }
    }

    /// Value fingerprints sharing `shape`, excluding `not` (the asking
    /// program itself).
    fn shape_donors(&self, shape: u64, not: u64) -> Vec<u64> {
        if shape == 0 {
            return Vec::new();
        }
        self.by_shape
            .get(&shape)
            .map(|fps| fps.iter().copied().filter(|fp| *fp != not).collect())
            .unwrap_or_default()
    }

    /// Drop `path` from the index (compaction deleted it).
    fn forget(&mut self, fingerprint: u64, path: &Path) {
        if let Some(paths) = self.by_fingerprint.get_mut(&fingerprint) {
            paths.retain(|p| p != path);
            if paths.is_empty() {
                self.by_fingerprint.remove(&fingerprint);
            }
        }
        self.files.remove(path);
        self.stamps.remove(path);
    }
}

/// A concurrent, sharded cache of warm RTMs keyed by program
/// fingerprint, backed by a directory of `.tlrsnap` files. See the
/// crate docs for the full model.
pub struct SnapshotRegistry {
    config: RegistryConfig,
    /// The snapshot directory, rescanned by [`SnapshotRegistry::refresh`].
    dir: PathBuf,
    index: RwLock<Index>,
    /// Serializes [`SnapshotRegistry::refresh`] passes (see its docs).
    refresh_serial: Mutex<()>,
    shards: Vec<Mutex<Shard>>,
    evicted: AtomicU64,
    unknown: AtomicU64,
    /// Shape lookups that found same-shape donors but failed to pool
    /// them (see [`RegistryStats::shape_rejects`]).
    shape_rejects: AtomicU64,
}

/// Scan `dir` for snapshot files, sorted for deterministic merge order.
fn scan_snapshot_files(dir: &Path) -> Result<Vec<PathBuf>, ServeError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(PersistError::from)?
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(PersistError::from)?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|p| {
            p.is_file()
                && p.extension()
                    .and_then(|e| e.to_str())
                    .is_some_and(|e| e.eq_ignore_ascii_case(SNAPSHOT_FILE_EXT))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

impl SnapshotRegistry {
    /// Build a registry over `dir`: every `*.tlrsnap` file is indexed
    /// by the fingerprint in its header (a 16-byte read per file; no
    /// traces are deserialized until a program is actually fetched).
    /// Several files may carry the same fingerprint — they are merged
    /// at first fetch. Non-snapshot extensions are ignored; a file with
    /// the snapshot extension but an invalid header is a hard error.
    pub fn open(dir: &Path, config: RegistryConfig) -> Result<Self, ServeError> {
        let mut index = Index::default();
        for path in scan_snapshot_files(dir)? {
            let (fingerprint, shape) = peek_snapshot_identity(&path)?;
            index.add(fingerprint, shape, path);
        }
        Ok(Self {
            shards: (0..config.shards.max(1))
                .map(|_| Mutex::default())
                .collect(),
            config,
            dir: dir.to_path_buf(),
            index: RwLock::new(index),
            refresh_serial: Mutex::new(()),
            evicted: AtomicU64::new(0),
            unknown: AtomicU64::new(0),
            shape_rejects: AtomicU64::new(0),
        })
    }

    /// The snapshot directory this registry was opened over.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Fingerprints the snapshot directory holds state for (sorted).
    pub fn fingerprints(&self) -> Vec<u64> {
        let index = self.index.read().unwrap();
        let mut fps: Vec<u64> = index.by_fingerprint.keys().copied().collect();
        fps.sort_unstable();
        fps
    }

    /// Snapshot files indexed for `fingerprint`.
    pub fn paths(&self, fingerprint: u64) -> Vec<PathBuf> {
        self.index
            .read()
            .unwrap()
            .by_fingerprint
            .get(&fingerprint)
            .cloned()
            .unwrap_or_default()
    }

    /// Rescan the snapshot directory for files that appeared (or
    /// changed) after [`open`](SnapshotRegistry::open) or the last
    /// refresh: new and changed files are validated, indexed, and any
    /// whose program is currently *resident* are merged into the
    /// resident entry immediately — so a long-lived registry (or a
    /// `tlrd` daemon) picks up snapshots other processes drop into the
    /// directory without a restart. Known files whose (mtime, length)
    /// stamp matches the previous scan are counted as `unchanged` and
    /// not re-read at all. Delta segments contribute their changed
    /// groups (an absorb merge can only add state; tombstones matter
    /// only to the merge-on-load path).
    ///
    /// Ordering is deliberate, per file: a new file is **fully loaded
    /// and validated before it is indexed**, so an unreadable,
    /// mid-write, or damaged file is skipped (and counted) this pass
    /// and retried on the next one instead of poisoning later fetches;
    /// and a resident entry absorbs the new state **before** the file
    /// becomes visible to [`get`](SnapshotRegistry::get), so a racing
    /// fetch can never load a file that is then merged a second time.
    /// Refresh passes are serialized against each other for the same
    /// reason.
    pub fn refresh(&self) -> Result<RefreshOutcome, ServeError> {
        let _pass = self.refresh_serial.lock().unwrap();
        let on_disk = scan_snapshot_files(&self.dir)?;
        let mut outcome = RefreshOutcome::default();
        // Partition the scan against the index: unseen paths, known
        // paths whose stamp moved, and stamp-stable paths (skipped
        // without a read).
        let (new_paths, changed_paths) = {
            let index = self.index.read().unwrap();
            let mut new_paths = Vec::new();
            let mut changed_paths = Vec::new();
            for path in on_disk {
                if !index.files.contains(&path) {
                    new_paths.push(path);
                } else if file_stamp(&path)
                    .is_some_and(|fresh| index.stamps.get(&path) == Some(&fresh))
                {
                    outcome.unchanged += 1;
                } else {
                    changed_paths.push(path);
                }
            }
            (new_paths, changed_paths)
        };
        if new_paths.is_empty() && changed_paths.is_empty() {
            return Ok(outcome);
        }
        // Validation loads happen outside every lock: disk latency must
        // not stall index readers or the shards.
        let mut discovered: FxHashMap<u64, Vec<(PathBuf, RtmSnapshot, bool)>> =
            FxHashMap::default();
        for (path, known) in new_paths
            .into_iter()
            .map(|p| (p, false))
            .chain(changed_paths.into_iter().map(|p| (p, true)))
        {
            match load_snapshot_payload(&path, None) {
                Ok((fingerprint, SnapshotPayload::Full(snapshot))) => discovered
                    .entry(fingerprint)
                    .or_default()
                    .push((path, snapshot, known)),
                Ok((fingerprint, SnapshotPayload::Delta(delta))) => {
                    let partial = RtmSnapshot {
                        config: delta.config,
                        traces: delta.traces,
                        meta: delta.meta,
                        shape: 0,
                    };
                    discovered
                        .entry(fingerprint)
                        .or_default()
                        .push((path, partial, known));
                }
                Err(_) => outcome.skipped += 1,
            }
        }
        // Per fingerprint: pool the new state, fold it into the
        // resident entry if there is one, then (and only then) index
        // and stamp — a load error leaves a changed file's old stamp in
        // place so it is retried. A failure affects its own fingerprint
        // only; the first one is reported after every other fingerprint
        // has been processed.
        let mut first_err: Option<ServeError> = None;
        for (fingerprint, entries) in discovered {
            let mut paths_known = Vec::with_capacity(entries.len());
            let mut snapshots = Vec::with_capacity(entries.len());
            for (path, snapshot, known) in entries {
                paths_known.push((path, snapshot.shape, known));
                snapshots.push(snapshot);
            }
            let pooled = match self.pool(&snapshots) {
                Ok(pooled) => pooled,
                Err(e) => {
                    outcome.skipped += paths_known.len() as u64;
                    first_err.get_or_insert(e.into());
                    continue;
                }
            };
            match self.merge_into_resident(fingerprint, &pooled) {
                Ok(true) => outcome.refreshed += 1,
                Ok(false) => {}
                Err(e) => {
                    outcome.skipped += paths_known.len() as u64;
                    first_err.get_or_insert(e);
                    continue;
                }
            }
            let mut index = self.index.write().unwrap();
            for (path, shape, known) in paths_known {
                index.add(fingerprint, shape, path);
                if !known {
                    outcome.new_files += 1;
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(outcome),
        }
    }

    /// Pool several snapshots under the registry's policy — the one
    /// merge rule every path (load, refresh, publish) shares.
    fn pool(&self, snapshots: &[RtmSnapshot]) -> Result<RtmSnapshot, tlr_core::MergeError> {
        RtmSnapshot::merge_with(snapshots, self.config.policy)
    }

    /// Import a snapshot into a resident RTM under the registry's policy.
    fn import(&self, snapshot: &RtmSnapshot) -> ReuseTraceMemory {
        ReuseTraceMemory::import_with(snapshot, self.config.policy)
    }

    fn shard_of(&self, fingerprint: u64) -> &Mutex<Shard> {
        // The fingerprint is already a hash; remix so shard choice does
        // not depend on its low bits alone.
        let mixed = (fingerprint ^ (fingerprint >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> 32) as usize % self.shards.len()]
    }

    /// The warm reuse state for `fingerprint`: the resident entry on a
    /// hit — whether it became resident via a disk load or via
    /// [`publish`](SnapshotRegistry::publish) — otherwise loaded (and,
    /// when several files exist, merged) from the snapshot directory.
    /// `Ok(None)` when the program is neither resident nor on disk —
    /// the caller runs cold.
    ///
    /// The returned [`RtmSnapshot`] is shared (`Arc`) and immutable;
    /// feed it to [`tlr_core::TraceReuseEngine::new_warm`].
    pub fn get(&self, fingerprint: u64) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        let snap = self.fetch(fingerprint, true)?;
        if snap.is_none() {
            self.unknown.fetch_add(1, Ordering::Relaxed);
        }
        Ok(snap)
    }

    /// [`get`](SnapshotRegistry::get) without counting an unknown, and
    /// with hits and misses counted only when `count` is set. Shape
    /// resolution reads donors and probes the exact fingerprint through
    /// this, so one `get_by_shape` counts one fetch.
    fn fetch(&self, fingerprint: u64, count: bool) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        let hit = u64::from(count);
        // Resident state first: a program that only ever arrived via
        // publish-back has no snapshot file but must still be served.
        {
            let mut shard = self.shard_of(fingerprint).lock().unwrap();
            if let Some(entry) = shard.touch(fingerprint) {
                entry.stats.hits += hit;
                return Ok(Some(Arc::clone(&entry.snap)));
            }
        }
        let paths = self.paths(fingerprint);
        if paths.is_empty() {
            return Ok(None);
        }
        // Miss: load and merge outside the lock, under the configured
        // policy.
        let (_, merged) =
            load_merged_snapshots_with(&paths, Some(fingerprint), self.config.policy)?;
        // The loaded state *is* the durable state: seed the spill
        // bookkeeping from it so the first publish-back spills a delta
        // against these files instead of a full rewrite.
        let spill = SpillState {
            groups: group_digests(&merged)?,
            next_seq: paths
                .iter()
                .filter_map(|p| delta_seq_from_path(p))
                .max()
                .map_or(1, |s| s + 1),
            delta_files: paths
                .iter()
                .filter(|p| delta_seq_from_path(p).is_some())
                .cloned()
                .collect(),
        };
        let loaded = Entry {
            rtm: self.import(&merged),
            stats: EntryStats {
                misses: hit,
                resident_traces: merged.len() as u64,
                resident_hits: merged.total_hits(),
                ..EntryStats::default()
            },
            snap: Arc::new(merged),
            image: None,
            generation: 0,
            spill: Some(spill),
            last_touch: 0,
        };
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        if let Some(entry) = shard.touch(fingerprint) {
            // A racing fetch resolved the miss first; use its entry.
            entry.stats.hits += hit;
            return Ok(Some(Arc::clone(&entry.snap)));
        }
        shard.tick += 1;
        let tick = shard.tick;
        let snap = Arc::clone(&loaded.snap);
        shard.entries.insert(
            fingerprint,
            Entry {
                last_touch: tick,
                ..loaded
            },
        );
        let evicted = shard.enforce_bound(self.config.max_resident_per_shard);
        drop(shard);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(Some(snap))
    }

    /// [`get`](SnapshotRegistry::get), falling back to *shape
    /// resolution* when the exact fingerprint is unknown: programs
    /// whose published snapshots carry the same nonzero `shape`
    /// fingerprint (same code, different data image) donate their warm
    /// state, pooled under the registry's policy and installed as a
    /// resident entry under `fingerprint`. The shared traces are only
    /// *candidates* — the RTM's live-in value comparison validates
    /// every reuse at fetch time, so a donor's data-dependent traces
    /// can never corrupt the client's run.
    ///
    /// `Ok(None)` when neither the fingerprint nor any same-shape donor
    /// resolves. Donors that exist but fail to load or pool are not a
    /// silent miss: each such fetch is logged, counted in
    /// [`RegistryStats::shape_rejects`], and still returns `Ok(None)`.
    ///
    /// One call counts one fetch: a hit or a miss when the fingerprint
    /// itself resolves, a miss plus a shape hit on the new entry when
    /// donors resolve it (the exact probe and the donor reads are not
    /// counted), and an unknown when nothing resolves.
    pub fn get_by_shape(
        &self,
        fingerprint: u64,
        shape: u64,
    ) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        if let Some(snap) = self.fetch(fingerprint, true)? {
            return Ok(Some(snap));
        }
        let resolved = self.resolve_shape(fingerprint, shape)?;
        if resolved.is_none() {
            self.unknown.fetch_add(1, Ordering::Relaxed);
        }
        Ok(resolved)
    }

    /// The shape half of [`get_by_shape`](SnapshotRegistry::get_by_shape),
    /// for a fingerprint neither resident nor on disk.
    fn resolve_shape(
        &self,
        fingerprint: u64,
        shape: u64,
    ) -> Result<Option<Arc<RtmSnapshot>>, ServeError> {
        if shape == 0 {
            return Ok(None);
        }
        let donors = self.index.read().unwrap().shape_donors(shape, fingerprint);
        if donors.is_empty() {
            return Ok(None);
        }
        // Pool every donor's warm state (resident or disk-loaded) under
        // the registry's policy. A donor that fails to load or a pool
        // that fails to merge is a *shape reject* — the fetch falls
        // back to cold, but visibly.
        let mut pooled_inputs = Vec::with_capacity(donors.len());
        for donor in &donors {
            match self.fetch(*donor, false) {
                Ok(Some(snap)) => pooled_inputs.push((*snap).clone()),
                Ok(None) => {}
                Err(e) => {
                    eprintln!(
                        "tlr-serve: shape {shape:#018x} donor {donor:#018x} \
                         failed to load for {fingerprint:#018x}: {e}"
                    );
                    self.shape_rejects.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                }
            }
        }
        if pooled_inputs.is_empty() {
            eprintln!(
                "tlr-serve: shape {shape:#018x} has {} indexed donor(s) for \
                 {fingerprint:#018x} but none produced warm state",
                donors.len()
            );
            self.shape_rejects.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let mut merged = match self.pool(&pooled_inputs) {
            Ok(merged) => merged,
            Err(e) => {
                eprintln!(
                    "tlr-serve: shape {shape:#018x} donors failed to pool for \
                     {fingerprint:#018x}: {e}"
                );
                self.shape_rejects.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        };
        merged.shape = shape;
        // Install under the *client's* fingerprint so its own
        // publish-backs land on this entry. No spill seeding: the donor
        // files belong to the donors, and this entry's first spill must
        // write its own base.
        let entry = Entry {
            rtm: self.import(&merged),
            stats: EntryStats {
                misses: 1,
                shape_hits: 1,
                resident_traces: merged.len() as u64,
                resident_hits: merged.total_hits(),
                ..EntryStats::default()
            },
            snap: Arc::new(merged),
            image: None,
            generation: 0,
            spill: None,
            last_touch: 0,
        };
        self.index.write().unwrap().add_shape(fingerprint, shape);
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        if let Some(existing) = shard.touch(fingerprint) {
            // A racing fetch resolved this fingerprint first.
            existing.stats.hits += 1;
            return Ok(Some(Arc::clone(&existing.snap)));
        }
        shard.tick += 1;
        let tick = shard.tick;
        let snap = Arc::clone(&entry.snap);
        shard.entries.insert(
            fingerprint,
            Entry {
                last_touch: tick,
                ..entry
            },
        );
        let evicted = shard.enforce_bound(self.config.max_resident_per_shard);
        drop(shard);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(Some(snap))
    }

    /// The serialized snapshot file image for `fingerprint` — the exact
    /// bytes [`tlr_persist::save_snapshot`] would write, and what the
    /// `tlrd` `Snapshot` reply embeds — from a per-entry cache, so
    /// repeated fetches share one immutable buffer instead of
    /// re-serializing the resident state per call. The image is built
    /// at most once per resident state: publish/refresh merges
    /// invalidate it (and bump the entry generation, so an image
    /// serialized outside the lock is never cached over newer state).
    /// `Ok(None)` mirrors [`get`](SnapshotRegistry::get), and so does the
    /// accounting: one call counts one fetch (a hit, a miss or an
    /// unknown).
    pub fn get_image(&self, fingerprint: u64) -> Result<Option<Arc<[u8]>>, ServeError> {
        self.image(fingerprint, None)
    }

    /// [`get_by_shape`](SnapshotRegistry::get_by_shape), answered as a
    /// cached snapshot image like [`get_image`](SnapshotRegistry::get_image).
    /// One call counts one fetch: the image read after shape resolution
    /// is not counted again.
    pub fn get_image_by_shape(
        &self,
        fingerprint: u64,
        shape: u64,
    ) -> Result<Option<Arc<[u8]>>, ServeError> {
        match self.get_by_shape(fingerprint, shape)? {
            Some(snap) => self.image(fingerprint, Some(snap)),
            None => Ok(None),
        }
    }

    /// The image behind [`get_image`](SnapshotRegistry::get_image).
    /// `resolved` is the state a counted fetch has already returned for
    /// `fingerprint`; when it is given, nothing is counted again, and
    /// if the entry was evicted meanwhile its bytes are serialized
    /// uncached.
    fn image(
        &self,
        fingerprint: u64,
        mut resolved: Option<Arc<RtmSnapshot>>,
    ) -> Result<Option<Arc<[u8]>>, ServeError> {
        loop {
            let staged = {
                let mut shard = self.shard_of(fingerprint).lock().unwrap();
                match shard.touch(fingerprint) {
                    Some(entry) => {
                        if resolved.is_none() {
                            entry.stats.hits += 1;
                            resolved = Some(Arc::clone(&entry.snap));
                        }
                        if let Some(image) = &entry.image {
                            entry.stats.image_hits += 1;
                            return Ok(Some(Arc::clone(image)));
                        }
                        Some((Arc::clone(&entry.snap), entry.generation))
                    }
                    None => None,
                }
            };
            let Some((snap, generation)) = staged else {
                if let Some(snap) = &resolved {
                    // Evicted since the counted fetch: the bytes are
                    // still the right answer, just not cacheable.
                    return Ok(Some(serialize_image(fingerprint, snap)?));
                }
                // Not resident: run the ordinary load-or-unknown path
                // (which does its own hit/miss accounting), then retry
                // the image build against the now-resident entry.
                match self.get(fingerprint)? {
                    Some(snap) => resolved = Some(snap),
                    None => return Ok(None),
                }
                continue;
            };
            // Serialize outside the shard lock — a large snapshot must
            // not stall other fetches on this shard.
            let image = serialize_image(fingerprint, &snap)?;
            let mut shard = self.shard_of(fingerprint).lock().unwrap();
            match shard.entries.get_mut(&fingerprint) {
                Some(entry) if entry.generation == generation => {
                    entry.image = Some(Arc::clone(&image));
                    entry.stats.image_builds += 1;
                    return Ok(Some(image));
                }
                // The state moved while we serialized; rebuild.
                Some(_) => continue,
                // Evicted while we serialized: the bytes are still the
                // right answer, just not cacheable.
                None => return Ok(Some(image)),
            }
        }
    }

    /// Persist the resident entry for `fingerprint` incrementally:
    /// the first spill of a publish-born entry writes a full base
    /// file; later spills diff the resident state against the
    /// per-group digests of what is already durable and append a
    /// delta segment carrying only changed groups (plus tombstones
    /// for emptied ones). Once
    /// [`RegistryConfig::compact_threshold`] deltas accumulate, the
    /// next spill folds everything into a fresh base and deletes the
    /// superseded files (LSM level-0 style). An entry loaded from
    /// disk seeds its digests from the loaded state, so its first
    /// spill is already a delta. No-ops (with
    /// [`SpillKind::NoChange`]) when the program is not resident or
    /// nothing changed.
    ///
    /// Spills serialize against [`refresh`](SnapshotRegistry::refresh)
    /// passes, so a spilled file is always indexed and stamped before a
    /// scan can see it — the registry never re-absorbs its own spill.
    pub fn spill(&self, fingerprint: u64) -> Result<SpillOutcome, ServeError> {
        let _pass = self.refresh_serial.lock().unwrap();
        let (snap, spill_state) = {
            let mut shard = self.shard_of(fingerprint).lock().unwrap();
            let Some(entry) = shard.entries.get_mut(&fingerprint) else {
                return Ok(SpillOutcome::default());
            };
            (Arc::clone(&entry.snap), entry.spill.clone())
        };
        let groups = group_digests(&snap)?;
        let Some(state) = spill_state else {
            // First durable representation: a full base file.
            let path = self.dir.join(base_file_name(fingerprint));
            let bytes = save_base(&path, fingerprint, &snap)?;
            {
                let mut index = self.index.write().unwrap();
                index.add(fingerprint, snap.shape, path.clone());
            }
            self.set_spill_state(
                fingerprint,
                SpillState {
                    groups,
                    next_seq: 1,
                    delta_files: Vec::new(),
                },
            );
            return Ok(SpillOutcome {
                kind: SpillKind::Base,
                bytes_written: bytes,
                path: Some(path),
                ..SpillOutcome::default()
            });
        };
        let delta = diff_snapshots(&state.groups, &snap, state.next_seq)?;
        if delta.is_empty() {
            return Ok(SpillOutcome::default());
        }
        if state.delta_files.len() + 1 >= self.config.compact_threshold.max(1) {
            return self.compact_resident(fingerprint, &snap, groups);
        }
        let path = self.dir.join(delta_file_name(fingerprint, state.next_seq));
        let delta_groups = delta
            .traces
            .iter()
            .map(|t| t.start_pc)
            .collect::<std::collections::BTreeSet<u32>>()
            .len() as u64;
        let tombstones = delta.tombstones.len() as u64;
        let tmp = path.with_extension("tmp");
        save_delta_segment(
            &tmp,
            fingerprint,
            &delta,
            SnapshotWriteOptions::SPILL.compress,
        )?;
        std::fs::rename(&tmp, &path).map_err(PersistError::from)?;
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        {
            let mut index = self.index.write().unwrap();
            // Delta segments carry no shape; the fingerprint's shape
            // mapping (if any) was recorded when its base was indexed.
            index.add(fingerprint, 0, path.clone());
        }
        let mut delta_files = state.delta_files;
        delta_files.push(path.clone());
        self.set_spill_state(
            fingerprint,
            SpillState {
                groups,
                next_seq: state.next_seq + 1,
                delta_files,
            },
        );
        Ok(SpillOutcome {
            kind: SpillKind::Delta,
            bytes_written: bytes,
            delta_groups,
            tombstones,
            path: Some(path),
            ..SpillOutcome::default()
        })
    }

    /// Fold the resident state into a fresh base file and delete every
    /// superseded file for `fingerprint`. Caller holds `refresh_serial`.
    fn compact_resident(
        &self,
        fingerprint: u64,
        snap: &RtmSnapshot,
        groups: BTreeMap<u32, u64>,
    ) -> Result<SpillOutcome, ServeError> {
        let base = self.dir.join(base_file_name(fingerprint));
        let old_paths: Vec<PathBuf> = self
            .paths(fingerprint)
            .into_iter()
            .filter(|p| *p != base)
            .collect();
        let bytes = save_base(&base, fingerprint, snap)?;
        {
            let mut index = self.index.write().unwrap();
            for path in &old_paths {
                index.forget(fingerprint, path);
            }
            index.add(fingerprint, snap.shape, base.clone());
        }
        // Unindexed first, deleted second: a racing fetch can no longer
        // pick up a path that is about to vanish.
        let mut removed = 0;
        for path in &old_paths {
            if std::fs::remove_file(path).is_ok() {
                removed += 1;
            }
        }
        self.set_spill_state(
            fingerprint,
            SpillState {
                groups,
                next_seq: 1,
                delta_files: Vec::new(),
            },
        );
        Ok(SpillOutcome {
            kind: SpillKind::Compacted,
            bytes_written: bytes,
            removed_files: removed,
            path: Some(base),
            ..SpillOutcome::default()
        })
    }

    /// Replace the spill bookkeeping for `fingerprint`, if it is still
    /// resident (a concurrent eviction simply drops the state — the
    /// next load reseeds it from disk, which now includes the spill).
    fn set_spill_state(&self, fingerprint: u64, state: SpillState) {
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        if let Some(entry) = shard.entries.get_mut(&fingerprint) {
            entry.spill = Some(state);
        }
    }

    /// Merge `snapshot` into an already-locked resident `entry` under
    /// the registry policy, refreshing its cached export and gauges.
    fn merge_into_entry(
        &self,
        entry: &mut Entry,
        snapshot: &RtmSnapshot,
    ) -> Result<(), ServeError> {
        if entry.rtm.config() != snapshot.config {
            return Err(tlr_core::MergeError::GeometryMismatch {
                first: entry.rtm.config(),
                other: snapshot.config,
            }
            .into());
        }
        // The proper interleaved union, not a sequential replay: a
        // near-capacity publish must not wholesale-evict the pooled
        // hot state of every prior run. The configured policy
        // decides what survives contention.
        //
        // The resident RTM's export is shape-less (an RTM holds no
        // program identity); restamp it from the entry's snapshot so a
        // publish-back cannot silently demote the entry to value-pinned.
        let mut resident = entry.rtm.export();
        resident.shape = entry.snap.shape;
        let merged = self.pool(&[resident, snapshot.clone()])?;
        entry.rtm = self.import(&merged);
        entry.stats.resident_traces = merged.len() as u64;
        entry.stats.resident_hits = merged.total_hits();
        entry.snap = Arc::new(merged);
        entry.invalidate_image();
        entry.stats.refreshes += 1;
        Ok(())
    }

    /// Merge `snapshot` into the resident entry for `fingerprint`, if
    /// one exists. Returns whether the program was resident. Shared by
    /// [`publish`](SnapshotRegistry::publish) and
    /// [`refresh`](SnapshotRegistry::refresh).
    fn merge_into_resident(
        &self,
        fingerprint: u64,
        snapshot: &RtmSnapshot,
    ) -> Result<bool, ServeError> {
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        let Some(entry) = shard.touch(fingerprint) else {
            return Ok(false);
        };
        self.merge_into_entry(entry, snapshot)?;
        Ok(true)
    }

    /// Contribute a finished run's RTM export back to the registry:
    /// merged into the resident entry (creating one if the program is
    /// not resident), so the *next* fetch serves the pooled state of
    /// every run so far. In-memory only — writing refreshed snapshots
    /// back to the directory is a planned follow-up.
    pub fn publish(&self, fingerprint: u64, snapshot: &RtmSnapshot) -> Result<(), ServeError> {
        // Record the shape mapping first (index lock and shard lock are
        // never held together), so a later `get_by_shape` from a
        // data-varied client can discover this entry as a donor.
        if snapshot.shape != 0 {
            self.index
                .write()
                .unwrap()
                .add_shape(fingerprint, snapshot.shape);
        }
        let mut shard = self.shard_of(fingerprint).lock().unwrap();
        if let Some(entry) = shard.touch(fingerprint) {
            return self.merge_into_entry(entry, snapshot);
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.entries.insert(
            fingerprint,
            Entry {
                rtm: self.import(snapshot),
                snap: Arc::new(snapshot.clone()),
                image: None,
                generation: 0,
                // No durable representation yet: the first spill writes
                // a full base file.
                spill: None,
                stats: EntryStats {
                    refreshes: 1,
                    resident_traces: snapshot.len() as u64,
                    resident_hits: snapshot.total_hits(),
                    ..EntryStats::default()
                },
                last_touch: tick,
            },
        );
        let evicted = shard.enforce_bound(self.config.max_resident_per_shard);
        drop(shard);
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Behaviour counters for one resident program, `None` if it is not
    /// (or no longer) resident.
    pub fn entry_stats(&self, fingerprint: u64) -> Option<EntryStats> {
        let shard = self.shard_of(fingerprint).lock().unwrap();
        shard.entries.get(&fingerprint).map(|e| e.stats)
    }

    /// Registry-wide aggregates. Counters of evicted entries are folded
    /// in, so hits/misses/refreshes are lifetime totals.
    pub fn stats(&self) -> RegistryStats {
        let mut stats = RegistryStats {
            evicted: self.evicted.load(Ordering::Relaxed),
            unknown: self.unknown.load(Ordering::Relaxed),
            shape_rejects: self.shape_rejects.load(Ordering::Relaxed),
            ..RegistryStats::default()
        };
        for shard in &self.shards {
            let shard = shard.lock().unwrap();
            stats.resident += shard.entries.len() as u64;
            stats.hits += shard.retired.hits;
            stats.misses += shard.retired.misses;
            stats.refreshes += shard.retired.refreshes;
            stats.image_hits += shard.retired.image_hits;
            stats.image_builds += shard.retired.image_builds;
            stats.image_invalidations += shard.retired.image_invalidations;
            stats.shape_hits += shard.retired.shape_hits;
            for entry in shard.entries.values() {
                stats.hits += entry.stats.hits;
                stats.misses += entry.stats.misses;
                stats.refreshes += entry.stats.refreshes;
                stats.image_hits += entry.stats.image_hits;
                stats.image_builds += entry.stats.image_builds;
                stats.image_invalidations += entry.stats.image_invalidations;
                stats.shape_hits += entry.stats.shape_hits;
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tlr_core::{RtmConfig, TraceRecord};
    use tlr_isa::Loc;
    use tlr_persist::save_snapshot;

    fn rec(pc: u32, v: u64) -> TraceRecord {
        TraceRecord {
            start_pc: pc,
            next_pc: pc + 2,
            len: 2,
            ins: vec![(Loc::IntReg(1), v)].into_boxed_slice(),
            outs: vec![(Loc::IntReg(2), v * 3)].into_boxed_slice(),
            mix: Default::default(),
        }
    }

    fn snapshot_of(records: &[TraceRecord]) -> RtmSnapshot {
        let mut rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        for r in records {
            rtm.insert(r.clone());
        }
        rtm.export()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("tlr-serve-registry-unit")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn get_warm_loads_and_caches() {
        let dir = temp_dir("warm-load");
        save_snapshot(&dir.join("p1.tlrsnap"), 1, &snapshot_of(&[rec(8, 5)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.fingerprints(), vec![1]);

        let first = registry.get(1).unwrap().expect("snapshot on disk");
        assert_eq!(first.len(), 1);
        let second = registry.get(1).unwrap().unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "second fetch not served resident"
        );
        let stats = registry.entry_stats(1).unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));

        assert!(registry.get(999).unwrap().is_none());
        assert_eq!(registry.stats().unknown, 1);
    }

    #[test]
    fn multiple_files_for_one_fingerprint_merge_on_load() {
        let dir = temp_dir("pooled");
        save_snapshot(&dir.join("run-a.tlrsnap"), 7, &snapshot_of(&[rec(8, 1)])).unwrap();
        save_snapshot(
            &dir.join("run-b.tlrsnap"),
            7,
            &snapshot_of(&[rec(8, 2), rec(40, 3)]),
        )
        .unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.paths(7).len(), 2);
        let snap = registry.get(7).unwrap().unwrap();
        assert_eq!(snap.len(), 3, "union of both runs");
    }

    #[test]
    fn publish_refreshes_resident_state() {
        let dir = temp_dir("publish");
        save_snapshot(&dir.join("p.tlrsnap"), 3, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.get(3).unwrap().unwrap().len(), 1);

        registry
            .publish(3, &snapshot_of(&[rec(8, 1), rec(8, 9)]))
            .unwrap();
        assert_eq!(registry.get(3).unwrap().unwrap().len(), 2);
        let stats = registry.entry_stats(3).unwrap();
        assert_eq!(stats.refreshes, 1);

        // Geometry disagreement is rejected loudly.
        let other = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_4K).export();
        assert!(matches!(
            registry.publish(3, &other),
            Err(ServeError::Merge(
                tlr_core::MergeError::GeometryMismatch { .. }
            ))
        ));

        // Publishing an unknown program makes it resident, and `get`
        // serves it even though no snapshot file exists for it.
        registry.publish(77, &snapshot_of(&[rec(4, 4)])).unwrap();
        assert_eq!(registry.entry_stats(77).unwrap().refreshes, 1);
        let unknown_before = registry.stats().unknown;
        let served = registry
            .get(77)
            .unwrap()
            .expect("published entry not served");
        assert_eq!(served.len(), 1);
        assert_eq!(registry.entry_stats(77).unwrap().hits, 1);
        assert_eq!(registry.stats().unknown, unknown_before);
    }

    #[test]
    fn lru_bound_evicts_least_recently_fetched() {
        let dir = temp_dir("lru");
        for fp in 1..=3u64 {
            save_snapshot(
                &dir.join(format!("p{fp}.tlrsnap")),
                fp,
                &snapshot_of(&[rec(8, fp)]),
            )
            .unwrap();
        }
        let registry = SnapshotRegistry::open(
            &dir,
            RegistryConfig {
                shards: 1,
                max_resident_per_shard: 2,
                ..RegistryConfig::default()
            },
        )
        .unwrap();
        registry.get(1).unwrap();
        registry.get(2).unwrap();
        registry.get(1).unwrap(); // 2 is now LRU
        registry.get(3).unwrap(); // evicts 2
        let stats = registry.stats();
        assert_eq!(stats.resident, 2);
        assert_eq!(stats.evicted, 1);
        assert!(registry.entry_stats(2).is_none());
        assert!(registry.entry_stats(1).is_some());
        // Lifetime hit/miss totals include the evicted entry's.
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        // Refetching 2 reloads from disk.
        assert!(registry.get(2).unwrap().is_some());
        assert_eq!(registry.stats().misses, 4);
    }

    #[test]
    fn residency_gauges_expose_hit_weighted_state() {
        let dir = temp_dir("gauges");
        // A producer whose traces have real hit history.
        let mut rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(8, 1));
        rtm.insert(rec(8, 2));
        for _ in 0..3 {
            assert!(rtm
                .lookup(8, |l| if l == tlr_isa::Loc::IntReg(1) { 1 } else { 0 })
                .is_some());
        }
        save_snapshot(&dir.join("hot.tlrsnap"), 5, &rtm.export()).unwrap();

        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        registry.get(5).unwrap().unwrap();
        let stats = registry.entry_stats(5).unwrap();
        assert_eq!(stats.resident_traces, 2);
        assert_eq!(stats.resident_hits, 3, "persisted hit history lost");

        // Publish-back folds in more observed reuse.
        let mut update = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        update.insert(rec(8, 1));
        for _ in 0..2 {
            assert!(update
                .lookup(8, |l| if l == tlr_isa::Loc::IntReg(1) { 1 } else { 0 })
                .is_some());
        }
        registry.publish(5, &update.export()).unwrap();
        let stats = registry.entry_stats(5).unwrap();
        assert_eq!(stats.resident_traces, 2);
        assert_eq!(stats.resident_hits, 5, "publish must absorb hit history");
    }

    #[test]
    fn policy_is_applied_to_pooling() {
        // Under capacity contention (per_pc = 4 at one PC), an LFU
        // registry keeps all of the publisher's hot traces over the
        // on-disk cold ones; an LRU registry's interleaved recency
        // merge keeps only half of them.
        let dir = temp_dir("policy");
        let cold: Vec<TraceRecord> = (0..4u64).map(|v| rec(8, v)).collect();
        save_snapshot(&dir.join("cold.tlrsnap"), 9, &snapshot_of(&cold)).unwrap();

        let mut hot_rtm = tlr_core::ReuseTraceMemory::new(RtmConfig::RTM_512);
        for v in 100..104u64 {
            hot_rtm.insert(rec(8, v));
            for _ in 0..4 {
                assert!(hot_rtm
                    .lookup(8, |l| if l == tlr_isa::Loc::IntReg(1) { v } else { 0 })
                    .is_some());
            }
        }
        let hot = hot_rtm.export();

        for (policy, expect_hot_survivors) in
            [(ReplacementPolicy::Lfu, 4), (ReplacementPolicy::Lru, 2)]
        {
            let registry = SnapshotRegistry::open(
                &dir,
                RegistryConfig {
                    policy,
                    ..RegistryConfig::default()
                },
            )
            .unwrap();
            registry.get(9).unwrap().unwrap();
            registry.publish(9, &hot).unwrap();
            let snap = registry.get(9).unwrap().unwrap();
            let hot_survivors = snap.traces.iter().filter(|t| t.ins[0].1 >= 100).count();
            assert_eq!(
                hot_survivors, expect_hot_survivors,
                "{policy}: hot traces lost in publish merge"
            );
            if policy == ReplacementPolicy::Lfu {
                // LFU keeps observed-reuse weight across the merge.
                assert_eq!(registry.entry_stats(9).unwrap().resident_hits, 16);
            }
        }
    }

    #[test]
    fn refresh_indexes_new_files_and_updates_resident_entries() {
        let dir = temp_dir("refresh");
        save_snapshot(&dir.join("p1.tlrsnap"), 1, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        // Nothing new: the known file's stamp matches, so it is counted
        // as unchanged and never re-read.
        assert_eq!(
            registry.refresh().unwrap(),
            RefreshOutcome {
                unchanged: 1,
                ..RefreshOutcome::default()
            }
        );

        // Program 1 becomes resident; program 2 is never fetched.
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 1);

        // New files appear after open: more state for resident program
        // 1, a first file for unknown program 2, and one mid-write junk
        // file that must be skipped, not fatal.
        save_snapshot(&dir.join("p1-more.tlrsnap"), 1, &snapshot_of(&[rec(40, 2)])).unwrap();
        save_snapshot(&dir.join("p2.tlrsnap"), 2, &snapshot_of(&[rec(8, 3)])).unwrap();
        std::fs::write(dir.join("partial.tlrsnap"), b"TL").unwrap();

        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.new_files, 2);
        assert_eq!(outcome.refreshed, 1, "resident entry not refreshed");
        assert_eq!(outcome.skipped, 1, "mid-write file not skipped");
        assert_eq!(outcome.unchanged, 1, "stamp-stable file re-read");

        // The resident entry absorbed the new file without a re-fetch.
        let stats = registry.entry_stats(1).unwrap();
        assert_eq!(stats.refreshes, 1);
        assert_eq!(stats.resident_traces, 2);
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 2);

        // The unknown program is now indexed and warm-loads on fetch.
        assert_eq!(registry.paths(2).len(), 1);
        assert_eq!(registry.get(2).unwrap().unwrap().len(), 1);

        // A second pass with nothing new (the junk file is retried and
        // skipped again, still not indexed; every indexed file is
        // stamp-stable).
        let outcome = registry.refresh().unwrap();
        assert_eq!((outcome.new_files, outcome.refreshed), (0, 0));
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.unchanged, 3);
    }

    #[test]
    fn refresh_reabsorbs_changed_files() {
        let dir = temp_dir("refresh-changed");
        let path = dir.join("p1.tlrsnap");
        save_snapshot(&path, 1, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 1);

        // Another process rewrites the file with more state (the length
        // changes, so the stamp moves even on coarse-mtime systems).
        save_snapshot(&path, 1, &snapshot_of(&[rec(8, 1), rec(40, 2)])).unwrap();
        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.refreshed, 1, "changed file not re-absorbed");
        assert_eq!(outcome.new_files, 0, "changed file is not new");
        assert_eq!(registry.get(1).unwrap().unwrap().len(), 2);

        // The rewritten stamp was recorded: the next pass skips it.
        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.refreshed, 0);
        assert_eq!(outcome.unchanged, 1);
    }

    #[test]
    fn image_cache_serves_built_bytes_until_invalidated() {
        let dir = temp_dir("image-cache");
        save_snapshot(&dir.join("p.tlrsnap"), 6, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();

        // First image fetch loads (miss) and builds; the bytes are a
        // complete snapshot file image.
        let first = registry.get_image(6).unwrap().expect("image");
        let (fp, decoded) = tlr_persist::snapshot::read_snapshot(&mut &first[..], Some(6)).unwrap();
        assert_eq!(fp, 6);
        assert_eq!(decoded.len(), 1);
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!((stats.image_builds, stats.image_hits), (1, 0));
        assert_eq!((stats.misses, stats.hits), (1, 0));

        // Second fetch is the zero-copy path: same buffer, no rebuild.
        let second = registry.get_image(6).unwrap().unwrap();
        assert!(Arc::ptr_eq(&first, &second), "image not served from cache");
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!((stats.image_builds, stats.image_hits), (1, 1));

        // Publish invalidates: the next image is rebuilt over the
        // merged state.
        registry.publish(6, &snapshot_of(&[rec(40, 2)])).unwrap();
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!(stats.image_invalidations, 1);
        let third = registry.get_image(6).unwrap().unwrap();
        assert!(!Arc::ptr_eq(&first, &third), "stale image after publish");
        let (_, decoded) = tlr_persist::snapshot::read_snapshot(&mut &third[..], Some(6)).unwrap();
        assert_eq!(decoded.len(), 2);
        let stats = registry.entry_stats(6).unwrap();
        assert_eq!(stats.image_builds, 2);

        // Unknown programs mirror `get`.
        assert!(registry.get_image(999).unwrap().is_none());

        // Registry-wide aggregates carry the image counters.
        let totals = registry.stats();
        assert_eq!(totals.image_builds, 2);
        assert_eq!(totals.image_hits, 1);
        assert_eq!(totals.image_invalidations, 1);
    }

    #[test]
    fn spill_writes_base_then_deltas_then_compacts() {
        let dir = temp_dir("spill");
        let registry = SnapshotRegistry::open(
            &dir,
            RegistryConfig {
                compact_threshold: 3,
                ..RegistryConfig::default()
            },
        )
        .unwrap();

        // Not resident: nothing to spill.
        assert_eq!(registry.spill(11).unwrap().kind, SpillKind::NoChange);

        // A publish-born entry's first spill is a full base.
        registry.publish(11, &snapshot_of(&[rec(8, 1)])).unwrap();
        let outcome = registry.spill(11).unwrap();
        assert_eq!(outcome.kind, SpillKind::Base);
        assert!(dir.join(base_file_name(11)).is_file());

        // No change since the base: nothing written.
        assert_eq!(registry.spill(11).unwrap().kind, SpillKind::NoChange);

        // New state spills an incremental delta, much smaller than the
        // base rewrite would be.
        registry.publish(11, &snapshot_of(&[rec(40, 2)])).unwrap();
        let outcome = registry.spill(11).unwrap();
        assert_eq!(outcome.kind, SpillKind::Delta);
        assert_eq!(outcome.delta_groups, 1);
        let delta_path = dir.join(delta_file_name(11, 1));
        assert!(delta_path.is_file());

        // Second delta (seq 2).
        registry.publish(11, &snapshot_of(&[rec(72, 3)])).unwrap();
        assert_eq!(registry.spill(11).unwrap().kind, SpillKind::Delta);

        // Third change crosses compact_threshold = 3: everything folds
        // into a fresh base and the deltas are deleted.
        registry.publish(11, &snapshot_of(&[rec(104, 4)])).unwrap();
        let outcome = registry.spill(11).unwrap();
        assert_eq!(outcome.kind, SpillKind::Compacted);
        assert_eq!(outcome.removed_files, 2);
        assert!(!delta_path.exists(), "compaction left a delta behind");
        assert_eq!(registry.paths(11), vec![dir.join(base_file_name(11))]);

        // A cold registry over the same directory reconstructs the full
        // state from the compacted base.
        let cold = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(cold.get(11).unwrap().unwrap().len(), 4);
    }

    #[test]
    fn disk_loaded_entry_spills_delta_against_loaded_state() {
        let dir = temp_dir("spill-seeded");
        save_snapshot(&dir.join("p.tlrsnap"), 12, &snapshot_of(&[rec(8, 1)])).unwrap();
        let registry = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(registry.get(12).unwrap().unwrap().len(), 1);

        // Nothing beyond the on-disk state: no write at all.
        assert_eq!(registry.spill(12).unwrap().kind, SpillKind::NoChange);

        // Publish new state: the spill is a delta next to the existing
        // file, not a full rewrite.
        registry.publish(12, &snapshot_of(&[rec(40, 2)])).unwrap();
        let outcome = registry.spill(12).unwrap();
        assert_eq!(outcome.kind, SpillKind::Delta);

        // The spilled delta is already indexed and stamped: a refresh
        // pass does not re-absorb it.
        let outcome = registry.refresh().unwrap();
        assert_eq!(outcome.new_files, 0);
        assert_eq!(outcome.refreshed, 0);
        assert_eq!(outcome.unchanged, 2);

        // A cold registry merges base + delta back to the full state.
        let cold = SnapshotRegistry::open(&dir, RegistryConfig::default()).unwrap();
        assert_eq!(cold.get(12).unwrap().unwrap().len(), 2);
    }

    #[test]
    fn corrupt_snapshot_file_fails_open() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("bad.tlrsnap"), b"not a snapshot").unwrap();
        assert!(matches!(
            SnapshotRegistry::open(&dir, RegistryConfig::default()),
            Err(ServeError::Persist(PersistError::BadMagic { .. }))
        ));
    }
}
