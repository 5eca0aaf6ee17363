//! The Reuse Trace Memory (§3.1, §4.6).
//!
//! A set-associative memory indexed by the least-significant bits of the
//! PC. Each set holds several PC groups; each group holds several traces
//! starting at that PC (the paper's "N entries per initial PC"), replaced
//! LRU. An entry stores the trace's input identifiers+contents, output
//! identifiers+contents and next PC — Figure 1 of the paper.
//!
//! The **reuse test** (§3.3) implemented here is the value-comparison
//! variant: on every fetch, each candidate trace for the current PC is
//! checked by reading the current contents of all its input locations and
//! comparing against the recorded values. (The paper's alternative — a
//! valid bit invalidated on every write — trades test latency for
//! invalidation traffic; Figure 8b models its cost as reuse latency
//! proportional to the trace I/O count, which `tlr-core::limits` covers.)

use crate::block::TraceBlock;
use crate::ilr::{lru_group_victim, PcGroup, SetAssocGeometry, SetAssocStore};
use crate::policy::{ReplacementPolicy, TraceMeta};
use crate::trace::TraceRecord;
use tlr_isa::{ClassMix, Loc};
use tlr_util::FxHashSet;
use tlr_vm::{Vm, VmError};

/// RTM configuration: geometry is the paper's, I/O caps are enforced at
/// collection time (see [`crate::trace::IoCaps`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtmConfig {
    /// Set-associative geometry.
    pub geometry: SetAssocGeometry,
}

impl RtmConfig {
    /// 512-entry RTM: 32 sets × 4 ways × 4 traces per PC (§4.6: "4-way
    /// set-associative memory (5-bit index) with 4 entries per initial
    /// PC").
    pub const RTM_512: RtmConfig = RtmConfig {
        geometry: SetAssocGeometry {
            sets: 32,
            ways: 4,
            per_pc: 4,
        },
    };

    /// 4K-entry RTM: 128 sets × 4 ways × 8 traces per PC.
    pub const RTM_4K: RtmConfig = RtmConfig {
        geometry: SetAssocGeometry {
            sets: 128,
            ways: 4,
            per_pc: 8,
        },
    };

    /// 32K-entry RTM: 256 sets × 8 ways × 16 traces per PC.
    pub const RTM_32K: RtmConfig = RtmConfig {
        geometry: SetAssocGeometry {
            sets: 256,
            ways: 8,
            per_pc: 16,
        },
    };

    /// 256K-entry RTM: 2048 sets × 8 ways × 16 traces per PC.
    pub const RTM_256K: RtmConfig = RtmConfig {
        geometry: SetAssocGeometry {
            sets: 2048,
            ways: 8,
            per_pc: 16,
        },
    };

    /// The four capacities evaluated in Figure 9, ascending.
    pub const PAPER_SWEEP: [RtmConfig; 4] = [
        RtmConfig::RTM_512,
        RtmConfig::RTM_4K,
        RtmConfig::RTM_32K,
        RtmConfig::RTM_256K,
    ];

    /// Total trace capacity.
    pub fn capacity(&self) -> u64 {
        self.geometry.capacity()
    }

    /// Human-readable capacity label ("512", "4K", ...).
    pub fn label(&self) -> String {
        let c = self.capacity();
        if c.is_multiple_of(1024) {
            format!("{}K", c / 1024)
        } else {
            format!("{c}")
        }
    }
}

/// Counters for RTM behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RtmStats {
    /// Reuse tests performed (one per fetch of a PC with resident traces
    /// counts per candidate-set probe; misses on empty groups count too).
    pub lookups: u64,
    /// Successful reuse tests.
    pub hits: u64,
    /// Traces stored.
    pub stores: u64,
    /// Traces rejected as duplicates of a resident entry.
    pub duplicate_stores: u64,
    /// Stores whose reuse key (start PC, live-ins, length) matched a
    /// resident entry but whose outputs or next PC disagreed. Impossible
    /// under deterministic execution of a single program; observed when
    /// snapshots from different program versions (or a buggy producer)
    /// are merged. The resident entry is replaced by the newer record.
    pub conflicting_stores: u64,
    /// Entries evicted (either level, victim chosen by the configured
    /// [`ReplacementPolicy`]).
    pub evictions: u64,
    /// Candidate traces whose starting PC matched a lookup but whose
    /// live-in *values* failed the reuse test. This is the
    /// validation-at-reuse invariant doing its job: shape-shared state
    /// (same code, different data) parks traces in the RTM that only
    /// apply when the values line up, and every rejection lands here
    /// instead of passing silently as a generic miss.
    pub value_rejects: u64,
}

/// One resident RTM entry: the trace plus its provenance, plus a lazily
/// built straight-line [`TraceBlock`] serving the fast lookup path. The
/// block is pure derived state: it is built from `rec` on first fast
/// lookup and dropped whenever `rec` changes (conflict replacement, mix
/// upgrade) or the entry is evicted, so it can never go stale.
#[derive(Clone, Debug)]
pub(crate) struct RtmEntry {
    pub(crate) rec: TraceRecord,
    pub(crate) meta: TraceMeta,
    pub(crate) block: Option<Box<TraceBlock>>,
}

impl PartialEq for RtmEntry {
    /// Identity is the trace and its provenance; the cached block is
    /// derived state and never participates.
    fn eq(&self, other: &Self) -> bool {
        self.rec == other.rec && self.meta == other.meta
    }
}

/// What [`ReuseTraceMemory::lookup_fast`] hands the engine on a hit: the
/// bookkeeping fields of the reused trace (the architectural update has
/// already been applied to the VM) and the resident record itself,
/// borrowed in place (a collector reads it to drive expansion; nothing
/// is cloned).
#[derive(Clone, Copy, Debug)]
pub struct FastHit<'a> {
    /// Dynamic instructions the trace covered.
    pub len: u32,
    /// Where control resumed.
    pub next_pc: u32,
    /// Per-class histogram of the skipped instructions.
    pub mix: ClassMix,
    /// The reused record, now the most recently used entry of its group.
    pub rec: &'a TraceRecord,
}

/// A portable snapshot of an RTM's resident traces.
///
/// Produced by [`ReuseTraceMemory::export`] and consumed by
/// [`ReuseTraceMemory::import`] to warm-start a later run from a prior
/// run's reuse state (serialized to disk by `tlr-persist`). Traces are
/// ordered so that re-inserting them into an empty RTM of the same
/// geometry reproduces the exporter's LRU replacement state.
#[derive(Clone, Debug, PartialEq)]
pub struct RtmSnapshot {
    /// Geometry the snapshot was taken under.
    pub config: RtmConfig,
    /// Resident traces, LRU-first per set.
    pub traces: Vec<TraceRecord>,
    /// Per-trace provenance, parallel to `traces`. Snapshots from
    /// format-v2 files (or hand-built without history) carry all-zero
    /// provenance; [`RtmSnapshot::from_traces`] fills that in.
    pub meta: Vec<TraceMeta>,
    /// The producing program's *shape fingerprint*
    /// (`tlr_persist::program_shape_fingerprint`): a hash of the code
    /// alone, with the data image excluded — so runs of the same program
    /// over different data agree on it and can share this snapshot,
    /// value-validated at reuse time. `0` means value-pinned/unknown
    /// (exports before a producer stamps it, snapshots loaded from
    /// pre-v6 files, merges of conflicting shapes).
    pub shape: u64,
}

impl RtmSnapshot {
    /// A snapshot over `traces` with zero provenance (no recorded hits,
    /// no source run) — what loading a pre-provenance (v2) snapshot
    /// produces.
    pub fn from_traces(config: RtmConfig, traces: Vec<TraceRecord>) -> Self {
        let meta = vec![TraceMeta::default(); traces.len()];
        Self {
            config,
            traces,
            meta,
            shape: 0,
        }
    }

    /// Number of traces captured.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` when the snapshot holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Traces zipped with their provenance. Hand-built snapshots whose
    /// `meta` is shorter than `traces` yield zero provenance for the
    /// tail rather than truncating.
    pub fn entries(&self) -> impl Iterator<Item = (&TraceRecord, TraceMeta)> {
        self.traces
            .iter()
            .enumerate()
            .map(|(i, t)| (t, self.meta.get(i).copied().unwrap_or_default()))
    }

    /// Sum of recorded per-trace hit counts — the snapshot's
    /// hit-weighted residency.
    pub fn total_hits(&self) -> u64 {
        self.meta
            .iter()
            .fold(0, |acc, m| acc.saturating_add(m.hits))
    }

    /// Union several runs' snapshots into one (the substrate of a
    /// serving fleet pooling reuse state).
    ///
    /// All inputs must share one geometry; the merge replays the
    /// inputs' traces **interleaved round-robin from their LRU ends**
    /// (each input is ordered LRU-first) into an empty RTM of that
    /// geometry. Capacity is enforced by the RTM's own two-level LRU
    /// replacement, and recency priority falls out of the replay order:
    /// a trace present in several inputs is refreshed to MRU on each
    /// re-encounter and outlives single-input traces under capacity
    /// pressure; within a round, later inputs rank ahead, so list the
    /// freshest run last; and an input with more traces keeps
    /// contributing after shorter inputs are exhausted, so under
    /// contention the largest input's hot tail ends up MRU-most —
    /// unlike a sequential replay, though, no input can wholesale-evict
    /// the others' PC groups with its *cold* end, because every input's
    /// early (LRU) traces land early. Conflicting records (same
    /// live-ins and length, different
    /// outputs — different program versions or a buggy producer) are
    /// resolved newest-wins and counted, see
    /// [`RtmStats::conflicting_stores`].
    ///
    /// Traces **every** input kept — the pooled fleet's unanimous, and
    /// so hottest, reuse state — are re-asserted in a final pass, which
    /// makes them MRU-most and guarantees capacity contention never
    /// drops one: per set, unanimous PC groups number at most `ways`
    /// (each input held them simultaneously) and unanimous traces per
    /// group at most `per_pc`, so the pass only ever evicts
    /// non-unanimous state.
    pub fn merge(snapshots: &[RtmSnapshot]) -> Result<RtmSnapshot, MergeError> {
        Ok(Self::merge_detailed(snapshots)?.snapshot)
    }

    /// [`merge`](RtmSnapshot::merge) under an explicit replacement
    /// policy (see [`merge_detailed_with`](RtmSnapshot::merge_detailed_with)).
    pub fn merge_with(
        snapshots: &[RtmSnapshot],
        policy: ReplacementPolicy,
    ) -> Result<RtmSnapshot, MergeError> {
        Ok(Self::merge_detailed_with(snapshots, policy)?.snapshot)
    }

    /// [`merge`](RtmSnapshot::merge), also reporting what the union did:
    /// input trace count, duplicates coalesced, conflicts resolved, and
    /// entries lost to capacity.
    pub fn merge_detailed(snapshots: &[RtmSnapshot]) -> Result<MergeOutcome, MergeError> {
        Self::merge_detailed_with(snapshots, ReplacementPolicy::Lru)
    }

    /// [`merge_detailed`](RtmSnapshot::merge_detailed) under an explicit
    /// replacement policy — the provenance-aware merge.
    ///
    /// The replay order is the same interleaved LRU→MRU round-robin for
    /// every policy; what changes is the *victim rule* under capacity
    /// contention, and what a re-encounter does: a trace present in
    /// several inputs **absorbs** each sighting's provenance (hit counts
    /// add, the freshest last-use wins, the first contributor's
    /// source-run id is kept), so under [`ReplacementPolicy::Lfu`] /
    /// [`ReplacementPolicy::CostBenefit`] the fleet-wide hottest traces
    /// outrank single-run state by their *combined* history rather than
    /// by replay recency alone.
    ///
    /// The unanimity guarantee holds under every policy: traces that
    /// **all** inputs kept are re-asserted in a final pass whose victim
    /// selection is forbidden from evicting unanimous state. The
    /// counting argument of [`merge`](RtmSnapshot::merge) shows a
    /// non-unanimous victim always exists when that pass needs one, so
    /// the restriction never wedges.
    pub fn merge_detailed_with(
        snapshots: &[RtmSnapshot],
        policy: ReplacementPolicy,
    ) -> Result<MergeOutcome, MergeError> {
        let first = snapshots.first().ok_or(MergeError::Empty)?;
        for s in &snapshots[1..] {
            if s.config != first.config {
                return Err(MergeError::GeometryMismatch {
                    first: first.config,
                    other: s.config,
                });
            }
        }
        let mut rtm = ReuseTraceMemory::new_with(first.config, policy);
        let input_traces: usize = snapshots.iter().map(|s| s.traces.len()).sum();
        let mut iters: Vec<_> = snapshots.iter().map(|s| s.entries()).collect();
        loop {
            let mut exhausted = true;
            for it in iters.iter_mut() {
                if let Some((trace, meta)) = it.next() {
                    rtm.insert_seeded(trace.clone(), meta);
                    exhausted = false;
                }
            }
            if exhausted {
                break;
            }
        }
        // Duplicate/conflict counts describe the union itself; take them
        // before the unanimity pass re-encounters records a second time.
        let union_stats = rtm.stats();
        if snapshots.len() > 1 {
            // Count per input (an input's export never repeats a record,
            // but hand-built snapshots might — count each input once).
            let mut seen: tlr_util::FxHashMap<&TraceRecord, (usize, usize)> =
                tlr_util::FxHashMap::default();
            for (input, snap) in snapshots.iter().enumerate() {
                for trace in &snap.traces {
                    let entry = seen.entry(trace).or_insert((0, usize::MAX));
                    if entry.1 != input {
                        *entry = (entry.0 + 1, input);
                    }
                }
            }
            let unanimous: FxHashSet<TraceRecord> = first
                .traces
                .iter()
                .filter(|t| seen.get(*t).is_some_and(|(n, _)| *n == snapshots.len()))
                .cloned()
                .collect();
            // Combined provenance of each unanimous trace across every
            // input, in case the union replay evicted it and the
            // re-assert has to insert it from scratch.
            let mut combined: tlr_util::FxHashMap<&TraceRecord, TraceMeta> =
                tlr_util::FxHashMap::default();
            for snap in snapshots {
                for (trace, meta) in snap.entries() {
                    if !unanimous.contains(trace) {
                        continue;
                    }
                    match combined.entry(trace) {
                        std::collections::hash_map::Entry::Occupied(mut e) => {
                            e.get_mut().absorb(&meta)
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            v.insert(meta);
                        }
                    }
                }
            }
            // Every unanimous trace appears in the first input; re-assert
            // in its order so relative recency among them is stable. The
            // pass refreshes recency only — resident provenance was
            // already absorbed during the union replay.
            for trace in &first.traces {
                if unanimous.contains(trace) {
                    let meta = combined.get(trace).copied().unwrap_or_default();
                    rtm.insert_pinned(trace.clone(), meta, &unanimous);
                }
            }
        }
        // The merge keeps a shape only when every shape-stamped input
        // agrees on it; value-pinned inputs (shape 0) never veto, and a
        // genuine conflict demotes the result to value-pinned rather
        // than mislabelling it.
        let mut shape = 0u64;
        let mut conflict = false;
        for s in snapshots {
            if s.shape == 0 {
                continue;
            }
            if shape == 0 {
                shape = s.shape;
            } else if shape != s.shape {
                conflict = true;
            }
        }
        let mut snapshot = rtm.export();
        snapshot.shape = if conflict { 0 } else { shape };
        Ok(MergeOutcome {
            snapshot,
            input_traces,
            duplicates: union_stats.duplicate_stores,
            conflicts: union_stats.conflicting_stores,
            evictions: rtm.stats().evictions,
        })
    }
}

/// Why a set of snapshots cannot be merged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// No snapshots were given.
    Empty,
    /// The inputs disagree on RTM geometry. Merging across geometries
    /// would silently re-shape one run's replacement state; re-export
    /// under a common geometry instead.
    GeometryMismatch {
        /// Geometry of the first input.
        first: RtmConfig,
        /// The first disagreeing geometry.
        other: RtmConfig,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => write!(f, "cannot merge zero snapshots"),
            MergeError::GeometryMismatch { first, other } => write!(
                f,
                "snapshot geometries differ: {:?} vs {:?}; merge inputs must share one RTM geometry",
                first.geometry, other.geometry
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// What [`RtmSnapshot::merge_detailed`] produced.
#[derive(Clone, Debug)]
pub struct MergeOutcome {
    /// The merged snapshot.
    pub snapshot: RtmSnapshot,
    /// Total traces across all inputs.
    pub input_traces: usize,
    /// Input traces coalesced as exact duplicates of an earlier one.
    pub duplicates: u64,
    /// Conflicting records resolved newest-wins.
    pub conflicts: u64,
    /// Entries lost to capacity (LRU, either level).
    pub evictions: u64,
}

/// The Reuse Trace Memory.
pub struct ReuseTraceMemory {
    store: SetAssocStore<RtmEntry>,
    stats: RtmStats,
    policy: ReplacementPolicy,
    /// Monotonic use counter stamped into per-entry provenance
    /// ([`TraceMeta::last_use`]).
    tick: u64,
    /// Run id stamped into fresh inserts' provenance.
    source_run: u64,
}

/// Pick the entry to evict from a full PC group (entries in LRU→MRU
/// order), honouring `policy` and never choosing a `pinned` record when
/// an unpinned candidate exists. `now` is the RTM tick the LFU aging
/// term measures idleness against ([`TraceMeta::decayed_hits`]).
fn entry_victim(
    policy: ReplacementPolicy,
    entries: &[RtmEntry],
    pinned: Option<&FxHashSet<TraceRecord>>,
    now: u64,
) -> usize {
    let mut candidates = entries
        .iter()
        .enumerate()
        .filter(|(_, e)| pinned.is_none_or(|p| !p.contains(&e.rec)));
    match policy {
        // First candidate in LRU→MRU order is the least recently used.
        ReplacementPolicy::Lru => candidates.next().map(|(i, _)| i),
        ReplacementPolicy::Lfu => candidates
            .min_by_key(|(i, e)| (e.meta.decayed_hits(now), e.meta.last_use, *i))
            .map(|(i, _)| i),
        ReplacementPolicy::CostBenefit => candidates
            .min_by_key(|(i, e)| (e.meta.benefit(e.rec.len), e.meta.last_use, *i))
            .map(|(i, _)| i),
        ReplacementPolicy::CostBenefitMeasured(weights) => candidates
            .min_by_key(|(i, e)| {
                (
                    e.meta.benefit_measured(e.rec.len, e.rec.mix, &weights),
                    e.meta.last_use,
                    *i,
                )
            })
            .map(|(i, _)| i),
    }
    .unwrap_or(0)
}

/// Pick the PC group to evict from a full set, honouring `policy` and
/// never choosing a group holding a `pinned` record when an unpinned
/// candidate exists.
fn group_victim(
    policy: ReplacementPolicy,
    groups: &[PcGroup<RtmEntry>],
    pinned: Option<&FxHashSet<TraceRecord>>,
    now: u64,
) -> usize {
    let candidates = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| pinned.is_none_or(|p| !g.entries.iter().any(|e| p.contains(&e.rec))));
    match policy {
        ReplacementPolicy::Lru => candidates.min_by_key(|(_, g)| g.last_touch),
        ReplacementPolicy::Lfu => candidates.min_by_key(|(_, g)| {
            let hits: u64 = g.entries.iter().map(|e| e.meta.decayed_hits(now)).sum();
            (hits, g.last_touch)
        }),
        ReplacementPolicy::CostBenefit => candidates.min_by_key(|(_, g)| {
            let benefit: u128 = g.entries.iter().map(|e| e.meta.benefit(e.rec.len)).sum();
            (benefit, g.last_touch)
        }),
        ReplacementPolicy::CostBenefitMeasured(weights) => candidates.min_by_key(|(_, g)| {
            let benefit: u128 = g
                .entries
                .iter()
                .map(|e| e.meta.benefit_measured(e.rec.len, e.rec.mix, &weights))
                .sum();
            (benefit, g.last_touch)
        }),
    }
    .map(|(i, _)| i)
    .unwrap_or_else(|| lru_group_victim(groups))
}

impl ReuseTraceMemory {
    /// Empty RTM with the given configuration and the paper's LRU
    /// replacement.
    pub fn new(config: RtmConfig) -> Self {
        Self::new_with(config, ReplacementPolicy::Lru)
    }

    /// Empty RTM replacing under an explicit [`ReplacementPolicy`].
    pub fn new_with(config: RtmConfig, policy: ReplacementPolicy) -> Self {
        Self {
            store: SetAssocStore::new(config.geometry),
            stats: RtmStats::default(),
            policy,
            tick: 0,
            source_run: 0,
        }
    }

    /// The replacement policy this RTM evicts under.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Stamp `run` into the provenance of every *subsequent* fresh
    /// insert ([`TraceMeta::source_run`]); seeded/imported entries keep
    /// their original contributor.
    pub fn set_source_run(&mut self, run: u64) {
        self.source_run = run;
    }

    /// Behaviour counters so far.
    pub fn stats(&self) -> RtmStats {
        self.stats
    }

    /// Traces currently resident.
    pub fn resident(&self) -> u64 {
        self.store.resident
    }

    /// The one candidate scan behind both reuse tests. Counts the lookup,
    /// then walks the PC group most recently used first until `probe`
    /// accepts a candidate; candidates scanned past are value rejections
    /// (right PC, wrong live-ins). On a hit the entry's provenance and the
    /// hit counter are bumped and the entry is handed back with its index
    /// in the group: the caller reads what it needs, then touches the
    /// index to MRU.
    fn scan(
        &mut self,
        pc: u32,
        mut probe: impl FnMut(&mut RtmEntry) -> bool,
    ) -> Option<(usize, &mut RtmEntry)> {
        self.stats.lookups += 1;
        self.tick += 1;
        let entries = self.store.group_mut(pc)?;
        let mut found = None;
        let mut rejected = 0u64;
        for (idx, entry) in entries.iter_mut().enumerate().rev() {
            if probe(entry) {
                found = Some((idx, entry));
                break;
            }
            rejected += 1;
        }
        self.stats.value_rejects += rejected;
        let (idx, entry) = found?;
        entry.meta.hits = entry.meta.hits.saturating_add(1);
        entry.meta.last_use = self.tick;
        self.stats.hits += 1;
        Some((idx, entry))
    }

    /// The reuse test: find a resident trace starting at `pc` whose
    /// recorded live-in values all equal the current architectural values
    /// (`state(loc)`); most recently used candidates are preferred. On a
    /// hit the entry is touched (MRU), its provenance hit count bumped,
    /// and the record cloned out.
    ///
    /// The state closure is the processor's register file / memory read
    /// port; `tlr_vm::Vm::peek_loc` is the canonical implementation.
    pub fn lookup(&mut self, pc: u32, state: impl Fn(Loc) -> u64) -> Option<TraceRecord> {
        let (idx, _) = self.scan(pc, |e| {
            e.rec.ins.iter().all(|&(loc, val)| state(loc) == val)
        })?;
        self.store.touch(pc, idx).map(|e| e.rec.clone())
    }

    /// The reuse test the engine runs: the same scan and bookkeeping as
    /// [`ReuseTraceMemory::lookup`], but probing the VM's register files
    /// and memory directly through each candidate's cached
    /// [`TraceBlock`] (built here on first hit) and, on a hit, applying
    /// the trace's outputs straight to `vm` — no state closure, no
    /// per-location `Loc` dispatch, and no record clone: the hit borrows
    /// the resident record.
    ///
    /// A matching trace whose recorded next PC falls outside the program
    /// returns [`VmError::BadJumpTarget`] *without* applying any outputs,
    /// exactly as [`Vm::apply_trace`] would after a plain `lookup`, and
    /// with the same hit bookkeeping already performed.
    pub fn lookup_fast(&mut self, pc: u32, vm: &mut Vm) -> Result<Option<FastHit<'_>>, VmError> {
        let code_len = vm.code_len();
        let state: &Vm = vm;
        let probe = |entry: &mut RtmEntry| {
            let RtmEntry { rec, block, .. } = entry;
            let matches = match block {
                // A proven trace checks its flat per-class lists.
                Some(b) => b.matches(state),
                // No block yet (fresh insert or invalidated entry): probe
                // the raw record without allocating. Under collection
                // churn most entries are evicted before they ever match,
                // so blocks are compiled only for traces that prove
                // themselves with a hit.
                None => rec.ins.iter().all(|&(loc, val)| state.peek_loc(loc) == val),
            };
            if matches {
                block.get_or_insert_with(|| Box::new(TraceBlock::build(rec, code_len)));
            }
            matches
        };
        let Some((idx, entry)) = self.scan(pc, probe) else {
            return Ok(None);
        };
        let block = entry.block.as_deref().expect("the probe built the block");
        let applied = if block.pre_validated() {
            block.apply(vm);
            Ok((block.len(), block.next_pc(), block.mix()))
        } else {
            Err(VmError::BadJumpTarget {
                pc: vm.pc(),
                target: block.next_pc() as u64,
            })
        };
        let entry = self.store.touch(pc, idx).expect("the scan found the group");
        let (len, next_pc, mix) = applied?;
        Ok(Some(FastHit {
            len,
            next_pc,
            mix,
            rec: &entry.rec,
        }))
    }

    /// Store a collected trace. A trace **fully identical** to a resident
    /// entry for the same PC is dropped (it adds no coverage) — its entry
    /// is refreshed to MRU instead. A trace whose reuse key (live-ins and
    /// length) matches a resident entry but whose outputs or next PC
    /// differ is a *conflict*: deterministic execution of one program
    /// cannot produce it, so one of the two records is wrong. The newer
    /// record wins — it replaces the resident entry in place — and the
    /// event is counted in [`RtmStats::conflicting_stores`] rather than
    /// silently refreshing the stale entry.
    pub fn insert(&mut self, record: TraceRecord) {
        self.tick += 1;
        let meta = TraceMeta {
            hits: 0,
            last_use: self.tick,
            source_run: self.source_run,
        };
        self.insert_impl(record, meta, true, None);
    }

    /// Store a trace carrying provenance from an earlier life (snapshot
    /// import, merge replay). A re-encounter of an identical resident
    /// record **absorbs** the incoming provenance
    /// ([`TraceMeta::absorb`]).
    pub fn insert_seeded(&mut self, record: TraceRecord, meta: TraceMeta) {
        self.tick += 1;
        self.insert_impl(record, meta, true, None);
    }

    /// The merge unanimity pass: re-assert `record` for recency without
    /// re-absorbing provenance, with victim selection forbidden from
    /// evicting any record in `pinned`. `meta` is used only when the
    /// record is *not* resident (it lost a capacity fight during the
    /// union replay) and must be re-inserted with its combined history.
    fn insert_pinned(
        &mut self,
        record: TraceRecord,
        meta: TraceMeta,
        pinned: &FxHashSet<TraceRecord>,
    ) {
        self.tick += 1;
        self.insert_impl(record, meta, false, Some(pinned));
    }

    fn insert_impl(
        &mut self,
        record: TraceRecord,
        meta: TraceMeta,
        absorb: bool,
        pinned: Option<&FxHashSet<TraceRecord>>,
    ) {
        let pc = record.start_pc;
        if let Some(entries) = self.store.group_mut(pc) {
            if let Some(idx) = entries
                .iter()
                .position(|e| e.rec.ins == record.ins && e.rec.len == record.len)
            {
                if entries[idx].rec == record {
                    if absorb {
                        entries[idx].meta.absorb(&meta);
                    }
                    // Equality ignores the class mix; if the resident
                    // copy predates mixes (imported from an old
                    // snapshot) and the incoming one knows the mix,
                    // upgrade in place. The cached block carries the old
                    // mix, so it must be rebuilt.
                    if entries[idx].rec.mix.is_empty() && !record.mix.is_empty() {
                        entries[idx].rec.mix = record.mix;
                        entries[idx].block = None;
                    }
                    self.store.touch(pc, idx);
                    self.stats.duplicate_stores += 1;
                } else {
                    entries[idx] = RtmEntry {
                        rec: record,
                        meta,
                        block: None,
                    };
                    self.store.touch(pc, idx);
                    self.stats.conflicting_stores += 1;
                }
                return;
            }
        }
        self.stats.stores += 1;
        let policy = self.policy;
        let now = self.tick;
        self.stats.evictions += self.store.insert_with(
            pc,
            RtmEntry {
                rec: record,
                meta,
                block: None,
            },
            &mut |entries| entry_victim(policy, entries, pinned, now),
            &mut |groups| group_victim(policy, groups, pinned, now),
        );
    }

    /// The configuration this RTM was built with.
    pub fn config(&self) -> RtmConfig {
        RtmConfig {
            geometry: self.store.geometry(),
        }
    }

    /// Every resident trace with its provenance (store order).
    pub fn provenance(&self) -> impl Iterator<Item = (&TraceRecord, &TraceMeta)> {
        self.store
            .iter_groups()
            .flat_map(|g| g.entries.iter())
            .map(|e| (&e.rec, &e.meta))
    }

    /// Sum of resident traces' hit counts — how much *observed* reuse
    /// the resident state represents, the serving registry's
    /// hit-weighted residency metric.
    pub fn hit_weighted_residency(&self) -> u64 {
        self.provenance()
            .fold(0, |acc, (_, m)| acc.saturating_add(m.hits))
    }

    /// Capture the resident traces (geometry, records, and provenance)
    /// as a portable [`RtmSnapshot`] — the warm-start state a later run
    /// can [`import`](ReuseTraceMemory::import).
    pub fn export(&self) -> RtmSnapshot {
        let mut traces = Vec::with_capacity(self.store.resident as usize);
        let mut meta = Vec::with_capacity(self.store.resident as usize);
        for (_, e) in self.store.iter_lru() {
            traces.push(e.rec.clone());
            meta.push(e.meta);
        }
        RtmSnapshot {
            config: self.config(),
            traces,
            meta,
            shape: 0,
        }
    }

    /// Rebuild an RTM from a snapshot under LRU replacement. The result
    /// starts with fresh statistics: warm-start runs measure only their
    /// own behaviour.
    pub fn import(snapshot: &RtmSnapshot) -> Self {
        Self::import_with(snapshot, ReplacementPolicy::Lru)
    }

    /// Rebuild an RTM from a snapshot under an explicit policy,
    /// preserving each trace's provenance.
    pub fn import_with(snapshot: &RtmSnapshot, policy: ReplacementPolicy) -> Self {
        let mut rtm = Self::new_with(snapshot.config, policy);
        for (trace, meta) in snapshot.entries() {
            rtm.insert_seeded(trace.clone(), meta);
        }
        rtm.stats = RtmStats::default();
        rtm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn rec(start_pc: u32, ins: &[(Loc, u64)], outs: &[(Loc, u64)], next_pc: u32) -> TraceRecord {
        TraceRecord {
            start_pc,
            next_pc,
            len: 3,
            ins: ins.to_vec().into_boxed_slice(),
            outs: outs.to_vec().into_boxed_slice(),
            mix: Default::default(),
        }
    }

    const R1: Loc = Loc::IntReg(1);
    const R2: Loc = Loc::IntReg(2);

    #[test]
    fn paper_configs_have_paper_capacities() {
        assert_eq!(RtmConfig::RTM_512.capacity(), 512);
        assert_eq!(RtmConfig::RTM_4K.capacity(), 4096);
        assert_eq!(RtmConfig::RTM_32K.capacity(), 32768);
        assert_eq!(RtmConfig::RTM_256K.capacity(), 262144);
        assert_eq!(RtmConfig::RTM_4K.label(), "4K");
        assert_eq!(RtmConfig::RTM_512.label(), "512");
    }

    #[test]
    fn lookup_requires_all_inputs_to_match() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(10, &[(R1, 5), (Loc::Mem(100), 7)], &[(R2, 12)], 14));

        let good: HashMap<Loc, u64> = [(R1, 5), (Loc::Mem(100), 7)].into();
        let hit = rtm
            .lookup(10, |l| good.get(&l).copied().unwrap_or(0))
            .unwrap();
        assert_eq!(hit.next_pc, 14);
        assert_eq!(hit.outs.as_ref(), &[(R2, 12)]);

        let bad: HashMap<Loc, u64> = [(R1, 5), (Loc::Mem(100), 8)].into();
        assert!(rtm
            .lookup(10, |l| bad.get(&l).copied().unwrap_or(0))
            .is_none());
        // Different PC misses regardless of state.
        assert!(rtm
            .lookup(11, |l| good.get(&l).copied().unwrap_or(0))
            .is_none());
        assert_eq!(rtm.stats().hits, 1);
        assert_eq!(rtm.stats().lookups, 3);
    }

    #[test]
    fn multiple_traces_per_pc_coexist() {
        // "up to 4 different traces starting at the same PC can be stored"
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        for v in 0..4u64 {
            rtm.insert(rec(10, &[(R1, v)], &[(R2, v * 10)], 20));
        }
        assert_eq!(rtm.resident(), 4);
        for v in (0..4u64).rev() {
            let hit = rtm.lookup(10, |l| if l == R1 { v } else { 0 }).unwrap();
            assert_eq!(hit.outs[0].1, v * 10);
        }
    }

    #[test]
    fn per_pc_lru_replacement() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512); // 4 per PC
        for v in 0..4u64 {
            rtm.insert(rec(10, &[(R1, v)], &[], 20));
        }
        // Touch v=0 making v=1 the LRU; a fifth trace evicts v=1.
        assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
        rtm.insert(rec(10, &[(R1, 99)], &[], 20));
        assert_eq!(rtm.resident(), 4);
        assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
        assert!(rtm.lookup(10, |l| if l == R1 { 1 } else { 9 }).is_none());
        assert!(rtm.lookup(10, |l| if l == R1 { 99 } else { 9 }).is_some());
        assert_eq!(rtm.stats().evictions, 1);
    }

    #[test]
    fn duplicate_store_is_dropped() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        let r = rec(10, &[(R1, 5)], &[(R2, 6)], 12);
        rtm.insert(r.clone());
        rtm.insert(r.clone());
        assert_eq!(rtm.resident(), 1);
        assert_eq!(rtm.stats().stores, 1);
        assert_eq!(rtm.stats().duplicate_stores, 1);
    }

    #[test]
    fn conflicting_store_replaces_stale_entry() {
        // Same PC, same live-ins, same length — but different outputs:
        // a stale record from another program version. The new record
        // must win and the event must be visible in the stats.
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 6)], 12));
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 99)], 12));
        assert_eq!(rtm.resident(), 1);
        assert_eq!(rtm.stats().stores, 1);
        assert_eq!(rtm.stats().duplicate_stores, 0);
        assert_eq!(rtm.stats().conflicting_stores, 1);
        let hit = rtm.lookup(10, |l| if l == R1 { 5 } else { 0 }).unwrap();
        assert_eq!(hit.outs.as_ref(), &[(R2, 99)], "stale outputs survived");

        // Different next_pc with equal outs is a conflict too.
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 99)], 13));
        assert_eq!(rtm.stats().conflicting_stores, 2);
        let hit = rtm.lookup(10, |l| if l == R1 { 5 } else { 0 }).unwrap();
        assert_eq!(hit.next_pc, 13);
    }

    #[test]
    fn same_inputs_different_length_coexist() {
        // Equal live-ins but different trace lengths are both valid
        // (different collection heuristics), not conflicting.
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        let mut short = rec(10, &[(R1, 5)], &[(R2, 6)], 12);
        short.len = 2;
        let mut long = rec(10, &[(R1, 5)], &[(R2, 6), (Loc::Mem(8), 1)], 20);
        long.len = 7;
        rtm.insert(short);
        rtm.insert(long);
        assert_eq!(rtm.resident(), 2);
        assert_eq!(rtm.stats().conflicting_stores, 0);
    }

    #[test]
    fn merge_unions_disjoint_snapshots() {
        let mut a = ReuseTraceMemory::new(RtmConfig::RTM_512);
        a.insert(rec(10, &[(R1, 1)], &[(R2, 2)], 13));
        let mut b = ReuseTraceMemory::new(RtmConfig::RTM_512);
        b.insert(rec(42, &[(R1, 9)], &[(R2, 8)], 45));
        let merged = RtmSnapshot::merge(&[a.export(), b.export()]).unwrap();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged.config, RtmConfig::RTM_512);
        let mut rtm = ReuseTraceMemory::import(&merged);
        assert!(rtm.lookup(10, |l| if l == R1 { 1 } else { 0 }).is_some());
        assert!(rtm.lookup(42, |l| if l == R1 { 9 } else { 0 }).is_some());
    }

    #[test]
    fn merge_gives_shared_traces_mru_priority() {
        // per_pc = 4. A and B share one trace; B brings three more. The
        // shared trace is refreshed on B's replay, so a capacity-pushed
        // fifth insert evicts a B-only trace, never the shared one.
        let shared = rec(10, &[(R1, 0)], &[(R2, 0)], 20);
        let mut a = ReuseTraceMemory::new(RtmConfig::RTM_512);
        a.insert(shared.clone());
        let mut b = ReuseTraceMemory::new(RtmConfig::RTM_512);
        for v in 1..4u64 {
            b.insert(rec(10, &[(R1, v)], &[(R2, v)], 20));
        }
        b.insert(shared.clone());
        let outcome = RtmSnapshot::merge_detailed(&[a.export(), b.export()]).unwrap();
        assert_eq!(outcome.input_traces, 5);
        assert_eq!(outcome.duplicates, 1);
        assert_eq!(outcome.conflicts, 0);
        assert_eq!(outcome.snapshot.len(), 4);
        let mut rtm = ReuseTraceMemory::import(&outcome.snapshot);
        rtm.insert(rec(10, &[(R1, 99)], &[], 20)); // group full: evicts LRU
        assert!(
            rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some(),
            "shared trace lost under capacity pressure"
        );
    }

    #[test]
    fn merge_counts_conflicts_newest_wins() {
        let mut a = ReuseTraceMemory::new(RtmConfig::RTM_512);
        a.insert(rec(10, &[(R1, 5)], &[(R2, 6)], 12));
        let mut b = ReuseTraceMemory::new(RtmConfig::RTM_512);
        b.insert(rec(10, &[(R1, 5)], &[(R2, 77)], 12));
        let outcome = RtmSnapshot::merge_detailed(&[a.export(), b.export()]).unwrap();
        assert_eq!(outcome.conflicts, 1);
        assert_eq!(outcome.snapshot.len(), 1);
        assert_eq!(outcome.snapshot.traces[0].outs.as_ref(), &[(R2, 77)]);
    }

    #[test]
    fn merge_rejects_geometry_mismatch_and_empty() {
        assert_eq!(RtmSnapshot::merge(&[]), Err(MergeError::Empty));
        let a = ReuseTraceMemory::new(RtmConfig::RTM_512).export();
        let b = ReuseTraceMemory::new(RtmConfig::RTM_4K).export();
        assert!(matches!(
            RtmSnapshot::merge(&[a, b]),
            Err(MergeError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn set_conflicts_evict_whole_pc_groups() {
        // 32 sets in RTM_512: PCs 0 and 32 share set 0. With 4 ways they
        // coexist; load 5 distinct PCs in the same set and one group goes.
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        for k in 0..5u32 {
            let pc = k * 32;
            rtm.insert(rec(pc, &[(R1, 1)], &[], pc + 1));
        }
        // PC 0 was the LRU group: gone.
        assert!(rtm.lookup(0, |_| 1).is_none());
        assert!(rtm.lookup(4 * 32, |_| 1).is_some());
    }

    #[test]
    fn export_import_roundtrip_preserves_contents_and_lru() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        for v in 0..4u64 {
            rtm.insert(rec(10, &[(R1, v)], &[(R2, v * 10)], 20));
        }
        rtm.insert(rec(42, &[(R1, 1)], &[], 43));
        // Touch v=0 so it is MRU; v=1 becomes the per-PC LRU.
        assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());

        let snapshot = rtm.export();
        assert_eq!(snapshot.len(), 5);
        assert_eq!(snapshot.config, RtmConfig::RTM_512);

        let mut again = ReuseTraceMemory::import(&snapshot);
        assert_eq!(again.resident(), 5);
        assert_eq!(again.stats(), RtmStats::default());
        assert_eq!(again.export(), snapshot);
        // Replacement state carried over: a fifth trace at PC 10 must
        // evict v=1 (the LRU), exactly as it would have in the original.
        again.insert(rec(10, &[(R1, 99)], &[], 20));
        assert!(again.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
        assert!(again.lookup(10, |l| if l == R1 { 1 } else { 9 }).is_none());
    }

    #[test]
    fn lfu_keeps_hot_entry_lru_would_evict() {
        // per_pc = 4. Fill a group, hit the oldest entry twice, then
        // let three younger entries refresh past it. Under LRU the hot
        // entry is the victim; under LFU the never-hit LRU-most young
        // entry goes instead.
        let run = |policy: ReplacementPolicy| -> ReuseTraceMemory {
            let mut rtm = ReuseTraceMemory::new_with(RtmConfig::RTM_512, policy);
            for v in 0..4u64 {
                rtm.insert(rec(10, &[(R1, v)], &[(R2, v)], 20));
            }
            assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
            assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
            for v in 1..4u64 {
                rtm.insert(rec(10, &[(R1, v)], &[(R2, v)], 20)); // duplicates: refresh
            }
            rtm.insert(rec(10, &[(R1, 99)], &[], 20)); // group full: evict
            rtm
        };
        let mut lru = run(ReplacementPolicy::Lru);
        assert!(
            lru.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_none(),
            "LRU keeps the hot-but-old entry?"
        );
        let mut lfu = run(ReplacementPolicy::Lfu);
        assert!(
            lfu.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some(),
            "LFU evicted the hottest entry"
        );
        assert!(lfu.lookup(10, |l| if l == R1 { 1 } else { 9 }).is_none());
    }

    #[test]
    fn lfu_aging_forgets_stale_hot_trace() {
        use crate::policy::LFU_HALF_LIFE;
        // per_pc = 4. An early trace racks up 8 hits, then goes idle for
        // many half-lives while a fresh streak (3 traces, 2 recent hits
        // each) fills the group. Without aging, pure frequency keeps the
        // stale trace forever; with decay its effective count (8 >> 4 =
        // 0) loses to the streak and it is the eviction victim.
        let mut rtm = ReuseTraceMemory::new_with(RtmConfig::RTM_512, ReplacementPolicy::Lfu);
        rtm.insert(rec(10, &[(R1, 0)], &[(R2, 0)], 20));
        for _ in 0..8 {
            assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
        }
        // Idle period: unrelated lookups advance the RTM clock.
        for _ in 0..4 * LFU_HALF_LIFE {
            assert!(rtm.lookup(999, |_| 0).is_none());
        }
        for v in 1..4u64 {
            rtm.insert(rec(10, &[(R1, v)], &[(R2, v)], 20));
            for _ in 0..2 {
                assert!(rtm.lookup(10, |l| if l == R1 { v } else { 9 }).is_some());
            }
        }
        rtm.insert(rec(10, &[(R1, 99)], &[], 20)); // group full: evict
        assert!(
            rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_none(),
            "stale high-hit trace survived a fresh streak"
        );
        for v in 1..4u64 {
            assert!(
                rtm.lookup(10, |l| if l == R1 { v } else { 9 }).is_some(),
                "fresh trace {v} lost to the stale one"
            );
        }
    }

    #[test]
    fn lfu_keeps_recent_hot_trace_within_half_life() {
        // The same shape without the idle period: the hot trace's count
        // has not decayed, so it survives (the pre-aging behaviour).
        let mut rtm = ReuseTraceMemory::new_with(RtmConfig::RTM_512, ReplacementPolicy::Lfu);
        rtm.insert(rec(10, &[(R1, 0)], &[(R2, 0)], 20));
        for _ in 0..8 {
            assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
        }
        for v in 1..4u64 {
            rtm.insert(rec(10, &[(R1, v)], &[(R2, v)], 20));
            for _ in 0..2 {
                assert!(rtm.lookup(10, |l| if l == R1 { v } else { 9 }).is_some());
            }
        }
        rtm.insert(rec(10, &[(R1, 99)], &[], 20));
        assert!(
            rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some(),
            "recently hot trace evicted with no aging due"
        );
    }

    #[test]
    fn cost_benefit_weighs_trace_length() {
        // Two never-hit entries: a short recent one and a long old one.
        // Cost/benefit evicts the short one even though it is more
        // recent; LRU would evict the long (older) one.
        let mut rtm =
            ReuseTraceMemory::new_with(RtmConfig::RTM_512, ReplacementPolicy::CostBenefit);
        let mut long = rec(10, &[(R1, 0)], &[(R2, 0)], 40);
        long.len = 30;
        rtm.insert(long);
        let mut short = rec(10, &[(R1, 1)], &[(R2, 1)], 12);
        short.len = 2;
        rtm.insert(short.clone());
        for v in 2..4u64 {
            rtm.insert(rec(10, &[(R1, v)], &[], 20));
        }
        rtm.insert(rec(10, &[(R1, 99)], &[], 20)); // group full: evict
        assert!(
            rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some(),
            "cost/benefit evicted the long trace"
        );
        assert!(rtm.lookup(10, |l| if l == R1 { 1 } else { 9 }).is_none());
    }

    #[test]
    fn provenance_tracks_hits_and_survives_roundtrip() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.set_source_run(42);
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 6)], 13));
        assert!(rtm.lookup(10, |l| if l == R1 { 5 } else { 0 }).is_some());
        assert!(rtm.lookup(10, |l| if l == R1 { 5 } else { 0 }).is_some());
        assert_eq!(rtm.hit_weighted_residency(), 2);
        let (_, meta) = rtm.provenance().next().unwrap();
        assert_eq!(meta.hits, 2);
        assert_eq!(meta.source_run, 42);

        let snapshot = rtm.export();
        assert_eq!(snapshot.meta.len(), snapshot.traces.len());
        assert_eq!(snapshot.total_hits(), 2);
        let again = ReuseTraceMemory::import(&snapshot);
        assert_eq!(again.export(), snapshot, "provenance lost in roundtrip");
        assert_eq!(again.hit_weighted_residency(), 2);
    }

    #[test]
    fn merge_absorbs_provenance_of_shared_traces() {
        let shared = rec(10, &[(R1, 0)], &[(R2, 0)], 20);
        let hot_run = |hits: u64| {
            let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
            rtm.insert(shared.clone());
            for _ in 0..hits {
                assert!(rtm.lookup(10, |l| if l == R1 { 0 } else { 9 }).is_some());
            }
            rtm.export()
        };
        let outcome =
            RtmSnapshot::merge_detailed_with(&[hot_run(3), hot_run(2)], ReplacementPolicy::Lfu)
                .unwrap();
        assert_eq!(outcome.snapshot.len(), 1);
        assert_eq!(
            outcome.snapshot.total_hits(),
            5,
            "shared trace must combine both runs' hit counts"
        );
    }

    #[test]
    fn merge_with_lfu_preserves_unanimous_traces_under_contention() {
        // per_pc = 4. Both inputs keep the same two never-hit traces;
        // each also brings its own extras (B's are hot), so the union's
        // six distinct traces overflow the group. No unanimous trace
        // may be lost, whatever the policy ranks lowest.
        let unanimous: Vec<TraceRecord> = (0..2u64)
            .map(|v| rec(10, &[(R1, v)], &[(R2, v)], 20))
            .collect();
        let mut a = ReuseTraceMemory::new(RtmConfig::RTM_512);
        let mut b = ReuseTraceMemory::new(RtmConfig::RTM_512);
        for t in &unanimous {
            a.insert(t.clone());
            b.insert(t.clone());
        }
        for v in 50..52u64 {
            a.insert(rec(10, &[(R1, v)], &[(R2, v)], 20));
        }
        for v in 100..102u64 {
            b.insert(rec(10, &[(R1, v)], &[(R2, v)], 20));
            // Make the extras hot so LFU ranks the unanimous set lowest.
            for _ in 0..5 {
                assert!(b.lookup(10, |l| if l == R1 { v } else { 9 }).is_some());
            }
        }
        for policy in ReplacementPolicy::ALL {
            let merged = RtmSnapshot::merge_with(&[a.export(), b.export()], policy).unwrap();
            for t in &unanimous {
                assert!(
                    merged.traces.contains(t),
                    "{policy}: merge dropped a unanimous trace"
                );
            }
        }
    }

    #[test]
    fn empty_input_trace_always_hits() {
        // A trace with no live-ins (pure constant generation) matches any
        // state — the reuse test has nothing to compare.
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(10, &[], &[(R2, 1)], 13));
        assert!(rtm.lookup(10, |_| 12345).is_some());
    }

    /// A 20-instruction VM for fast-lookup tests (all trace next_pcs in
    /// the tests below are < 20).
    fn fast_vm() -> Vm {
        let src = format!("{}halt\n", "nop\n".repeat(19));
        Vm::new(&tlr_asm::assemble(&src).unwrap())
    }

    fn cached_block(rtm: &mut ReuseTraceMemory, pc: u32, idx: usize) -> Option<&TraceBlock> {
        rtm.store.group_mut(pc).unwrap()[idx].block.as_deref()
    }

    #[test]
    fn fast_lookup_serves_hits_and_matches_reference_bookkeeping() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 12), (Loc::Mem(7), 3)], 14));

        let mut vm = fast_vm();
        vm.poke_loc(R1, 5);
        let hit = rtm.lookup_fast(10, &mut vm).unwrap().unwrap();
        assert_eq!(hit.len, 3);
        assert_eq!(hit.next_pc, 14);
        // The hit borrows the resident record.
        assert_eq!(hit.rec.outs.as_ref(), &[(R2, 12), (Loc::Mem(7), 3)]);
        // Outputs applied directly.
        assert_eq!(vm.peek_loc(R2), 12);
        assert_eq!(vm.peek_loc(Loc::Mem(7)), 3);
        assert_eq!(vm.pc(), 14);
        // The block is now cached on the entry.
        assert!(cached_block(&mut rtm, 10, 0).is_some());

        // A second hit serves the cached block.
        let mut vm = fast_vm();
        vm.poke_loc(R1, 5);
        let hit = rtm.lookup_fast(10, &mut vm).unwrap().unwrap();
        assert_eq!(hit.next_pc, 14);
        assert_eq!(vm.peek_loc(R2), 12);

        // A miss probes without applying anything.
        let mut vm = fast_vm();
        vm.poke_loc(R1, 6);
        assert!(rtm.lookup_fast(10, &mut vm).unwrap().is_none());
        assert_eq!(vm.peek_loc(R2), 0);
        assert_eq!(rtm.stats().hits, 2);
        assert_eq!(rtm.stats().lookups, 3);
    }

    #[test]
    fn conflict_replacement_invalidates_the_cached_block() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 12)], 14));

        // Build and cache the block.
        let mut vm = fast_vm();
        vm.poke_loc(R1, 5);
        rtm.lookup_fast(10, &mut vm).unwrap().unwrap();
        assert!(cached_block(&mut rtm, 10, 0).is_some());

        // Same reuse key, different outputs: conflict replacement drops
        // the stale block...
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 99)], 15));
        assert_eq!(rtm.stats().conflicting_stores, 1);
        assert!(cached_block(&mut rtm, 10, 0).is_none());

        // ...and the next fast hit serves the replacement record.
        let mut vm = fast_vm();
        vm.poke_loc(R1, 5);
        let hit = rtm.lookup_fast(10, &mut vm).unwrap().unwrap();
        assert_eq!(hit.next_pc, 15);
        assert_eq!(vm.peek_loc(R2), 99);
    }

    #[test]
    fn mix_upgrade_invalidates_the_cached_block() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 12)], 14));
        let mut vm = fast_vm();
        vm.poke_loc(R1, 5);
        rtm.lookup_fast(10, &mut vm).unwrap().unwrap();
        assert!(cached_block(&mut rtm, 10, 0).is_some());

        // Re-encounter of the identical record, now carrying a class
        // mix: the duplicate path upgrades the mix in place, so the
        // cached block (which froze the empty mix) must go.
        let mut upgraded = rec(10, &[(R1, 5)], &[(R2, 12)], 14);
        upgraded.mix.record(tlr_isa::OpClass::IntAlu);
        rtm.insert(upgraded);
        assert_eq!(rtm.stats().duplicate_stores, 1);
        assert!(cached_block(&mut rtm, 10, 0).is_none());

        let mut vm = fast_vm();
        vm.poke_loc(R1, 5);
        let hit = rtm.lookup_fast(10, &mut vm).unwrap().unwrap();
        assert!(!hit.mix.is_empty(), "rebuilt block carries the new mix");
    }

    #[test]
    fn eviction_discards_the_entry_and_its_block() {
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512); // 4 per PC
        rtm.insert(rec(10, &[(R1, 0)], &[(R2, 100)], 14));
        let mut vm = fast_vm();
        vm.poke_loc(R1, 0);
        rtm.lookup_fast(10, &mut vm).unwrap().unwrap();

        // Fill the PC group past capacity; the LRU entry (v=0, despite
        // its recent hit being older than the newer stores) is evicted.
        for v in 1..=4u64 {
            rtm.insert(rec(10, &[(R1, v)], &[(R2, v * 10)], 14));
        }
        assert!(rtm.stats().evictions >= 1);
        let mut vm = fast_vm();
        vm.poke_loc(R1, 0);
        assert!(
            rtm.lookup_fast(10, &mut vm).unwrap().is_none(),
            "evicted trace must not be served from any cache"
        );
    }

    #[test]
    fn both_lookups_take_the_same_decisions_and_bookkeeping() {
        // Two RTMs with identical contents, one probed through the state
        // closure and one through trace blocks, must pick the same
        // candidates and count the same lookups, hits and rejects.
        let mut by_closure = ReuseTraceMemory::new(RtmConfig::RTM_512);
        let mut by_block = ReuseTraceMemory::new(RtmConfig::RTM_512);
        for v in 0..3u64 {
            let trace = rec(10, &[(R1, v)], &[(R2, v + 100)], 11 + v as u32);
            by_closure.insert(trace.clone());
            by_block.insert(trace);
        }
        for v in [2u64, 0, 7, 1, 2, 9] {
            let mut vm = fast_vm();
            vm.poke_loc(R1, v);
            let closure_hit = by_closure.lookup(10, |loc| vm.peek_loc(loc));
            let block_hit = by_block.lookup_fast(10, &mut vm).unwrap();
            assert_eq!(
                closure_hit.map(|r| r.next_pc),
                block_hit.map(|h| h.next_pc),
                "live-in {v}"
            );
        }
        assert_eq!(by_closure.stats(), by_block.stats());
        assert_eq!(by_closure.stats().value_rejects, 2 + 3 + 2 + 2 + 3);
        assert_eq!(by_closure.export(), by_block.export());
    }

    #[test]
    fn fast_lookup_mirrors_bad_jump_target_errors() {
        // A matched trace whose next_pc is outside the program must fail
        // exactly like lookup + apply_trace: error, no outputs applied.
        let mut rtm = ReuseTraceMemory::new(RtmConfig::RTM_512);
        rtm.insert(rec(10, &[(R1, 5)], &[(R2, 12)], 999));
        let mut vm = fast_vm();
        vm.poke_loc(R1, 5);
        let err = rtm.lookup_fast(10, &mut vm).unwrap_err();
        assert_eq!(
            err,
            VmError::BadJumpTarget {
                pc: vm.pc(),
                target: 999
            }
        );
        assert_eq!(vm.peek_loc(R2), 0, "no outputs applied on error");
        // The reference path counts the hit before apply_trace fails;
        // the fast path's bookkeeping matches.
        assert_eq!(rtm.stats().hits, 1);
    }
}
