//! Pluggable RTM replacement policies and per-trace provenance.
//!
//! The paper's RTM replaces strictly by recency (two-level LRU, §4.6).
//! Under snapshot merging and fleet pooling that is not obviously the
//! right choice: Coppieters et al.'s per-trace contribution analysis
//! (PAPERS.md) shows a small fraction of traces carries most of the
//! reuse, which suggests keeping the *most-hit* (or most
//! instructions-saved) traces rather than the most recent ones. This
//! module makes that an explicit, measurable knob:
//!
//! * [`ReplacementPolicy`] selects the victim-choice rule the RTM (and
//!   snapshot merging, and the serving registry) uses under capacity
//!   pressure;
//! * [`TraceMeta`] is the per-entry provenance that the non-recency
//!   policies rank by — hit count, last-use tick, and the id of the run
//!   that first contributed the trace. It is carried through snapshot
//!   export/import (format v3) so pooled state keeps its history.
//!
//! The reuse *test* is untouched: policies only decide what to evict,
//! never what may be reused, so every policy preserves architectural
//! equivalence (the `reproduce policy` sweep asserts this).

use tlr_isa::{ClassMix, OpClass};

/// Per-[`OpClass`] eviction weights for
/// [`ReplacementPolicy::CostBenefitMeasured`]: roughly "cycles a skipped
/// instruction of this class saves", as measured by a decant attribution
/// pass. Weights are clamped to ≥ 1 when scoring so an unobserved class
/// never zeroes a trace's benefit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ClassWeights {
    weights: [u16; OpClass::COUNT],
}

impl Default for ClassWeights {
    fn default() -> Self {
        Self::UNIT
    }
}

impl ClassWeights {
    /// All-ones weights: every instruction worth exactly one unit, which
    /// makes the measured score degenerate to the plain
    /// [`ReplacementPolicy::CostBenefit`] length weighting.
    pub const UNIT: ClassWeights = ClassWeights {
        weights: [1; OpClass::COUNT],
    };

    /// Build from a per-class table in [`OpClass::ALL`] order.
    pub fn from_table(weights: [u16; OpClass::COUNT]) -> Self {
        Self { weights }
    }

    /// The weight for one class.
    #[inline]
    pub fn get(&self, class: OpClass) -> u16 {
        self.weights[class.index()]
    }

    /// Weighted instruction count of a trace: each attributed
    /// instruction costs its class weight, and any *unattributed* tail
    /// (`len − mix.total()`, nonzero only for records imported from
    /// pre-mix snapshots) costs 1 — so a zero-mix record scores exactly
    /// its length and never gains or loses rank from missing data.
    pub fn effective_len(&self, len: u32, mix: ClassMix) -> u128 {
        let attributed: u128 = mix
            .iter()
            .map(|(class, n)| u128::from(n) * u128::from(self.get(class).max(1)))
            .sum();
        let unattributed = u128::from(len).saturating_sub(mix.total() as u128);
        attributed + unattributed
    }
}

/// How the RTM picks victims under capacity pressure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Least-recently-used, at both the PC-group and entry level — the
    /// paper's hard-wired behaviour and the default.
    #[default]
    Lru,
    /// Frequency-weighted: evict the entry with the fewest recorded
    /// hits (ties broken by recency). Groups are ranked by their total
    /// hit count. Hit counts **age**: the effective count halves every
    /// [`LFU_HALF_LIFE`] RTM ticks since the entry's last use
    /// ([`TraceMeta::decayed_hits`]), so a once-hot trace that stopped
    /// hitting eventually loses to a fresh streak instead of squatting
    /// on its stale total forever.
    Lfu,
    /// Cost/benefit: evict the entry with the least *instructions
    /// saved* potential — `(hits + 1) × trace length` — so a long trace
    /// that skips many instructions per reuse outranks a short one with
    /// the same hit count. Groups are ranked by the same score summed.
    CostBenefit,
    /// Cost/benefit with *measured* per-class weights instead of raw
    /// length: benefit = `(hits + 1) ×` [`ClassWeights::effective_len`],
    /// pricing each skipped instruction by what a decant attribution
    /// pass observed its class to actually save. With
    /// [`ClassWeights::UNIT`] this is exactly
    /// [`ReplacementPolicy::CostBenefit`]. Not in [`ALL`](Self::ALL)
    /// (weights come from a measurement, not a CLI spelling); the
    /// `reproduce policy` sweep reports it alongside the length-weighted
    /// variant.
    CostBenefitMeasured(ClassWeights),
}

impl ReplacementPolicy {
    /// Every policy, in sweep order.
    pub const ALL: [ReplacementPolicy; 3] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Lfu,
        ReplacementPolicy::CostBenefit,
    ];

    /// Stable human-readable name (also the CLI spelling).
    pub fn label(&self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Lfu => "lfu",
            ReplacementPolicy::CostBenefit => "cost-benefit",
            ReplacementPolicy::CostBenefitMeasured(_) => "cost-benefit-measured",
        }
    }

    /// Parse a CLI spelling (`lru` | `lfu` | `cost-benefit` | `cb`),
    /// case-insensitively. `None` for anything else.
    pub fn parse(s: &str) -> Option<ReplacementPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Some(ReplacementPolicy::Lru),
            "lfu" => Some(ReplacementPolicy::Lfu),
            "cost-benefit" | "cb" => Some(ReplacementPolicy::CostBenefit),
            _ => None,
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Aging half-life for [`ReplacementPolicy::Lfu`], in RTM ticks (the
/// RTM advances one tick per lookup or store): an entry's effective hit
/// count halves for every `LFU_HALF_LIFE` ticks it has gone untouched.
/// 4096 ticks is a few round trips through the paper's largest per-PC
/// group under a hot loop — long enough that a briefly idle trace keeps
/// its rank, short enough that a trace idle for a whole phase change
/// does not.
pub const LFU_HALF_LIFE: u64 = 4096;

/// Per-trace provenance: the replacement-relevant history of one RTM
/// entry. Persisted alongside the trace in snapshot format v3 (older
/// snapshots load as all-zero provenance).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct TraceMeta {
    /// Successful reuse tests this trace has answered.
    pub hits: u64,
    /// RTM tick of the last touch (hit or store refresh). Ticks are
    /// per-RTM, so values from different runs are comparable only as a
    /// tie-breaking heuristic — which is exactly how the policies use
    /// them.
    pub last_use: u64,
    /// Identifier of the run that first contributed the trace
    /// (0 when the producer did not stamp one).
    pub source_run: u64,
}

impl TraceMeta {
    /// Fold another sighting of the *same* trace into this provenance:
    /// hit counts add (both runs' reuse really happened), the later
    /// last-use wins, and the original contributor is kept.
    pub fn absorb(&mut self, other: &TraceMeta) {
        self.hits = self.hits.saturating_add(other.hits);
        self.last_use = self.last_use.max(other.last_use);
    }

    /// The cost/benefit score: instructions a future hit would save,
    /// weighted by how often the trace has hit so far.
    pub fn benefit(&self, trace_len: u32) -> u128 {
        (self.hits as u128 + 1) * trace_len as u128
    }

    /// The measured cost/benefit score: like [`TraceMeta::benefit`], but
    /// each skipped instruction is priced by its class weight instead of
    /// counting 1. `ClassWeights::UNIT` makes the two scores identical.
    pub fn benefit_measured(&self, trace_len: u32, mix: ClassMix, weights: &ClassWeights) -> u128 {
        (self.hits as u128 + 1) * weights.effective_len(trace_len, mix)
    }

    /// The LFU ranking score at RTM tick `now`: the recorded hit count
    /// halved once per [`LFU_HALF_LIFE`] ticks since the last use.
    /// Saturating: ticks from a previous life (an imported snapshot's
    /// `last_use` can exceed a fresh RTM's clock) age nothing.
    pub fn decayed_hits(&self, now: u64) -> u64 {
        self.decayed_hits_with(now, LFU_HALF_LIFE)
    }

    /// [`TraceMeta::decayed_hits`] under an explicit half-life. A zero
    /// half-life is treated as 1 tick — maximally forgetful — rather
    /// than a division by zero.
    pub fn decayed_hits_with(&self, now: u64, half_life: u64) -> u64 {
        let epochs = (now.saturating_sub(self.last_use) / half_life.max(1)).min(63);
        self.hits >> epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_labels() {
        for policy in ReplacementPolicy::ALL {
            assert_eq!(ReplacementPolicy::parse(policy.label()), Some(policy));
            assert_eq!(
                ReplacementPolicy::parse(&policy.label().to_uppercase()),
                Some(policy)
            );
        }
        assert_eq!(
            ReplacementPolicy::parse("cb"),
            Some(ReplacementPolicy::CostBenefit)
        );
        assert_eq!(ReplacementPolicy::parse("mru"), None);
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    #[test]
    fn absorb_sums_hits_keeps_origin() {
        let mut a = TraceMeta {
            hits: 3,
            last_use: 10,
            source_run: 7,
        };
        a.absorb(&TraceMeta {
            hits: 2,
            last_use: 99,
            source_run: 8,
        });
        assert_eq!(a.hits, 5);
        assert_eq!(a.last_use, 99);
        assert_eq!(a.source_run, 7, "origin run must survive an absorb");
        a.absorb(&TraceMeta {
            hits: u64::MAX,
            last_use: 0,
            source_run: 9,
        });
        assert_eq!(a.hits, u64::MAX, "hit counts saturate, never wrap");
    }

    #[test]
    fn decayed_hits_halve_per_half_life() {
        let meta = TraceMeta {
            hits: 8,
            last_use: 100,
            ..TraceMeta::default()
        };
        assert_eq!(meta.decayed_hits(100), 8, "no age, no decay");
        assert_eq!(meta.decayed_hits(100 + LFU_HALF_LIFE - 1), 8);
        assert_eq!(meta.decayed_hits(100 + LFU_HALF_LIFE), 4);
        assert_eq!(meta.decayed_hits(100 + 3 * LFU_HALF_LIFE), 1);
        assert_eq!(meta.decayed_hits(100 + 4 * LFU_HALF_LIFE), 0);
        // An imported trace's last_use may be from a longer-lived clock.
        assert_eq!(meta.decayed_hits(0), 8, "future last_use must not wrap");
        // The shift is clamped: astronomically old entries don't overflow.
        let ancient = TraceMeta {
            hits: u64::MAX,
            last_use: 0,
            ..TraceMeta::default()
        };
        assert_eq!(ancient.decayed_hits(u64::MAX), u64::MAX >> 63);
    }

    #[test]
    fn decayed_hits_with_respects_custom_half_life() {
        let meta = TraceMeta {
            hits: 8,
            last_use: 100,
            ..TraceMeta::default()
        };
        // A shorter half-life forgets faster than the default …
        assert_eq!(meta.decayed_hits_with(100 + 64, 64), 4);
        assert_eq!(meta.decayed_hits(100 + 64), 8);
        // … a longer one slower.
        assert_eq!(meta.decayed_hits_with(100 + 4 * LFU_HALF_LIFE, u64::MAX), 8);
        // The default delegates.
        assert_eq!(
            meta.decayed_hits(100 + LFU_HALF_LIFE),
            meta.decayed_hits_with(100 + LFU_HALF_LIFE, LFU_HALF_LIFE)
        );
        // Zero half-life is clamped, not a division by zero.
        assert_eq!(meta.decayed_hits_with(100 + 63, 0), 0);
    }

    #[test]
    fn unit_weights_reduce_measured_benefit_to_plain() {
        let meta = TraceMeta {
            hits: 5,
            ..TraceMeta::default()
        };
        let mut mix = ClassMix::EMPTY;
        for _ in 0..3 {
            mix.record(OpClass::FpDiv);
        }
        mix.record(OpClass::Load);
        assert_eq!(
            meta.benefit_measured(4, mix, &ClassWeights::UNIT),
            meta.benefit(4)
        );
        // Zero-mix records (old snapshots) also score exactly their
        // length under any weights' unattributed fallback.
        assert_eq!(
            meta.benefit_measured(9, ClassMix::EMPTY, &ClassWeights::UNIT),
            meta.benefit(9)
        );
    }

    #[test]
    fn measured_weights_price_classes_differently() {
        let mut table = [1u16; OpClass::COUNT];
        table[OpClass::FpDiv.index()] = 22;
        let weights = ClassWeights::from_table(table);
        let mut divs = ClassMix::EMPTY;
        divs.record(OpClass::FpDiv);
        divs.record(OpClass::FpDiv);
        let mut alus = ClassMix::EMPTY;
        alus.record(OpClass::IntAlu);
        alus.record(OpClass::IntAlu);
        let meta = TraceMeta::default();
        // Same length, but the divide-heavy trace saves far more.
        assert!(
            meta.benefit_measured(2, divs, &weights) > meta.benefit_measured(2, alus, &weights)
        );
        assert_eq!(meta.benefit_measured(2, divs, &weights), 44);
        // Attributed part weighted, unattributed tail counts 1 each.
        assert_eq!(meta.benefit_measured(5, divs, &weights), 44 + 3);
        // A zero weight is clamped to 1 when scoring.
        let zeroed = ClassWeights::from_table([0; OpClass::COUNT]);
        assert_eq!(meta.benefit_measured(2, alus, &zeroed), 2);
        assert_eq!(
            ReplacementPolicy::CostBenefitMeasured(weights).label(),
            "cost-benefit-measured"
        );
        assert_eq!(ReplacementPolicy::parse("cost-benefit-measured"), None);
    }

    #[test]
    fn benefit_weights_length_and_hits() {
        let cold = TraceMeta::default();
        let hot = TraceMeta {
            hits: 9,
            ..TraceMeta::default()
        };
        // A never-hit long trace can outrank a hot short one …
        assert!(cold.benefit(30) > hot.benefit(2));
        // … but frequency dominates at equal length.
        assert!(hot.benefit(4) > cold.benefit(4));
    }
}
