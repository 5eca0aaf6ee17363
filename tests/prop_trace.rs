//! Property tests for the trace accumulator and trace merging against a
//! set/map reference model.
//!
//! [`TraceAccum`] and [`TraceRecord::merge`] find live-ins and outputs
//! by scanning the I/O lists themselves. The model below keeps the same
//! lists plus a hash set of live-in locations and a hash map from output
//! location to list index, the straightforward reading of §3.1. On
//! random read/write streams under random [`IoCaps`] (the paper's caps
//! and unlimited ones among them) both must agree on every acceptance,
//! every refusal, every finished record and every merge.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use tlr_core::{IoCaps, TraceAccum, TraceRecord};
use tlr_isa::{ClassMix, DynInstr, Loc, OpClass};

/// The reference accumulator: hash set / hash map membership.
struct ModelAccum {
    caps: IoCaps,
    start_pc: Option<u32>,
    next_pc: u32,
    len: u32,
    ins: Vec<(Loc, u64)>,
    outs: Vec<(Loc, u64)>,
    mix: ClassMix,
    in_locs: HashSet<Loc>,
    out_index: HashMap<Loc, usize>,
}

impl ModelAccum {
    fn new(caps: IoCaps) -> Self {
        Self {
            caps,
            start_pc: None,
            next_pc: 0,
            len: 0,
            ins: Vec::new(),
            outs: Vec::new(),
            mix: ClassMix::EMPTY,
            in_locs: HashSet::new(),
            out_index: HashMap::new(),
        }
    }

    fn count(&self, set: &[(Loc, u64)], mem: bool) -> usize {
        set.iter().filter(|(l, _)| l.is_mem() == mem).count()
    }

    fn try_add(&mut self, d: &DynInstr) -> bool {
        let mut new = [0usize; 4]; // reg in, mem in, reg out, mem out
        for (loc, _) in d.reads.iter() {
            if !self.out_index.contains_key(loc) && !self.in_locs.contains(loc) {
                new[usize::from(loc.is_mem())] += 1;
            }
        }
        for (loc, _) in d.writes.iter() {
            if !self.out_index.contains_key(loc) {
                new[2 + usize::from(loc.is_mem())] += 1;
            }
        }
        if self.count(&self.ins, false) + new[0] > self.caps.reg_in
            || self.count(&self.ins, true) + new[1] > self.caps.mem_in
            || self.count(&self.outs, false) + new[2] > self.caps.reg_out
            || self.count(&self.outs, true) + new[3] > self.caps.mem_out
        {
            return false;
        }
        self.start_pc.get_or_insert(d.pc);
        for (loc, val) in d.reads.iter() {
            if !self.out_index.contains_key(loc) && self.in_locs.insert(*loc) {
                self.ins.push((*loc, *val));
            }
        }
        for (loc, val) in d.writes.iter() {
            match self.out_index.get(loc) {
                Some(&i) => self.outs[i].1 = *val,
                None => {
                    self.out_index.insert(*loc, self.outs.len());
                    self.outs.push((*loc, *val));
                }
            }
        }
        self.next_pc = d.next_pc;
        self.mix.record(d.class);
        self.len += 1;
        true
    }

    fn finalize(&mut self) -> Option<TraceRecord> {
        let start_pc = self.start_pc.take()?;
        let record = TraceRecord {
            start_pc,
            next_pc: self.next_pc,
            len: self.len,
            ins: std::mem::take(&mut self.ins).into_boxed_slice(),
            outs: std::mem::take(&mut self.outs).into_boxed_slice(),
            mix: std::mem::take(&mut self.mix),
        };
        *self = Self::new(self.caps);
        Some(record)
    }
}

/// The reference merge: hash set / hash map membership.
fn model_merge(a: &TraceRecord, b: &TraceRecord, caps: &IoCaps) -> Option<TraceRecord> {
    if a.next_pc != b.start_pc {
        return None;
    }
    let a_out: HashSet<Loc> = a.outs.iter().map(|(l, _)| *l).collect();
    let a_in: HashSet<Loc> = a.ins.iter().map(|(l, _)| *l).collect();
    let mut ins = a.ins.to_vec();
    ins.extend(
        b.ins
            .iter()
            .filter(|(l, _)| !a_out.contains(l) && !a_in.contains(l)),
    );
    let mut outs = a.outs.to_vec();
    let mut index: HashMap<Loc, usize> =
        outs.iter().enumerate().map(|(i, (l, _))| (*l, i)).collect();
    for (loc, val) in b.outs.iter() {
        match index.get(loc) {
            Some(&i) => outs[i].1 = *val,
            None => {
                index.insert(*loc, outs.len());
                outs.push((*loc, *val));
            }
        }
    }
    let record = TraceRecord {
        start_pc: a.start_pc,
        next_pc: b.next_pc,
        len: a.len + b.len,
        ins: ins.into_boxed_slice(),
        outs: outs.into_boxed_slice(),
        mix: a.mix.sum(b.mix),
    };
    record.within_caps(caps).then_some(record)
}

/// A small location pool, so streams re-read and re-write locations.
fn loc() -> impl Strategy<Value = Loc> {
    prop_oneof![
        (0u8..6).prop_map(Loc::IntReg),
        (0u8..3).prop_map(Loc::FpReg),
        (0u64..5).prop_map(Loc::Mem),
    ]
}

/// A location/value pair; values come from a small range too, so equal
/// and unequal re-reads both occur.
fn pair() -> impl Strategy<Value = (Loc, u64)> {
    (loc(), 0u64..4)
}

/// One executed instruction: up to `MAX_READS` reads (duplicates
/// allowed) and up to `MAX_WRITES` writes.
fn instr() -> impl Strategy<Value = DynInstr> {
    (
        0u32..64,
        0usize..OpClass::ALL.len(),
        proptest::collection::vec(pair(), 0..=tlr_isa::dynrec::MAX_READS),
        proptest::collection::vec(pair(), 0..=tlr_isa::dynrec::MAX_WRITES),
    )
        .prop_map(|(pc, class, reads, writes)| DynInstr {
            pc,
            next_pc: pc + 1,
            class: OpClass::ALL[class],
            reads: reads.into_iter().collect(),
            writes: writes.into_iter().collect(),
        })
}

/// Random caps, with the paper's and unlimited caps drawn often.
fn caps() -> impl Strategy<Value = IoCaps> {
    prop_oneof![
        Just(IoCaps::PAPER),
        Just(IoCaps::UNLIMITED),
        (0usize..6, 0usize..4, 0usize..6, 0usize..4).prop_map(
            |(reg_in, mem_in, reg_out, mem_out)| IoCaps {
                reg_in,
                mem_in,
                reg_out,
                mem_out,
            }
        ),
    ]
}

/// Identity equality excludes the class mix, so compare it too.
fn same_record(a: &TraceRecord, b: &TraceRecord) -> bool {
    a == b && a.mix == b.mix
}

/// Build a record from `stream` under unlimited caps.
fn record_of(stream: &[DynInstr]) -> Option<TraceRecord> {
    let mut acc = TraceAccum::new(IoCaps::UNLIMITED);
    for d in stream {
        assert!(acc.try_add(d));
    }
    acc.finalize()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Accepted instructions extend live-ins in first-read order with
    /// first-read values and live-outs in first-write order with final
    /// values, exactly as the model does; a refusal changes nothing;
    /// finalized records are identical, class mix included, and so is
    /// everything collected after a finalize or a clear.
    #[test]
    fn accum_matches_the_set_map_model(
        caps in caps(),
        stream in proptest::collection::vec((instr(), 0u8..8), 0..48),
    ) {
        let mut acc = TraceAccum::new(caps);
        let mut model = ModelAccum::new(caps);
        for (step, (d, finalize_roll)) in stream.iter().enumerate() {
            let before = (acc.len(), acc.live_ins().to_vec(), acc.live_outs().to_vec());
            let added = acc.try_add(d);
            prop_assert_eq!(added, model.try_add(d), "step {}: acceptance differs", step);
            if !added {
                let after = (acc.len(), acc.live_ins().to_vec(), acc.live_outs().to_vec());
                prop_assert_eq!(&after, &before, "step {}: a refusal mutated the accumulator", step);
            }
            prop_assert_eq!(acc.len(), model.len, "step {}", step);
            prop_assert_eq!(acc.live_ins(), model.ins.as_slice(), "step {}: live-ins", step);
            prop_assert_eq!(acc.live_outs(), model.outs.as_slice(), "step {}: live-outs", step);
            if *finalize_roll == 0 {
                let (got, want) = (acc.finalize(), model.finalize());
                prop_assert_eq!(got.is_some(), want.is_some(), "step {}: finalize", step);
                if let (Some(got), Some(want)) = (got, want) {
                    prop_assert!(same_record(&got, &want), "step {}: {:?} != {:?}", step, got, want);
                    prop_assert!(got.within_caps(&caps), "step {}: record exceeds caps", step);
                }
                prop_assert!(acc.is_empty() && acc.live_ins().is_empty() && acc.live_outs().is_empty());
            } else if *finalize_roll == 1 {
                // Discarding the trace leaves an accumulator that behaves
                // like a fresh one.
                acc.clear();
                model = ModelAccum::new(caps);
                prop_assert!(acc.is_empty() && acc.live_ins().is_empty() && acc.live_outs().is_empty());
            }
        }
        let (got, want) = (acc.finalize(), model.finalize());
        prop_assert_eq!(got.is_some(), want.is_some());
        if let (Some(got), Some(want)) = (got, want) {
            prop_assert!(same_record(&got, &want), "{:?} != {:?}", got, want);
        }
    }

    /// Merging two collected traces gives the model's record, and the
    /// same cap rejections (and adjacency rejections).
    #[test]
    fn merge_matches_the_set_map_model(
        caps in caps(),
        first in proptest::collection::vec(instr(), 1..12),
        second in proptest::collection::vec(instr(), 1..12),
        adjacent in 0u8..4,
    ) {
        let a = record_of(&first).expect("non-empty stream");
        let mut b = record_of(&second).expect("non-empty stream");
        if adjacent != 0 {
            b.start_pc = a.next_pc;
        }
        let (got, want) = (a.merge(&b, &caps), model_merge(&a, &b, &caps));
        prop_assert_eq!(got.is_some(), want.is_some(), "merge acceptance differs");
        if let (Some(got), Some(want)) = (got, want) {
            prop_assert!(same_record(&got, &want), "{:?} != {:?}", got, want);
        }
    }
}
