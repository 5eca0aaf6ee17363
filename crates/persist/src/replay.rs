//! Deterministic replay of recorded instruction streams.
//!
//! Replay re-executes the program from scratch and checks every executed
//! instruction against the recording — PC, next PC, and the full ordered
//! read/write sets (live-in and live-out values). Any mismatch aborts
//! with [`PersistError::Divergence`] identifying the record index and
//! both sides, in the spirit of wasm-rr's divergence checks: a replay
//! that silently drifts is worse than no replay at all.
//!
//! Because the VM is deterministic, divergence can only mean the trace
//! file belongs to a different program/configuration (normally caught
//! earlier by the header fingerprint) or the file is damaged in a way
//! the checksum did not cover (e.g. hand-edited JSON).

use crate::error::{PersistError, Result};
use crate::stream::{TraceFile, TraceReader};
use std::io::Read;
use tlr_asm::Program;
use tlr_isa::{DynInstr, Loc};
use tlr_vm::{StepResult, Vm};

/// A source of recorded instructions for replay.
pub trait RecordSource {
    /// Next recorded instruction, or `Ok(None)` at the end.
    fn next_record(&mut self) -> Result<Option<DynInstr>>;

    /// Whether the recorded run halted; `None` when unknown (only known
    /// after the end of the source has been reached).
    fn halted(&self) -> Option<bool>;
}

impl<R: Read> RecordSource for TraceReader<R> {
    fn next_record(&mut self) -> Result<Option<DynInstr>> {
        TraceReader::next_record(self)
    }

    fn halted(&self) -> Option<bool> {
        TraceReader::halted(self)
    }
}

/// In-memory source over a loaded [`TraceFile`].
pub struct MemorySource {
    records: std::vec::IntoIter<DynInstr>,
    halted: bool,
}

impl From<TraceFile> for MemorySource {
    fn from(file: TraceFile) -> Self {
        Self {
            records: file.records.into_iter(),
            halted: file.halted,
        }
    }
}

impl RecordSource for MemorySource {
    fn next_record(&mut self) -> Result<Option<DynInstr>> {
        Ok(self.records.next())
    }

    fn halted(&self) -> Option<bool> {
        Some(self.halted)
    }
}

/// What a successful replay did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplayStats {
    /// Instructions replayed and verified.
    pub replayed: u64,
    /// Whether the run ended on `halt` (verified against the recording
    /// when the recording carries that information).
    pub halted: bool,
}

fn describe(d: &DynInstr) -> String {
    let sets = |items: &[(Loc, u64)]| {
        items
            .iter()
            .map(|(l, v)| format!("{l}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        "pc={} -> {} reads[{}] writes[{}]",
        d.pc,
        d.next_pc,
        sets(d.reads.as_slice()),
        sets(d.writes.as_slice())
    )
}

/// Replay `source` against a fresh run of `program`, failing loudly on
/// the first divergence. On success the final architectural state of the
/// returned [`Vm`] equals the recording run's state.
pub fn replay(program: &Program, source: &mut dyn RecordSource) -> Result<(ReplayStats, Vm)> {
    let mut vm = Vm::new(program);
    let mut actual = DynInstr::default();
    let mut index = 0u64;
    while let Some(expected) = source.next_record()? {
        match vm.step_into(&mut actual) {
            Ok(true) => {}
            Ok(false) => {
                return Err(PersistError::Divergence {
                    index,
                    expected: describe(&expected),
                    actual: "halt".into(),
                })
            }
            Err(e) => {
                return Err(PersistError::Divergence {
                    index,
                    expected: describe(&expected),
                    actual: format!("vm error: {e}"),
                })
            }
        }
        if actual != expected {
            return Err(PersistError::Divergence {
                index,
                expected: describe(&expected),
                actual: describe(&actual),
            });
        }
        index += 1;
    }
    // If the recording says the run halted, the very next step must
    // halt; if it says the budget ran out, the program must NOT have
    // already halted mid-recording (any halt would have been recorded as
    // the end).
    let halted = match source.halted() {
        Some(true) => match vm.step() {
            Ok(StepResult::Halted) => true,
            Ok(StepResult::Executed(d)) => {
                return Err(PersistError::Divergence {
                    index,
                    expected: "halt".into(),
                    actual: describe(&d),
                })
            }
            Err(e) => {
                return Err(PersistError::Divergence {
                    index,
                    expected: "halt".into(),
                    actual: format!("vm error: {e}"),
                })
            }
        },
        _ => false,
    };
    Ok((
        ReplayStats {
            replayed: index,
            halted,
        },
        vm,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{TraceReader, TraceWriter};
    use crate::wire::program_fingerprint;
    use tlr_asm::assemble;
    use tlr_isa::StreamSink;
    use tlr_vm::RunOutcome;

    const LOOP: &str = r#"
            li      r1, 6
            li      r2, 0
    loop:   addq    r2, r2, r1
            subq    r1, r1, 1
            bnez    r1, loop
            stq     r2, 100(zero)
            halt
    "#;

    fn record(src: &str, budget: u64) -> (Program, Vec<u8>) {
        let program = assemble(src).unwrap();
        let mut buf = Vec::new();
        let mut sink = TraceWriter::new(&mut buf, program_fingerprint(&program)).unwrap();
        let outcome = Vm::new(&program).run(budget, &mut sink).unwrap();
        sink.set_halted(matches!(outcome, RunOutcome::Halted { .. }));
        sink.finish();
        sink.close().unwrap();
        (program, buf)
    }

    #[test]
    fn faithful_replay_reaches_identical_state() {
        let (program, buf) = record(LOOP, 10_000);
        let mut reader = TraceReader::new(buf.as_slice(), None).unwrap();
        let (stats, vm) = replay(&program, &mut reader).unwrap();
        assert!(stats.halted);
        assert_eq!(
            stats.replayed,
            Vm::new(&program)
                .run(10_000, &mut tlr_isa::NullSink)
                .unwrap()
                .executed()
        );
        assert_eq!(vm.peek_loc(Loc::Mem(100)), 6 + 5 + 4 + 3 + 2 + 1);
    }

    #[test]
    fn budget_bounded_recording_replays() {
        let (program, buf) = record(LOOP, 7);
        let mut reader = TraceReader::new(buf.as_slice(), None).unwrap();
        let (stats, _) = replay(&program, &mut reader).unwrap();
        assert_eq!(stats.replayed, 7);
        assert!(!stats.halted);
    }

    #[test]
    fn divergence_on_wrong_program() {
        let (_, buf) = record(LOOP, 10_000);
        // Same shape, different constant: the stream's fingerprint would
        // normally catch this, so bypass that check to exercise the
        // per-record comparison.
        let other = assemble(LOOP.replace("li      r1, 6", "li      r1, 5").as_str()).unwrap();
        let mut reader = TraceReader::new(buf.as_slice(), None).unwrap();
        match replay(&other, &mut reader) {
            Err(PersistError::Divergence { index, .. }) => assert_eq!(index, 0),
            Err(other) => panic!("expected divergence, got {other}"),
            Ok(_) => panic!("expected divergence, replay succeeded"),
        }
    }

    #[test]
    fn divergence_on_tampered_record() {
        let (program, buf) = record(LOOP, 10_000);
        let mut file = crate::stream::TraceReader::new(buf.as_slice(), None)
            .map(|mut r| {
                let records = r.read_to_end().unwrap();
                crate::stream::TraceFile {
                    fingerprint: r.header().fingerprint,
                    records,
                    halted: r.halted().unwrap(),
                }
            })
            .unwrap();
        // Tamper with a recorded live-in value.
        let target = &mut file.records[4];
        if let Some(first) = target.reads.as_mut_slice().first_mut() {
            first.1 ^= 0xff;
        } else {
            target.next_pc ^= 1;
        }
        let mut source = MemorySource::from(file);
        match replay(&program, &mut source) {
            Err(PersistError::Divergence { index, .. }) => assert_eq!(index, 4),
            Err(other) => panic!("expected divergence, got {other}"),
            Ok(_) => panic!("expected divergence, replay succeeded"),
        }
    }

    #[test]
    fn premature_halt_detected() {
        // Record the full run, then claim "budget" ended earlier than the
        // halt and append a bogus extra record: replay must notice the VM
        // halts when the recording expects another instruction.
        let (program, buf) = record(LOOP, 10_000);
        let mut reader = TraceReader::new(buf.as_slice(), None).unwrap();
        let mut records = reader.read_to_end().unwrap();
        let extra = records[0].clone();
        records.push(extra);
        let mut source = MemorySource::from(crate::stream::TraceFile {
            fingerprint: 0,
            records,
            halted: false,
        });
        match replay(&program, &mut source) {
            Err(PersistError::Divergence { actual, .. }) => assert_eq!(actual, "halt"),
            Err(other) => panic!("expected divergence, got {other}"),
            Ok(_) => panic!("expected divergence, replay succeeded"),
        }
    }
}
