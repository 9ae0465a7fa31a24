//! The benchmark's client: one thread keeping a fixed number of
//! tickets in flight through the public front door, checking every
//! answer against the source reads.

use crate::gen::Op;
use crate::proc::Stopwatch;
use crate::spans::Recorder;
use sage_genomics::{Read, ReadSet};
use sage_store::{ReadView, Session, Ticket};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// The reads a workload's store was built from. Read id `g` of the
/// store always holds `reads[g % len]`: appends continue through the
/// source and wrap.
#[derive(Debug)]
pub struct Source {
    reads: ReadSet,
}

impl Source {
    pub fn new(reads: ReadSet) -> Source {
        assert!(!reads.is_empty(), "a workload needs reads");
        Source { reads }
    }

    pub fn len(&self) -> usize {
        self.reads.len()
    }

    pub fn read(&self, id: u64) -> &Read {
        &self.reads.reads()[(id % self.reads.len() as u64) as usize]
    }

    /// An owned copy of reads `ids`, as an append submits them.
    pub fn batch(&self, ids: Range<u64>) -> ReadSet {
        ids.map(|g| self.read(g).clone()).collect()
    }

    /// Bases plus quality bytes of reads `ids`.
    pub fn user_bytes(&self, ids: Range<u64>) -> u64 {
        ids.map(|g| user_bytes(self.read(g))).sum()
    }
}

pub fn user_bytes(read: &Read) -> u64 {
    (read.seq.len() + read.qual.as_ref().map_or(0, Vec::len)) as u64
}

/// `true` when `view` holds exactly the source's reads `first..`, in
/// order, base for base and quality for quality. Stored reads carry no
/// `id`, so ids are not compared.
pub fn view_matches(view: &ReadView, first: u64, n: u64, source: &Source) -> bool {
    view.len() as u64 == n
        && view.iter().zip(first..).all(|(got, g)| {
            let want = source.read(g);
            got.seq == want.seq && got.qual == want.qual
        })
}

/// What one round of ops measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The share of the machine's CPU time the hypervisor gave to other
    /// guests during the round.
    pub steal_share: f64,
    /// Ops attempted (gets, scans and appends).
    pub ops: u64,
    /// Ops that errored, were refused, or answered wrongly.
    pub failed: u64,
    /// Reads delivered by gets and scans.
    pub reads: u64,
    /// Bases plus quality bytes delivered by gets and scans.
    pub user_bytes: u64,
    /// Submit-to-answer latency of every get and scan, µs, sorted.
    pub op_us: Vec<f64>,
    /// Their nearest-rank median.
    pub op_p50_us: f64,
    /// Submit-to-answer latency of every append, ms.
    pub append_ms: Vec<f64>,
    /// Bases plus quality bytes appended.
    pub appended_bytes: u64,
}

enum Pending {
    Reads {
        ticket: Ticket<ReadView>,
        first: u64,
        n: u64,
    },
    Appended {
        ticket: Ticket<u64>,
        first: u64,
        bytes: u64,
    },
}

struct InFlight {
    index: u64,
    name: &'static str,
    submitted: Instant,
    pending: Pending,
}

/// Runs `ops` in order against `session`, a closed loop with
/// `in_flight` tickets: the next submit follows a completion. An
/// append is a barrier — everything before it is answered first, and
/// it is answered before anything after it is submitted — so the gets
/// that follow may read what it wrote.
///
/// `stored` is the number of reads the store holds when the round
/// starts (what a scan must return); it is advanced by every append
/// that succeeds. Each op's latency runs from just before its submit
/// to `Ticket::wait` returning; the answer is checked after that timer
/// stops, on this thread, before the next submit.
pub fn drive(
    session: &Session,
    ops: &[Op],
    in_flight: usize,
    source: &Source,
    stored: &mut u64,
    first_op_index: u64,
    mut spans: Option<&mut Recorder>,
) -> Round {
    let mut round = Round::default();
    let mut queue: VecDeque<InFlight> = VecDeque::with_capacity(in_flight);
    let watch = Stopwatch::start();

    // Answers one ticket; `true` when the answer arrived and is right.
    let mut complete = |slot: InFlight, round: &mut Round| -> bool {
        let ok = match slot.pending {
            Pending::Reads { ticket, first, n } => {
                let answer = ticket.wait();
                let done = Instant::now();
                round
                    .op_us
                    .push(done.duration_since(slot.submitted).as_secs_f64() * 1e6);
                if let Some(rec) = spans.as_deref_mut() {
                    let lane = 100 + (slot.index % in_flight as u64) as u32;
                    rec.record(slot.name, slot.index, lane, slot.submitted, done);
                }
                match answer {
                    Ok(c) if view_matches(&c.value, first, n, source) => {
                        round.reads += n;
                        round.user_bytes += source.user_bytes(first..first + n);
                        true
                    }
                    _ => false,
                }
            }
            Pending::Appended {
                ticket,
                first,
                bytes,
            } => {
                let answer = ticket.wait();
                let done = Instant::now();
                round
                    .append_ms
                    .push(done.duration_since(slot.submitted).as_secs_f64() * 1e3);
                if let Some(rec) = spans.as_deref_mut() {
                    rec.record(slot.name, slot.index, 100, slot.submitted, done);
                }
                match answer {
                    Ok(c) if c.value == first => {
                        round.appended_bytes += bytes;
                        true
                    }
                    _ => false,
                }
            }
        };
        if !ok {
            round.failed += 1;
        }
        ok
    };

    for (i, op) in ops.iter().enumerate() {
        let index = first_op_index + i as u64;
        let is_append = matches!(op, Op::Append { .. });
        while queue.len() >= if is_append { 1 } else { in_flight } {
            let slot = queue.pop_front().expect("non-empty");
            complete(slot, &mut round);
        }
        round.ops += 1;
        let (name, submitted, pending) = match op {
            Op::Scan => {
                let n = *stored;
                let submitted = Instant::now();
                let ticket = session.scan(|_| true);
                (
                    "client.scan",
                    submitted,
                    ticket.map(|ticket| Pending::Reads {
                        ticket,
                        first: 0,
                        n,
                    }),
                )
            }
            Op::Get(range) => {
                let submitted = Instant::now();
                let ticket = session.get(range.clone());
                (
                    "client.get",
                    submitted,
                    ticket.map(|ticket| Pending::Reads {
                        ticket,
                        first: range.start,
                        n: range.end - range.start,
                    }),
                )
            }
            Op::Append { first, n } => {
                let ids = *first..*first + *n as u64;
                let batch = source.batch(ids.clone());
                let bytes = source.user_bytes(ids);
                let submitted = Instant::now();
                let ticket = session.append(&batch);
                (
                    "client.append",
                    submitted,
                    ticket.map(|ticket| Pending::Appended {
                        ticket,
                        first: *first,
                        bytes,
                    }),
                )
            }
        };
        match pending {
            Ok(pending) => queue.push_back(InFlight {
                index,
                name,
                submitted,
                pending,
            }),
            // Refused at the door (queue closed or full).
            Err(_) => round.failed += 1,
        }
        if let Op::Append { n, .. } = op {
            // The queue was drained above, so it holds at most the
            // append itself (nothing, if it was refused).
            if let Some(slot) = queue.pop_front() {
                if complete(slot, &mut round) {
                    *stored += *n as u64;
                }
            }
        }
    }
    while let Some(slot) = queue.pop_front() {
        complete(slot, &mut round);
    }

    let elapsed = watch.read();
    round.wall_s = elapsed.wall_s;
    round.cpu_s = elapsed.cpu_s;
    round.steal_share = elapsed.steal_share;
    if !round.op_us.is_empty() {
        round.op_p50_us = crate::stats::p50(&mut round.op_us);
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};
    use sage_store::DatasetBuilder;

    fn tiny() -> ReadSet {
        simulate_dataset(&DatasetProfile::tiny_short(), 4).reads
    }

    #[test]
    fn a_view_matches_only_the_reads_it_was_asked_for() {
        let reads = tiny();
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .encode(&reads)
            .unwrap();
        let view = dataset.session().get(8..40).unwrap().join().unwrap();
        let source = Source::new(reads);
        assert!(view_matches(&view, 8, 32, &source));
        assert!(!view_matches(&view, 9, 32, &source), "shifted by one read");
        assert!(!view_matches(&view, 8, 31, &source), "one read too many");
        assert!(!view_matches(&view, 8, 33, &source), "one read too few");
    }

    #[test]
    fn every_wrong_or_refused_answer_is_counted_as_failed() {
        let reads = tiny();
        let n = reads.len() as u64;
        let dataset = DatasetBuilder::new()
            .chunk_reads(16)
            .encode(&reads)
            .unwrap();
        let session = dataset.session();
        let ops = [
            Op::Get(0..16),
            Op::Scan,
            Op::Append { first: n, n: 16 },
            Op::Get(n..n + 16),
            Op::Get(n + 16..n + 32), // past the end: the store answers Err
        ];
        let right = Source::new(reads.clone());
        let mut stored = n;
        let round = drive(&session, &ops, 4, &right, &mut stored, 0, None);
        assert_eq!((round.ops, round.failed), (5, 1));
        assert_eq!(stored, n + 16, "the append advanced the store");
        assert_eq!(round.op_us.len(), 4);
        assert_eq!(round.append_ms.len(), 1);
        assert_eq!(round.reads, 16 + n + 16);

        // The same store checked against other reads: every answer is wrong.
        let wrong = Source::new(simulate_dataset(&DatasetProfile::tiny_short(), 5).reads);
        let mut stored = n + 16;
        let round = drive(
            &session,
            &[Op::Get(0..16), Op::Scan],
            2,
            &wrong,
            &mut stored,
            0,
            None,
        );
        assert_eq!((round.ops, round.failed, round.reads), (2, 2, 0));
    }
}
