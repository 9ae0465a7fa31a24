//! Read-to-consensus mapping (the compression-side analysis of §5.1).
//!
//! SAGe, like other consensus-based genomic compressors, identifies
//! each read's matching position and mismatch list by mapping it to the
//! consensus sequence during compression. The mapper here is a
//! seed-chain-extend design:
//!
//! 1. sample [`minimizer`]s of the read, look them up in the consensus
//!    index, and vote on a diagonal;
//! 2. chain co-diagonal anchors monotonically;
//! 3. align the stretches between anchors (and the read's ends) with
//!    the unit-cost [`dp`] kernels;
//! 4. reads whose ends do not map are *split*: up to
//!    [`MapperConfig::max_segments`] segments are mapped independently
//!    (chimeric reads, Property 4); leftover unaligned ends become
//!    clips (§5.1.4) or insertions.
//!
//! Every produced alignment is *verified* by reconstruction before
//! being returned, so a mapper imperfection can never break
//! losslessness — the read simply falls back to unmapped/raw storage.
//!
//! Step 1 does not sample a read the compressor has already sampled:
//! the whole read's two minimizer lists (forward and reverse
//! complement) and its reverse complement arrive with it from the
//! consensus stage (`SampledReads`). [`Mapper::map`] prepares the same
//! thing for a lone read and takes the same path; only the pieces of a
//! split read (step 4) are sampled here.

pub mod dp;
pub mod minimizer;

use dp::{align_free_end, align_free_start, align_global, Op};
use minimizer::{minimizers_into, Minimizer, MinimizerIndex};
use sage_genomics::{Alignment, Base, Edit, Read, Segment};

/// Tuning knobs for the mapper.
#[derive(Debug, Clone)]
pub struct MapperConfig {
    /// Minimizer k-mer length.
    pub k: usize,
    /// Minimizer window length.
    pub w: usize,
    /// Base band half-width for gap alignment.
    pub band: usize,
    /// DP cell budget per gap (larger gaps fall back to del+ins runs).
    pub max_gap_cells: usize,
    /// Minimum chained anchors to accept a segment.
    pub min_chain_anchors: usize,
    /// Maximum segments per read (the paper's top-N, N = 3).
    pub max_segments: usize,
    /// Minimum unaligned run length worth mapping as its own segment.
    pub min_split_len: usize,
    /// Unaligned read-end runs at least this long become clips.
    pub clip_threshold: usize,
    /// Maximum indel block length per edit record (longer blocks are
    /// split; the encoder stores block lengths in 8 bits).
    pub max_block: u32,
}

impl Default for MapperConfig {
    fn default() -> MapperConfig {
        MapperConfig {
            k: minimizer::DEFAULT_K,
            w: minimizer::DEFAULT_W,
            band: 48,
            max_gap_cells: 1 << 22,
            min_chain_anchors: 2,
            max_segments: 3,
            min_split_len: 48,
            clip_threshold: 32,
            max_block: 255,
        }
    }
}

/// Reverse-complements a base slice.
pub fn revcomp(seq: &[Base]) -> Vec<Base> {
    seq.iter().rev().map(|b| b.complement()).collect()
}

/// Replaces `N` with `A` (2-bit masking; SAGe restores `N` positions
/// from corner-case records).
pub fn mask_n(seq: &[Base]) -> Vec<Base> {
    seq.iter().map(|&b| masked(b)).collect()
}

fn masked(b: Base) -> Base {
    if b.is_n() {
        Base::A
    } else {
        b
    }
}

/// A read set prepared for the encoder's two mismatch-finding stages:
/// every read `N`-masked, in both orientations, with each orientation's
/// minimizers — each computed once. The consensus builder indexes and
/// probes the lists, the mapper then chains the same lists against the
/// finished consensus, and the stream writer stores an unmapped read's
/// masked bases from here.
///
/// Flat: all forward bases in one vector, all reverse complements in
/// another, all minimizers in a third, so preparing a chunk costs a
/// handful of allocations, not four per read.
#[derive(Debug)]
pub(crate) struct SampledReads {
    k: usize,
    w: usize,
    fwd: Vec<Base>,
    rc: Vec<Base>,
    /// Per read, its forward list then its reverse-complement list.
    mins: Vec<Minimizer>,
    /// Where each read's data starts, plus a closing entry.
    starts: Vec<ReadStart>,
}

#[derive(Debug, Clone, Copy, Default)]
struct ReadStart {
    bases: usize,
    fwd_mins: usize,
    rc_mins: usize,
}

/// One read of a [`SampledReads`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct SampledRead<'a> {
    /// The masked read.
    pub fwd: &'a [Base],
    /// Its reverse complement.
    pub rc: &'a [Base],
    /// Minimizers of `fwd`.
    pub fwd_mins: &'a [Minimizer],
    /// Minimizers of `rc`.
    pub rc_mins: &'a [Minimizer],
}

impl<'a> SampledRead<'a> {
    /// The read as a mapping or overlap with orientation `rev` sees it.
    pub fn oriented(self, rev: bool) -> &'a [Base] {
        if rev {
            self.rc
        } else {
            self.fwd
        }
    }

    /// The minimizers of [`oriented(rev)`](Self::oriented).
    pub fn oriented_mins(self, rev: bool) -> &'a [Minimizer] {
        if rev {
            self.rc_mins
        } else {
            self.fwd_mins
        }
    }
}

impl SampledReads {
    /// An empty set whose reads will be sampled with `k` / `w`.
    pub fn new(k: usize, w: usize) -> SampledReads {
        SampledReads {
            k,
            w,
            fwd: Vec::new(),
            rc: Vec::new(),
            mins: Vec::new(),
            starts: vec![ReadStart::default()],
        }
    }

    /// Masks, reverse-complements and samples every read of `reads`.
    pub fn from_reads(reads: &[Read], k: usize, w: usize) -> SampledReads {
        let mut set = SampledReads::new(k, w);
        let n_bases = reads.iter().map(|r| r.len()).sum();
        set.fwd.reserve(n_bases);
        set.rc.reserve(n_bases);
        set.starts.reserve(reads.len());
        for r in reads {
            set.push(r.seq.as_slice());
        }
        set
    }

    /// Adds one read (`N` is masked here).
    pub fn push(&mut self, seq: &[Base]) {
        let start = self.fwd.len();
        self.fwd.extend(seq.iter().map(|&b| masked(b)));
        self.rc
            .extend(self.fwd[start..].iter().rev().map(|b| b.complement()));
        let last = self.starts.last_mut().expect("closing entry");
        minimizers_into(&self.fwd[start..], self.k, self.w, &mut self.mins);
        last.rc_mins = self.mins.len();
        minimizers_into(&self.rc[start..], self.k, self.w, &mut self.mins);
        self.starts.push(ReadStart {
            bases: self.fwd.len(),
            fwd_mins: self.mins.len(),
            rc_mins: self.mins.len(),
        });
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Read `i`.
    pub fn get(&self, i: usize) -> SampledRead<'_> {
        let (at, next) = (self.starts[i], self.starts[i + 1]);
        SampledRead {
            fwd: &self.fwd[at.bases..next.bases],
            rc: &self.rc[at.bases..next.bases],
            fwd_mins: &self.mins[at.fwd_mins..at.rc_mins],
            rc_mins: &self.mins[at.rc_mins..next.fwd_mins],
        }
    }

    /// Longest read, or 0 when empty.
    pub fn max_len(&self) -> usize {
        self.starts
            .windows(2)
            .map(|s| s[1].bases - s[0].bases)
            .max()
            .unwrap_or(0)
    }

    /// Minimizers held, both orientations of every read.
    pub fn n_minimizers(&self) -> usize {
        self.mins.len()
    }

    /// Every read's lists, read by read, forward list first.
    pub fn minimizers(&self) -> &[Minimizer] {
        &self.mins
    }

    /// Where read `i`'s list in orientation `rev` starts in
    /// [`minimizers`](Self::minimizers).
    pub fn list_start(&self, i: usize, rev: bool) -> usize {
        let at = self.starts[i];
        if rev {
            at.rc_mins
        } else {
            at.fwd_mins
        }
    }
}

/// What mapping one read builds and throws away — the pieces still to
/// map, minimizers of a piece, anchors, the two orientations' chains and
/// the alignment ops — kept by a caller that maps many reads, so that
/// these grow once per chunk rather than once per read.
#[derive(Debug, Default)]
pub(crate) struct MapBuffers {
    jobs: Vec<(usize, usize)>,
    mins: Vec<Minimizer>,
    anchors: Vec<(i64, u32, u32)>,
    by_q: Vec<(u32, u32)>,
    chains: [Vec<(u32, u32)>; 2],
    ops: Vec<Op>,
}

/// A read mapper over a fixed consensus + index.
#[derive(Debug)]
pub struct Mapper<'a> {
    consensus: &'a [Base],
    index: &'a MinimizerIndex,
    cfg: MapperConfig,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper. The index must have been built over
    /// `consensus` with matching `k`/`w`.
    pub fn new(consensus: &'a [Base], index: &'a MinimizerIndex, cfg: MapperConfig) -> Mapper<'a> {
        Mapper {
            consensus,
            index,
            cfg,
        }
    }

    /// Maps one (N-masked) read, returning a verified lossless
    /// alignment, or [`Alignment::unmapped`] when no trustworthy
    /// mapping exists.
    pub fn map(&self, read: &[Base]) -> Alignment {
        let mut one = SampledReads::new(self.cfg.k, self.cfg.w);
        one.push(read);
        self.map_sampled(one.get(0), &mut MapBuffers::default())
    }

    /// [`map`](Self::map) for a read whose reverse complement and
    /// minimizers (sampled with this mapper's `k` / `w`) the caller
    /// already holds, with buffers the caller keeps from read to read.
    pub(crate) fn map_sampled(&self, sampled: SampledRead<'_>, buf: &mut MapBuffers) -> Alignment {
        let read = sampled.fwd;
        if read.len() < self.cfg.k + 1 {
            return Alignment::unmapped();
        }
        let mut segs: Vec<Segment> = Vec::new();
        buf.jobs.clear();
        buf.jobs.push((0, read.len()));
        while let Some((s, e)) = buf.jobs.pop() {
            if segs.len() >= self.cfg.max_segments {
                break;
            }
            if e - s < self.cfg.min_split_len.max(self.cfg.k + 1) {
                continue;
            }
            if let Some((qa, qb, mut seg)) = self.map_portion(sampled, s, e, buf) {
                seg.read_start = (s + qa) as u32;
                seg.read_end = (s + qb) as u32;
                segs.push(seg);
                if qa >= self.cfg.min_split_len {
                    buf.jobs.push((s, s + qa));
                }
                if (e - s) - qb >= self.cfg.min_split_len {
                    buf.jobs.push((s + qb, e));
                }
            }
        }
        if segs.is_empty() {
            return Alignment::unmapped();
        }
        segs.sort_by_key(|s| s.read_start);
        // Overlapping segments indicate an inconsistent split; refuse.
        if segs.windows(2).any(|w| w[1].read_start < w[0].read_end) {
            return Alignment::unmapped();
        }

        let mut aln = Alignment {
            clip_start: Vec::new(),
            clip_end: Vec::new(),
            segments: Vec::new(),
        };
        // Leading gap: clip when long, otherwise insertion into the
        // first segment.
        let lead = segs[0].read_start as usize;
        if lead > 0 {
            if lead >= self.cfg.clip_threshold {
                aln.clip_start = read[..lead].to_vec();
            } else {
                attach_gap(&mut segs[0], &read[..lead], true, self.cfg.max_block);
            }
        }
        // Middle gaps always attach to the following segment.
        for i in 1..segs.len() {
            let gap_start = segs[i - 1].read_end as usize;
            let gap_end = segs[i].read_start as usize;
            if gap_end > gap_start {
                attach_gap(
                    &mut segs[i],
                    &read[gap_start..gap_end],
                    true,
                    self.cfg.max_block,
                );
            }
        }
        // Trailing gap.
        let tail = segs.last().expect("non-empty").read_end as usize;
        if tail < read.len() {
            if read.len() - tail >= self.cfg.clip_threshold {
                aln.clip_end = read[tail..].to_vec();
            } else {
                let last = segs.last_mut().expect("non-empty");
                attach_gap(last, &read[tail..], false, self.cfg.max_block);
            }
        }
        aln.segments = segs;

        // Verification: structure, bounds, decodability, and exact
        // reconstruction. Any failure falls back to raw storage.
        if !aln.is_well_formed(read.len()) {
            return Alignment::unmapped();
        }
        for seg in &aln.segments {
            if !segment_decodable(seg, self.consensus) {
                return Alignment::unmapped();
            }
        }
        let rebuilt = aln.reconstruct(self.consensus);
        if rebuilt.as_slice() != read {
            return Alignment::unmapped();
        }
        aln
    }

    /// Maps the contiguous read portion `[s, e)`; returns the covered
    /// range `[qa, qb)` in portion coordinates plus a segment whose
    /// `read_start`/`read_end` the caller fills in.
    fn map_portion(
        &self,
        read: SampledRead<'_>,
        s: usize,
        e: usize,
        buf: &mut MapBuffers,
    ) -> Option<(usize, usize, Segment)> {
        let len = read.fwd.len();
        let portion = &read.fwd[s..e];
        let rc = &read.rc[len - e..len - s];
        let MapBuffers {
            mins,
            anchors,
            by_q,
            chains: [fwd_chain, rev_chain],
            ops,
            ..
        } = buf;
        if (s, e) == (0, len) {
            self.chain(portion, read.fwd_mins, anchors, by_q, fwd_chain);
            self.chain(rc, read.rc_mins, anchors, by_q, rev_chain);
        } else {
            // A piece of a split read: its first and last windows are
            // not windows of the whole read, so it is sampled afresh.
            mins.clear();
            minimizers_into(portion, self.cfg.k, self.cfg.w, mins);
            self.chain(portion, mins, anchors, by_q, fwd_chain);
            mins.clear();
            minimizers_into(rc, self.cfg.k, self.cfg.w, mins);
            self.chain(rc, mins, anchors, by_q, rev_chain);
        }
        let (oriented, rev, chain) = if fwd_chain.len() >= rev_chain.len() {
            (portion, false, fwd_chain)
        } else {
            (rc, true, rev_chain)
        };
        if chain.len() < self.cfg.min_chain_anchors {
            return None;
        }
        let (oqa, oqb, cons_pos, edits) = self.chain_to_alignment(oriented, chain, ops)?;
        let (qa, qb) = if rev {
            (portion.len() - oqb, portion.len() - oqa)
        } else {
            (oqa, oqb)
        };
        Some((
            qa,
            qb,
            Segment {
                read_start: 0,
                read_end: 0,
                cons_pos: cons_pos as u64,
                rev,
                edits,
            },
        ))
    }

    /// Finds the best co-diagonal monotone anchor chain for `oriented`,
    /// whose minimizers are `mins`, into `chain`; `anchors` and `by_q`
    /// are scratch.
    fn chain(
        &self,
        oriented: &[Base],
        mins: &[Minimizer],
        anchors: &mut Vec<(i64, u32, u32)>,
        by_q: &mut Vec<(u32, u32)>,
        chain: &mut Vec<(u32, u32)>,
    ) {
        chain.clear();
        anchors.clear();
        for m in mins {
            for &c in self.index.lookup(m.hash) {
                anchors.push((i64::from(c) - i64::from(m.pos), m.pos, c));
            }
        }
        if anchors.is_empty() {
            return;
        }
        anchors.sort_unstable();
        // Densest diagonal window (two pointers).
        let spread = (oriented.len() as i64 / 16).max(64);
        let mut best = (0usize, 0usize); // (count, start)
        let mut lo = 0usize;
        for hi in 0..anchors.len() {
            while anchors[hi].0 - anchors[lo].0 > spread {
                lo += 1;
            }
            if hi - lo + 1 > best.0 {
                best = (hi - lo + 1, lo);
            }
        }
        let window = &anchors[best.1..best.1 + best.0];
        // Monotone greedy chain with non-overlapping anchors.
        by_q.clear();
        by_q.extend(window.iter().map(|&(_, q, c)| (q, c)));
        by_q.sort_unstable();
        chain.reserve(by_q.len());
        let k = self.cfg.k as u32;
        for &(q, c) in by_q.iter() {
            match chain.last() {
                None => chain.push((q, c)),
                Some(&(lq, lc)) => {
                    if q >= lq + k && c >= lc + k {
                        chain.push((q, c));
                    }
                }
            }
        }
    }

    /// Turns an anchor chain into (covered range, consensus position,
    /// edit list relative to the covered start); `ops` is scratch.
    fn chain_to_alignment(
        &self,
        oriented: &[Base],
        chain: &[(u32, u32)],
        ops: &mut Vec<Op>,
    ) -> Option<(usize, usize, usize, Vec<Edit>)> {
        let k = self.cfg.k;
        let (q0, c0) = (chain[0].0 as usize, chain[0].1 as usize);
        ops.clear();
        let (oqa, cons_start) = if q0 == 0 {
            (0, c0)
        } else if q0 < self.cfg.min_split_len {
            // Extend the short prefix leftwards (free consensus start).
            let pad = q0 / 2 + 8;
            let wstart = c0.saturating_sub(q0 + pad);
            let ext = align_free_start(&oriented[..q0], &self.consensus[wstart..c0]);
            if (ext.cost as usize) <= q0 / 2 + 4 {
                ops.extend(ext.ops);
                (0, wstart + ext.cons_start)
            } else {
                (q0, c0)
            }
        } else {
            // Long unaligned prefix: leave it for chimeric splitting.
            (q0, c0)
        };

        // Anchor blocks and the gaps between them.
        for pair in chain.windows(2) {
            let (q1, c1) = (pair[0].0 as usize, pair[0].1 as usize);
            let (q2, c2) = (pair[1].0 as usize, pair[1].1 as usize);
            ops.extend(std::iter::repeat_n(Op::Match, k));
            let rseg = &oriented[q1 + k..q2];
            let cseg = &self.consensus[c1 + k..c2];
            if rseg.is_empty() && cseg.is_empty() {
                continue;
            }
            let aligned = align_global(rseg, cseg, self.cfg.band, self.cfg.max_gap_cells)
                .filter(|r| (r.cost as usize) <= rseg.len().max(cseg.len()) / 2 + 8);
            match aligned {
                Some(r) => ops.extend(r.ops),
                None => {
                    // Degenerate gap: delete the consensus side, insert
                    // the read side. Always valid, just more bits.
                    ops.extend(std::iter::repeat_n(Op::Del, cseg.len()));
                    ops.extend(std::iter::repeat_n(Op::Ins, rseg.len()));
                }
            }
        }
        // Final anchor block.
        let (qlast, clast) = (
            chain.last().expect("non-empty").0 as usize,
            chain.last().expect("non-empty").1 as usize,
        );
        ops.extend(std::iter::repeat_n(Op::Match, k));

        // Right extension (free consensus end).
        let suffix_start = qlast + k;
        let suffix_len = oriented.len() - suffix_start;
        let oqb = if suffix_len == 0 {
            oriented.len()
        } else if suffix_len < self.cfg.min_split_len {
            let pad = suffix_len / 2 + 8;
            let wend = (clast + k + suffix_len + pad).min(self.consensus.len());
            let ext = align_free_end(&oriented[suffix_start..], &self.consensus[clast + k..wend]);
            if (ext.cost as usize) <= suffix_len / 2 + 4 {
                ops.extend(ext.ops);
                oriented.len()
            } else {
                suffix_start
            }
        } else {
            suffix_start
        };

        let edits = ops_to_edits(ops, &oriented[oqa..oqb], self.cfg.max_block)?;
        Some((oqa, oqb, cons_start, edits))
    }
}

/// Converts an op sequence into canonical edit records (runs of
/// insertions/deletions merged into blocks, blocks capped at
/// `max_block`). Returns `None` when the ops do not consume exactly
/// `read`.
pub fn ops_to_edits(ops: &[Op], read: &[Base], max_block: u32) -> Option<Vec<Edit>> {
    let mut edits = Vec::new();
    let mut r = 0usize;
    let mut i = 0usize;
    while i < ops.len() {
        match ops[i] {
            Op::Match => {
                r += 1;
                i += 1;
            }
            Op::Sub => {
                if r >= read.len() {
                    return None;
                }
                edits.push(Edit::Sub {
                    read_off: r as u32,
                    base: read[r],
                });
                r += 1;
                i += 1;
            }
            Op::Ins => {
                let start = r;
                while i < ops.len() && ops[i] == Op::Ins {
                    r += 1;
                    i += 1;
                }
                if r > read.len() {
                    return None;
                }
                let mut off = start;
                while off < r {
                    let chunk = (r - off).min(max_block as usize);
                    edits.push(Edit::Ins {
                        read_off: off as u32,
                        bases: read[off..off + chunk].to_vec(),
                    });
                    off += chunk;
                }
            }
            Op::Del => {
                let mut len = 0usize;
                while i < ops.len() && ops[i] == Op::Del {
                    len += 1;
                    i += 1;
                }
                while len > 0 {
                    let chunk = len.min(max_block as usize);
                    edits.push(Edit::Del {
                        read_off: r as u32,
                        len: chunk as u32,
                    });
                    len -= chunk;
                }
            }
        }
    }
    (r == read.len()).then_some(edits)
}

/// Attaches unaligned read bases to a segment as insertion blocks.
/// `before` selects the read side; orientation decides whether that is
/// the oriented start or end.
fn attach_gap(seg: &mut Segment, gap: &[Base], before: bool, max_block: u32) {
    if gap.is_empty() {
        return;
    }
    let oriented_gap = if seg.rev { revcomp(gap) } else { gap.to_vec() };
    let g = gap.len() as u32;
    let at_oriented_start = before != seg.rev;
    if at_oriented_start {
        for e in &mut seg.edits {
            match e {
                Edit::Sub { read_off, .. }
                | Edit::Ins { read_off, .. }
                | Edit::Del { read_off, .. } => *read_off += g,
            }
        }
        let mut chunks = Vec::new();
        let mut off = 0usize;
        while off < oriented_gap.len() {
            let chunk = (oriented_gap.len() - off).min(max_block as usize);
            chunks.push(Edit::Ins {
                read_off: off as u32,
                bases: oriented_gap[off..off + chunk].to_vec(),
            });
            off += chunk;
        }
        chunks.extend(std::mem::take(&mut seg.edits));
        seg.edits = chunks;
    } else {
        let mut off = seg.len() as usize;
        let mut done = 0usize;
        while done < oriented_gap.len() {
            let chunk = (oriented_gap.len() - done).min(max_block as usize);
            seg.edits.push(Edit::Ins {
                read_off: off as u32,
                bases: oriented_gap[done..done + chunk].to_vec(),
            });
            off += chunk;
            done += chunk;
        }
    }
    if before {
        seg.read_start -= g;
    } else {
        seg.read_end += g;
    }
}

/// Checks that a segment can be decoded by the SAGe format rules:
/// monotone edits, consensus bounds respected, and every substitution
/// base differing from the consensus base it replaces (the
/// substitution-type-elision invariant of §5.1.2).
///
/// This is the encoder's check of a mapping it is about to store. The
/// decoder builds no `Segment`; it makes the same bounds checks inline
/// while it rebuilds the read (`decode::decode_read`).
pub fn segment_decodable(seg: &Segment, consensus: &[Base]) -> bool {
    let seg_len = seg.len() as usize;
    let mut r = 0usize;
    let mut c = seg.cons_pos as usize;
    let mut last_off = 0u32;
    for e in &seg.edits {
        let off = e.read_off() as usize;
        if (e.read_off()) < last_off || off < r || off > seg_len {
            return false;
        }
        last_off = e.read_off();
        c += off - r;
        r = off;
        match e {
            Edit::Sub { base, .. } => {
                if c >= consensus.len() || *base == consensus[c] {
                    return false;
                }
                r += 1;
                c += 1;
            }
            Edit::Ins { bases, .. } => {
                if bases.is_empty() || bases.len() > 255 {
                    return false;
                }
                r += bases.len();
            }
            Edit::Del { len, .. } => {
                if *len == 0 || *len > 255 {
                    return false;
                }
                c += *len as usize;
            }
        }
        if r > seg_len || c > consensus.len() {
            return false;
        }
    }
    // Trailing copy must stay within the consensus.
    c + (seg_len - r) <= consensus.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::DnaSeq;

    fn random_seq(len: usize, seed: u64) -> Vec<Base> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = minimizer::splitmix64(x);
                Base::ACGT[(x % 4) as usize]
            })
            .collect()
    }

    fn mapper_fixture(seed: u64, len: usize) -> (Vec<Base>, MinimizerIndex) {
        let cons = random_seq(len, seed);
        let index = MinimizerIndex::build(&cons, 15, 8);
        (cons, index)
    }

    #[test]
    fn sampled_reads_hold_what_each_stage_would_compute() {
        // Mixed lengths (one shorter than k, one empty) and an `N`: the
        // flat layout must hand every read back whole.
        let mut with_n = random_seq(90, 21);
        with_n[40] = Base::N;
        let seqs = [
            random_seq(150, 20),
            with_n,
            random_seq(9, 22),
            Vec::new(),
            random_seq(400, 23),
        ];
        let reads: Vec<Read> = seqs
            .iter()
            .map(|s| Read::from_seq(DnaSeq::from_bases(s.clone())))
            .collect();
        let sampled = SampledReads::from_reads(&reads, 15, 8);
        assert_eq!(sampled.len(), seqs.len());
        assert_eq!(sampled.max_len(), 400);
        let mut n_mins = 0;
        for (i, seq) in seqs.iter().enumerate() {
            let (read, fwd) = (sampled.get(i), mask_n(seq));
            let rc = revcomp(&fwd);
            assert_eq!(read.fwd, &fwd[..]);
            assert_eq!(read.rc, &rc[..]);
            assert_eq!(read.fwd_mins, &minimizer::minimizers(&fwd, 15, 8)[..]);
            assert_eq!(read.rc_mins, &minimizer::minimizers(&rc, 15, 8)[..]);
            assert_eq!(read.oriented(true), read.rc);
            n_mins += read.fwd_mins.len() + read.rc_mins.len();
        }
        assert_eq!(sampled.n_minimizers(), n_mins);
    }

    #[test]
    fn exact_read_maps_cleanly() {
        let (cons, index) = mapper_fixture(1, 5_000);
        let mapper = Mapper::new(&cons, &index, MapperConfig::default());
        let read = cons[1_000..1_150].to_vec();
        let aln = mapper.map(&read);
        assert_eq!(aln.segments.len(), 1);
        assert_eq!(aln.segments[0].cons_pos, 1_000);
        assert!(aln.segments[0].edits.is_empty());
        assert!(!aln.segments[0].rev);
    }

    #[test]
    fn reverse_complement_read_maps() {
        let (cons, index) = mapper_fixture(2, 5_000);
        let mapper = Mapper::new(&cons, &index, MapperConfig::default());
        let read = revcomp(&cons[2_000..2_200]);
        let aln = mapper.map(&read);
        assert_eq!(aln.segments.len(), 1);
        assert!(aln.segments[0].rev);
        assert_eq!(aln.reconstruct(&cons).as_slice(), &read[..]);
    }

    #[test]
    fn read_with_errors_reconstructs_exactly() {
        let (cons, index) = mapper_fixture(3, 10_000);
        let mapper = Mapper::new(&cons, &index, MapperConfig::default());
        let mut read = cons[4_000..4_400].to_vec();
        // A substitution, an insertion block and a deletion.
        read[50] = if read[50] == Base::A {
            Base::C
        } else {
            Base::A
        };
        read.insert(120, Base::G);
        read.insert(120, Base::G);
        read.remove(300);
        let aln = mapper.map(&read);
        assert!(!aln.is_unmapped(), "read failed to map");
        assert_eq!(aln.reconstruct(&cons).as_slice(), &read[..]);
        assert!(aln.total_edits() >= 3);
    }

    #[test]
    fn junk_read_is_unmapped() {
        let (cons, index) = mapper_fixture(4, 5_000);
        let mapper = Mapper::new(&cons, &index, MapperConfig::default());
        let junk = random_seq(200, 999); // different universe
        let aln = mapper.map(&junk);
        assert!(aln.is_unmapped());
    }

    #[test]
    fn chimeric_read_gets_multiple_segments() {
        let (cons, index) = mapper_fixture(5, 20_000);
        let mapper = Mapper::new(&cons, &index, MapperConfig::default());
        let mut read = cons[1_000..1_300].to_vec();
        read.extend_from_slice(&cons[9_000..9_300]);
        let aln = mapper.map(&read);
        assert!(!aln.is_unmapped());
        assert_eq!(aln.segments.len(), 2, "expected a chimeric split");
        assert_eq!(aln.reconstruct(&cons).as_slice(), &read[..]);
    }

    #[test]
    fn clipped_read_reconstructs() {
        let (cons, index) = mapper_fixture(6, 8_000);
        let mapper = Mapper::new(&cons, &index, MapperConfig::default());
        let mut read = random_seq(60, 777); // junk clip
        read.extend_from_slice(&cons[3_000..3_250]);
        let aln = mapper.map(&read);
        assert!(!aln.is_unmapped());
        assert_eq!(aln.reconstruct(&cons).as_slice(), &read[..]);
    }

    #[test]
    fn short_reads_map_at_high_rate() {
        let (cons, index) = mapper_fixture(7, 50_000);
        let mapper = Mapper::new(&cons, &index, MapperConfig::default());
        let mut mapped = 0;
        for i in 0..200 {
            let start = (i * 211) % (cons.len() - 100);
            let read = cons[start..start + 100].to_vec();
            if !mapper.map(&read).is_unmapped() {
                mapped += 1;
            }
        }
        assert!(mapped >= 195, "only {mapped}/200 exact reads mapped");
    }

    #[test]
    fn ops_to_edits_merges_and_splits_blocks() {
        let read = random_seq(600, 8);
        let mut ops = vec![Op::Match; 10];
        ops.extend(vec![Op::Ins; 300]);
        ops.extend(vec![Op::Match; 290]);
        ops.extend(vec![Op::Del; 260]);
        let edits = ops_to_edits(&ops, &read, 255).unwrap();
        // 300 insertions -> blocks of 255 + 45; 260 deletions -> 255 + 5.
        let ins: Vec<_> = edits
            .iter()
            .filter_map(|e| match e {
                Edit::Ins { bases, .. } => Some(bases.len()),
                _ => None,
            })
            .collect();
        assert_eq!(ins, vec![255, 45]);
        let del: Vec<_> = edits
            .iter()
            .filter_map(|e| match e {
                Edit::Del { len, .. } => Some(*len),
                _ => None,
            })
            .collect();
        assert_eq!(del, vec![255, 5]);
    }

    #[test]
    fn ops_to_edits_rejects_wrong_length() {
        let read = random_seq(5, 9);
        assert!(ops_to_edits(&[Op::Match; 4], &read, 255).is_none());
    }

    #[test]
    fn attach_gap_before_forward_segment() {
        let cons = random_seq(100, 10);
        let mut seg = Segment {
            read_start: 3,
            read_end: 13,
            cons_pos: 20,
            rev: false,
            edits: vec![Edit::Sub {
                read_off: 5,
                base: Base::A,
            }],
        };
        attach_gap(&mut seg, &[Base::T, Base::T, Base::T], true, 255);
        assert_eq!(seg.read_start, 0);
        assert!(matches!(&seg.edits[0], Edit::Ins { read_off: 0, bases } if bases.len() == 3));
        assert_eq!(seg.edits[1].read_off(), 8); // shifted by 3
        let _ = cons;
    }

    #[test]
    fn attach_gap_respects_orientation() {
        // Before-gap on a reverse segment lands at the oriented end and
        // the reconstruction must still equal the original read bases.
        let cons = random_seq(300, 11);
        let read_core = revcomp(&cons[100..160]);
        let gap = [Base::T, Base::A, Base::C];
        let mut full_read = gap.to_vec();
        full_read.extend_from_slice(&read_core);
        let mut seg = Segment {
            read_start: 3,
            read_end: 63,
            cons_pos: 100,
            rev: true,
            edits: vec![],
        };
        attach_gap(&mut seg, &gap, true, 255);
        assert_eq!(seg.read_start, 0);
        let rebuilt = Alignment {
            clip_start: vec![],
            clip_end: vec![],
            segments: vec![seg],
        }
        .reconstruct(&cons);
        assert_eq!(rebuilt.as_slice(), &full_read[..]);
    }

    #[test]
    fn segment_decodable_rejects_identity_substitution() {
        let cons: Vec<Base> = "ACGTACGT".parse::<DnaSeq>().unwrap().into_bases();
        let seg = Segment {
            read_start: 0,
            read_end: 4,
            cons_pos: 0,
            rev: false,
            edits: vec![Edit::Sub {
                read_off: 0,
                base: Base::A, // same as consensus[0]
            }],
        };
        assert!(!segment_decodable(&seg, &cons));
    }

    #[test]
    fn segment_decodable_rejects_out_of_bounds() {
        let cons: Vec<Base> = "ACGTACGT".parse::<DnaSeq>().unwrap().into_bases();
        let seg = Segment {
            read_start: 0,
            read_end: 20,
            cons_pos: 0,
            rev: false,
            edits: vec![],
        };
        assert!(!segment_decodable(&seg, &cons));
    }
}
