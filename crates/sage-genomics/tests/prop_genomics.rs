//! Property-based tests for the genomic data substrate.

use proptest::prelude::*;
use sage_genomics::fastq::{fastq_to_read_set, read_set_to_fastq};
use sage_genomics::packed::{Packed2, Packed3};
use sage_genomics::{Base, DnaSeq, Read, ReadSet};

fn base_strategy() -> impl Strategy<Value = Base> {
    prop_oneof![
        Just(Base::A),
        Just(Base::C),
        Just(Base::G),
        Just(Base::T),
        Just(Base::N),
    ]
}

fn seq_strategy(max: usize) -> impl Strategy<Value = DnaSeq> {
    prop::collection::vec(base_strategy(), 0..max).prop_map(DnaSeq::from_bases)
}

proptest! {
    #[test]
    fn ascii_round_trip(seq in seq_strategy(500)) {
        let ascii = seq.to_ascii();
        prop_assert_eq!(DnaSeq::from_ascii(&ascii).unwrap(), seq);
    }

    #[test]
    fn reverse_complement_involutive(seq in seq_strategy(500)) {
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn packed3_lossless(seq in seq_strategy(300)) {
        prop_assert_eq!(Packed3::pack(&seq).unpack(), seq);
    }

    #[test]
    fn packed2_lossless_without_n(codes in prop::collection::vec(0u8..4, 0..300)) {
        let seq: DnaSeq = codes.iter().map(|&c| Base::from_code2(c)).collect();
        let packed = Packed2::pack(&seq);
        prop_assert_eq!(packed.unpack(), seq);
        for (i, &b) in packed.unpack().iter().enumerate() {
            prop_assert_eq!(b, packed.get(i));
        }
        // Adopting the packed bytes is the same as packing the bases,
        // pad bits or not; one byte more or fewer is refused.
        let mut raw = packed.as_bytes().to_vec();
        let tail = codes.len() % 4;
        if tail > 0 {
            *raw.last_mut().unwrap() |= 0xff << (tail * 2);
        }
        prop_assert_eq!(Packed2::from_raw(raw.clone(), codes.len()), Some(packed));
        raw.push(0);
        prop_assert_eq!(Packed2::from_raw(raw, codes.len()), None);
    }

    #[test]
    fn fastq_round_trip(
        reads in prop::collection::vec(
            (seq_strategy(120), prop::collection::vec(33u8..120, 0..120)),
            0..12,
        )
    ) {
        let rs = ReadSet::from_reads(
            reads
                .iter()
                .map(|(seq, qual)| {
                    // Quality must match the sequence length.
                    let q: Vec<u8> = qual.iter().copied().chain(std::iter::repeat(b'I'))
                        .take(seq.len()).collect();
                    Read { id: Some("r".into()), seq: seq.clone(), qual: Some(q) }
                })
                .collect(),
        );
        let bytes = read_set_to_fastq(&rs);
        let back = fastq_to_read_set(&bytes).unwrap();
        prop_assert_eq!(rs.len(), back.len());
        for (a, b) in rs.iter().zip(back.iter()) {
            prop_assert_eq!(&a.seq, &b.seq);
            prop_assert_eq!(&a.qual, &b.qual);
        }
    }

    #[test]
    fn subseq_matches_slice(seq in seq_strategy(200), start in 0usize..100, len in 0usize..100) {
        prop_assume!(start + len <= seq.len());
        let sub = seq.subseq(start, len);
        prop_assert_eq!(sub.as_slice(), &seq.as_slice()[start..start + len]);
    }
}
