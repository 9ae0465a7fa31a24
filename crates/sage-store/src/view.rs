//! Zero-copy read results: [`ReadView`] and [`RecordSlice`].
//!
//! The engine caches decoded chunks as `Arc<ChunkColumns>`s. A
//! [`ReadView`] pins the chunks it touches and selects records of each
//! — a contiguous range for `get`, an index list for `scan` — so
//! resolving a request copies no payload, and serving a cached read
//! allocates nothing: every record is a borrowed [`ReadRef`] into the
//! columns. [`ReadView::to_owned`] is the one explicit copy.

use sage_genomics::{ChunkColumns, ReadRef, ReadSet};
use std::iter::Flatten;
use std::sync::Arc;

/// Which records of one chunk a [`RecordSlice`] selects.
#[derive(Debug, Clone)]
enum Selection {
    /// A contiguous run `[lo, hi)` of in-chunk record indices (the
    /// `get` shape).
    Range { lo: u32, hi: u32 },
    /// An explicit ascending index list (the `scan` shape — whatever
    /// the predicate matched).
    Indices(Vec<u32>),
}

/// A borrowed run of records inside one cached chunk.
///
/// The slice shares ownership of the decoded chunk
/// (`Arc<ChunkColumns>`): cloning a slice clones a pointer, never
/// record payloads.
#[derive(Debug, Clone)]
pub struct RecordSlice {
    chunk: Arc<ChunkColumns>,
    sel: Selection,
}

impl RecordSlice {
    /// A contiguous selection `[lo, hi)` of `chunk`'s records.
    ///
    /// # Panics
    ///
    /// Panics when `lo > hi` or `hi` reaches past the chunk.
    pub fn range(chunk: Arc<ChunkColumns>, lo: usize, hi: usize) -> RecordSlice {
        assert!(lo <= hi && hi <= chunk.len(), "slice out of chunk bounds");
        RecordSlice {
            chunk,
            sel: Selection::Range {
                lo: lo as u32,
                hi: hi as u32,
            },
        }
    }

    /// A sparse selection of `chunk`'s records by ascending index.
    ///
    /// # Panics
    ///
    /// Panics when an index reaches past the chunk.
    pub fn indices(chunk: Arc<ChunkColumns>, indices: Vec<u32>) -> RecordSlice {
        assert!(
            indices.iter().all(|&i| (i as usize) < chunk.len()),
            "index out of chunk bounds"
        );
        RecordSlice {
            chunk,
            sel: Selection::Indices(indices),
        }
    }

    /// Selected record count.
    pub fn len(&self) -> usize {
        match &self.sel {
            Selection::Range { lo, hi } => (hi - lo) as usize,
            Selection::Indices(ix) => ix.len(),
        }
    }

    /// `true` when the slice selects nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th selected record.
    pub fn get(&self, i: usize) -> Option<ReadRef<'_>> {
        let at = match &self.sel {
            Selection::Range { lo, hi } => Some(*lo as usize + i).filter(|&at| at < *hi as usize),
            Selection::Indices(ix) => ix.get(i).map(|&j| j as usize),
        };
        at.map(|at| self.chunk.at(self.chunk.spans[at]))
    }

    /// Iterates the selected records in order; a range walks the
    /// chunk's span table directly.
    pub fn iter(&self) -> SliceIter<'_> {
        let (spans, ix) = match &self.sel {
            Selection::Range { lo, hi } => (&self.chunk.spans[*lo as usize..*hi as usize], &[][..]),
            Selection::Indices(ix) => (&[][..], &ix[..]),
        };
        SliceIter {
            chunk: &self.chunk,
            spans: spans.iter(),
            ix: ix.iter(),
        }
    }
}

/// The records of a [`RecordSlice`], borrowed in order.
#[derive(Debug, Clone)]
pub struct SliceIter<'a> {
    chunk: &'a ChunkColumns,
    spans: std::slice::Iter<'a, (u32, u32)>,
    ix: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for SliceIter<'a> {
    type Item = ReadRef<'a>;

    fn next(&mut self) -> Option<ReadRef<'a>> {
        let span = match self.spans.next() {
            Some(&span) => span,
            None => self.chunk.spans[*self.ix.next()? as usize],
        };
        Some(self.chunk.at(span))
    }
}

impl<'a> IntoIterator for &'a RecordSlice {
    type Item = ReadRef<'a>;
    type IntoIter = SliceIter<'a>;

    fn into_iter(self) -> SliceIter<'a> {
        self.iter()
    }
}

/// A zero-copy result of a `get` or `scan`: borrowed record slices
/// over the engine's cached chunks, in dataset order.
///
/// The view pins the decoded chunks it touches via `Arc` and walks
/// them in place; [`ReadView::to_owned`] copies them into an owned
/// [`ReadSet`] for callers that need one (e.g. to re-append or mutate).
///
/// ```
/// use sage_store::client::DatasetBuilder;
/// use sage_genomics::sim::{simulate_dataset, DatasetProfile};
///
/// # fn main() -> Result<(), sage_store::StoreError> {
/// let ds = simulate_dataset(&DatasetProfile::tiny_short(), 3);
/// let dataset = DatasetBuilder::new().chunk_reads(16).encode(&ds.reads)?;
/// let view = dataset.session().get(4..12)?.join()?;   // ReadView
/// assert_eq!(view.len(), 8);
/// // Records are borrowed in place, straight out of the cached chunk:
/// assert_eq!(view.get(0).unwrap().seq, ds.reads.reads()[4].seq);
/// // Owning the records is an explicit copy:
/// let owned = view.to_owned();
/// assert_eq!(owned.len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ReadView {
    slices: Vec<RecordSlice>,
    len: usize,
}

impl ReadView {
    /// An empty view.
    pub fn new() -> ReadView {
        ReadView::default()
    }

    /// Appends a slice (empty slices are dropped, not stored).
    pub fn push(&mut self, slice: RecordSlice) {
        if slice.is_empty() {
            return;
        }
        self.len += slice.len();
        self.slices.push(slice);
    }

    /// Selected record count across all slices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the view selects nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Chunks the view borrows from.
    pub fn n_slices(&self) -> usize {
        self.slices.len()
    }

    /// The `i`-th selected record, in dataset order across slices.
    pub fn get(&self, mut i: usize) -> Option<ReadRef<'_>> {
        for s in &self.slices {
            if i < s.len() {
                return s.get(i);
            }
            i -= s.len();
        }
        None
    }

    /// Iterates every selected record in dataset order.
    pub fn iter(&self) -> Flatten<std::slice::Iter<'_, RecordSlice>> {
        self.slices.iter().flatten()
    }

    /// Total bases across the selected records.
    pub fn total_bases(&self) -> usize {
        self.iter().map(|r| r.len()).sum()
    }

    /// Copies the selected records into an owned [`ReadSet`] — the
    /// one place the zero-copy path pays the per-record copy, and
    /// only when a caller asks for ownership.
    #[allow(clippy::wrong_self_convention)]
    pub fn to_owned(&self) -> ReadSet {
        self.iter().map(|r| r.to_read()).collect()
    }
}

impl<'a> IntoIterator for &'a ReadView {
    type Item = ReadRef<'a>;
    type IntoIter = Flatten<std::slice::Iter<'a, RecordSlice>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::Read;

    fn chunk(n: usize, tag: u8) -> Arc<ChunkColumns> {
        let reads: Vec<Read> = (0..n)
            .map(|i| {
                let mut r = Read::from_seq("ACGT".parse().unwrap());
                r.qual = Some(vec![b'!' + tag, b'!' + i as u8, b'!', b'!']);
                r
            })
            .collect();
        Arc::new(reads.iter().map(ReadRef::from).collect())
    }

    #[test]
    fn range_slices_select_contiguous_runs() {
        let c = chunk(8, 0);
        let s = RecordSlice::range(Arc::clone(&c), 2, 6);
        assert_eq!(s.len(), 4);
        for (i, r) in s.iter().enumerate() {
            assert_eq!(r.qual, c.at(c.spans[2 + i]).qual);
        }
        assert!(s.get(4).is_none());
    }

    #[test]
    fn index_slices_select_sparse_records() {
        let c = chunk(8, 1);
        let s = RecordSlice::indices(Arc::clone(&c), vec![0, 3, 7]);
        assert_eq!(s.len(), 3);
        let got: Vec<_> = s.iter().map(|r| r.qual).collect();
        assert_eq!(got[0], c.at(c.spans[0]).qual);
        assert_eq!(got[1], c.at(c.spans[3]).qual);
        assert_eq!(got[2], c.at(c.spans[7]).qual);
    }

    #[test]
    fn views_chain_slices_in_order() {
        let a = chunk(4, 0);
        let b = chunk(4, 1);
        let mut v = ReadView::new();
        v.push(RecordSlice::range(Arc::clone(&a), 2, 4));
        v.push(RecordSlice::range(Arc::clone(&b), 0, 0)); // dropped
        v.push(RecordSlice::indices(Arc::clone(&b), vec![1, 2]));
        assert_eq!(v.len(), 4);
        assert_eq!(v.n_slices(), 2);
        assert_eq!(v.get(0).unwrap().qual, a.at(a.spans[2]).qual);
        assert_eq!(v.get(3).unwrap().qual, b.at(b.spans[2]).qual);
        assert!(v.get(4).is_none());
        let owned = v.to_owned();
        assert_eq!(owned.len(), 4);
        for (x, y) in v.iter().zip(owned.iter()) {
            assert_eq!(x.qual, y.qual);
        }
        assert_eq!(v.total_bases(), 16);
    }

    #[test]
    fn views_share_not_copy_the_chunk() {
        let c = chunk(4, 0);
        let v = {
            let mut v = ReadView::new();
            v.push(RecordSlice::range(Arc::clone(&c), 0, 4));
            v
        };
        // Two owners: the test's Arc and the view's slice.
        assert_eq!(Arc::strong_count(&c), 2);
        drop(v);
        assert_eq!(Arc::strong_count(&c), 1);
    }

    #[test]
    #[should_panic(expected = "out of chunk bounds")]
    fn out_of_bounds_ranges_panic() {
        let c = chunk(2, 0);
        let _ = RecordSlice::range(c, 0, 3);
    }
}
