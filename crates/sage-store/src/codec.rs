//! Parallel chunk codec: read sets ⇄ sharded containers.
//!
//! Encoding splits a read set into fixed-population chunks and
//! compresses each chunk as an independent archive; decoding is the
//! reverse. Both fan the per-chunk work out over a `std::thread`
//! worker pool pulling jobs from one shared queue — workers that
//! finish early steal the remaining jobs, so skewed chunk costs (the
//! mapper's work varies with read content) do not idle the pool.

use crate::manifest::{ChunkMeta, StoreManifest};
use crate::{Result, StoreError};
use sage_core::error::SageError;
use sage_core::{
    CompressOptions, Extent, OutputFormat, SageArchive, SageCompressor, SageDecompressor,
};
use sage_genomics::{ChunkColumns, Read, ReadSet};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Options for building a sharded store. The encode pool is as wide
/// as the host's available parallelism.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Reads per chunk (the final chunk may hold fewer).
    pub reads_per_chunk: usize,
}

impl StoreOptions {
    /// Options with `reads_per_chunk` reads per chunk.
    pub fn new(reads_per_chunk: usize) -> StoreOptions {
        StoreOptions { reads_per_chunk }
    }
}

/// The compressor for store chunks: the default codec with
/// `store_order` on — chunks must restore their reads in dataset
/// order for read-id addressing to mean anything.
pub(crate) fn order_preserving_compressor() -> SageCompressor {
    SageCompressor::with_options(CompressOptions {
        store_order: true,
        ..CompressOptions::default()
    })
}

/// A sharded dataset: one blob of concatenated chunk archives plus
/// the manifest indexing it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedStore {
    /// The chunk index.
    pub manifest: StoreManifest,
    /// Concatenated serialized archives.
    pub blob: Vec<u8>,
}

impl ShardedStore {
    /// Splices one encoded chunk onto the end of the blob, recording
    /// it in the manifest. The single splice path shared by
    /// [`encode_sharded`] and the engine's append, so extent placement
    /// can never diverge between the two.
    pub(crate) fn splice_chunk(&mut self, n_reads: u64, bytes: &[u8]) {
        let extent = Extent {
            offset: self.blob.len(),
            len: bytes.len(),
        };
        self.blob.extend_from_slice(bytes);
        self.manifest.push_chunk(n_reads, extent);
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.manifest.chunks.len()
    }

    /// Total reads stored.
    pub fn total_reads(&self) -> u64 {
        self.manifest.total_reads()
    }
}

/// The encode pool's width, and the decode pool's when the engine
/// does not pin one.
pub(crate) fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Runs `jobs` closures over a shared queue drained by `workers`
/// threads, collecting per-job results in order. The queue is a single
/// deque all workers pop from — a finished worker immediately takes
/// the next pending job wherever it is, which is the work-stealing
/// behavior that keeps skewed chunk costs from idling the pool.
pub(crate) fn run_pool<T: Send, F: Fn(usize) -> T + Sync>(
    n_jobs: usize,
    workers: usize,
    job: F,
) -> Vec<T> {
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..n_jobs).collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    let workers = workers.max(1).min(n_jobs.max(1));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let Some(i) = queue.lock().expect("queue poisoned").pop_front() else {
                    break;
                };
                *slots[i].lock().expect("slot poisoned") = Some(job(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned").expect("job ran"))
        .collect()
}

/// Compresses pre-split chunks over the worker pool, returning each
/// chunk's serialized archive in order. Shared by [`encode_sharded`]
/// and the engine's append path so the two can never diverge.
pub(crate) fn encode_chunks(
    chunks: &[&[Read]],
    compressor: &SageCompressor,
    workers: usize,
) -> Result<Vec<Vec<u8>>> {
    run_pool(chunks.len(), workers, |i| {
        Ok(compressor.compress_reads(chunks[i])?.to_bytes())
    })
    .into_iter()
    .collect()
}

/// Encodes a read set into a sharded container.
///
/// Chunks are compressed in parallel, one worker per available core,
/// and concatenated in read order; the manifest records each chunk's
/// read span and byte extent.
///
/// # Errors
///
/// Propagates the first per-chunk codec failure.
///
/// # Panics
///
/// Panics if `opts.reads_per_chunk` is 0.
pub fn encode_sharded(reads: &ReadSet, opts: &StoreOptions) -> Result<ShardedStore> {
    assert!(
        opts.reads_per_chunk > 0,
        "chunks must hold at least one read"
    );
    let chunks: Vec<&[Read]> = reads.reads().chunks(opts.reads_per_chunk).collect();
    let encoded = encode_chunks(&chunks, &order_preserving_compressor(), default_workers())?;

    let mut store = ShardedStore {
        manifest: StoreManifest {
            reads_per_chunk: opts.reads_per_chunk as u64,
            chunks: std::sync::Arc::new(Vec::with_capacity(chunks.len())),
        },
        blob: Vec::new(),
    };
    for (chunk, bytes) in chunks.iter().zip(encoded) {
        store.splice_chunk(chunk.len() as u64, &bytes);
    }
    Ok(store)
}

/// Parses and decodes the chunk `meta` at `extent` of `bytes` — the one
/// chunk decode, behind [`decode_all`] and the engine's cache misses.
/// The manifest may come from a separate object than the blob: a chunk
/// holding another population than its manifest entry means one of
/// them lies, and slicing by manifest coordinates would walk off it.
pub(crate) fn decode_chunk(bytes: &[u8], extent: Extent, meta: &ChunkMeta) -> Result<ChunkColumns> {
    let corrupt = |cause| StoreError::CorruptChunk {
        chunk_id: meta.id,
        cause,
    };
    let archive = SageArchive::from_extent(bytes, extent).map_err(corrupt)?;
    let cols = SageDecompressor::new(OutputFormat::Ascii)
        .decode_chunk(&archive)
        .map_err(corrupt)?;
    if cols.len() as u64 != meta.n_reads {
        return Err(corrupt(SageError::Corrupt(format!(
            "chunk decoded {} reads but manifest claims {}",
            cols.len(),
            meta.n_reads
        ))));
    }
    Ok(cols)
}

/// Decodes every chunk of a sharded container back into one read set,
/// in dataset order, using `workers` threads over the shared queue.
///
/// # Errors
///
/// Returns [`StoreError::CorruptChunk`] naming the first chunk that
/// fails validation or decoding, or holds another number of reads than
/// its manifest entry.
pub fn decode_all(store: &ShardedStore, workers: usize) -> Result<ReadSet> {
    let decoded = run_pool(store.n_chunks(), workers.max(1), |i| {
        let meta = &store.manifest.chunks[i];
        decode_chunk(&store.blob, meta.extent, meta)
            .map(|cols| cols.iter().map(|r| r.to_read()).collect::<Vec<_>>())
    });
    let mut out = ReadSet::new();
    for reads in decoded {
        out.extend(reads?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_genomics::sim::{simulate_dataset, DatasetProfile};

    fn tiny() -> ReadSet {
        simulate_dataset(&DatasetProfile::tiny_short(), 11).reads
    }

    #[test]
    fn shards_cover_all_reads_in_order() {
        let reads = tiny();
        let store = encode_sharded(&reads, &StoreOptions::new(10)).unwrap();
        assert_eq!(store.total_reads(), reads.len() as u64);
        assert_eq!(store.n_chunks(), reads.len().div_ceil(10));
        let back = decode_all(&store, 4).unwrap();
        assert_eq!(back.len(), reads.len());
        for (a, b) in reads.iter().zip(back.iter()) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.qual, b.qual);
        }
    }

    #[test]
    fn chunk_larger_than_dataset_gives_one_chunk() {
        let reads = tiny();
        let store = encode_sharded(&reads, &StoreOptions::new(reads.len() * 10)).unwrap();
        assert_eq!(store.n_chunks(), 1);
    }

    #[test]
    fn empty_dataset_encodes_to_empty_store() {
        let store = encode_sharded(&ReadSet::new(), &StoreOptions::new(8)).unwrap();
        assert_eq!(store.n_chunks(), 0);
        assert!(store.blob.is_empty());
        assert_eq!(decode_all(&store, 2).unwrap().len(), 0);
    }

    #[test]
    fn corrupting_one_chunk_names_it() {
        let reads = tiny();
        let mut store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let victim = store.manifest.chunks[2];
        store.blob[victim.extent.offset] ^= 0xFF; // break chunk 2's magic
        match decode_all(&store, 2) {
            Err(StoreError::CorruptChunk { chunk_id, .. }) => assert_eq!(chunk_id, 2),
            other => panic!("expected CorruptChunk, got {other:?}"),
        }
    }

    #[test]
    fn a_chunk_holding_another_population_than_its_manifest_entry_is_corrupt() {
        // Chunks of 8, 8 and 4 reads; swapping the extents of chunks 1
        // and 2 leaves every archive whole but misfiled. `decode_all`
        // and the engine must both refuse it the same way, not return
        // twenty reads in the wrong order.
        let reads = ReadSet::from_reads(tiny().reads()[..20].to_vec());
        let mut store = encode_sharded(&reads, &StoreOptions::new(8)).unwrap();
        let mut chunks = store.manifest.chunks.to_vec();
        let (one, two) = (chunks[1].extent, chunks[2].extent);
        (chunks[1].extent, chunks[2].extent) = (two, one);
        store.manifest.chunks = std::sync::Arc::new(chunks);
        match decode_all(&store, 2) {
            Err(StoreError::CorruptChunk { chunk_id, cause }) => {
                assert_eq!(chunk_id, 1);
                assert!(cause.to_string().contains("manifest claims 8"), "{cause}");
            }
            other => panic!("expected CorruptChunk, got {other:?}"),
        }
        let engine = crate::StoreEngine::open(store, crate::EngineConfig::default());
        assert!(matches!(
            engine.get(8..16),
            Err(StoreError::CorruptChunk { chunk_id: 1, .. })
        ));
    }

    #[test]
    fn encode_sharded_matches_core_compress_chunked() {
        let reads = tiny();
        let opts = StoreOptions::new(9);
        let store = encode_sharded(&reads, &opts).unwrap();
        let archives = order_preserving_compressor()
            .compress_chunked(&reads, 9)
            .unwrap();
        assert_eq!(store.n_chunks(), archives.len());
        for (meta, archive) in store.manifest.chunks.iter().zip(&archives) {
            let blob_chunk = &store.blob[meta.extent.offset..meta.extent.end()];
            assert_eq!(blob_chunk, archive.to_bytes(), "chunk {}", meta.id);
        }
    }

    #[test]
    fn single_worker_pool_matches_parallel_pool() {
        // Both encode paths (`encode_sharded` and the engine's append)
        // go through `encode_chunks`. The codec is deterministic, so
        // the worker count cannot change the bytes.
        let reads = tiny();
        let chunks: Vec<&[Read]> = reads.reads().chunks(7).collect();
        let compressor = order_preserving_compressor();
        let a = encode_chunks(&chunks, &compressor, 1).unwrap();
        let b = encode_chunks(&chunks, &compressor, 8).unwrap();
        assert_eq!(a, b);
        let store = encode_sharded(&reads, &StoreOptions::new(7)).unwrap();
        for (meta, bytes) in store.manifest.chunks.iter().zip(&a) {
            assert_eq!(
                &store.blob[meta.extent.offset..meta.extent.end()],
                &bytes[..]
            );
        }
    }
}
