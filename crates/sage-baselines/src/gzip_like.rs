//! A pigz-like block-parallel general-purpose compressor.
//!
//! pigz (parallel gzip) is the paper's general-purpose baseline
//! (§3.1): it compresses independent input blocks on multiple threads
//! but, like gzip, sees only a 32 KiB window — which is why it cannot
//! capture the long-range redundancy of genomic data and lands at
//! ratios of ~2–6 versus ~7–40 for genomic compressors (Table 2).

use crate::deflate::{deflate_block, inflate_block, InflateError};

/// Magic bytes of the container.
const MAGIC: [u8; 4] = *b"GZLK";

/// Block-parallel DEFLATE-like compressor.
///
/// # Example
///
/// ```
/// use sage_baselines::GzipLike;
///
/// let gz = GzipLike::new();
/// let data = b"genomic data genomic data genomic data".repeat(100);
/// let packed = gz.compress(&data);
/// assert_eq!(gz.decompress(&packed).unwrap(), data);
/// assert!(packed.len() < data.len());
/// ```
#[derive(Debug, Clone)]
pub struct GzipLike {
    /// Independent compression block size.
    chunk_size: usize,
    /// Worker threads for compression (decompression is serial, as in
    /// pigz).
    threads: usize,
}

impl Default for GzipLike {
    fn default() -> GzipLike {
        GzipLike::new()
    }
}

impl GzipLike {
    /// Creates a compressor with pigz-like defaults (128 KiB blocks,
    /// 4 threads).
    pub fn new() -> GzipLike {
        GzipLike {
            chunk_size: 128 * 1024,
            threads: 4,
        }
    }

    /// Sets the block size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is 0.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> GzipLike {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Compresses `data`.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        let chunks: Vec<&[u8]> = data.chunks(self.chunk_size).collect();
        let blocks: Vec<Vec<u8>> = if self.threads <= 1 || chunks.len() <= 1 {
            chunks.iter().map(|c| deflate_block(c)).collect()
        } else {
            // Static partition of chunks over worker threads.
            let mut blocks: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
            let workers = self.threads.min(chunks.len());
            let per = chunks.len().div_ceil(workers);
            std::thread::scope(|s| {
                for (w, out_slice) in blocks.chunks_mut(per).enumerate() {
                    let in_slice = &chunks[w * per..(w * per + out_slice.len())];
                    s.spawn(move || {
                        for (o, c) in out_slice.iter_mut().zip(in_slice) {
                            *o = deflate_block(c);
                        }
                    });
                }
            });
            blocks
        };
        let mut out = Vec::with_capacity(data.len() / 2 + 64);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&(blocks.len() as u32).to_le_bytes());
        for b in &blocks {
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(b);
        }
        out
    }

    /// Decompresses a container produced by [`compress`](Self::compress).
    ///
    /// # Errors
    ///
    /// Returns [`InflateError`] on malformed input.
    pub fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, InflateError> {
        if data.len() < 8 || data[0..4] != MAGIC {
            return Err(InflateError("bad container magic".into()));
        }
        let n_blocks = u32::from_le_bytes(data[4..8].try_into().expect("len 4")) as usize;
        let mut out = Vec::new();
        let mut pos = 8usize;
        for _ in 0..n_blocks {
            if pos + 4 > data.len() {
                return Err(InflateError("truncated block table".into()));
            }
            let blen = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("len 4")) as usize;
            pos += 4;
            if pos + blen > data.len() {
                return Err(InflateError("truncated block".into()));
            }
            out.extend_from_slice(&inflate_block(&data[pos..pos + blen])?);
            pos += blen;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn multi_chunk_round_trip() {
        let gz = GzipLike {
            threads: 3,
            ..GzipLike::new().with_chunk_size(1024)
        };
        let data = pseudo_random(10_000, 5);
        assert_eq!(gz.decompress(&gz.compress(&data)).unwrap(), data);
    }

    #[test]
    fn parallel_and_serial_agree() {
        let data = b"spam and eggs ".repeat(2_000);
        let parallel = GzipLike::new().with_chunk_size(4096);
        let serial = GzipLike {
            threads: 1,
            ..parallel.clone()
        };
        assert_eq!(serial.compress(&data), parallel.compress(&data));
    }

    #[test]
    fn empty_input() {
        let gz = GzipLike::new();
        let packed = gz.compress(&[]);
        assert_eq!(gz.decompress(&packed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fastq_text_ratio_is_modest() {
        // Build FASTQ-like text: random DNA + binned qualities. pigz-like
        // ratios on such data should be in the 2–6x range (Table 2),
        // far below genomic compressors.
        let mut data = Vec::new();
        let mut x = 17u64;
        for i in 0..500 {
            data.extend_from_slice(format!("@read{i}\n").as_bytes());
            for _ in 0..100 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                data.push(b"ACGT"[((x >> 33) % 4) as usize]);
            }
            data.extend_from_slice(b"\n+\n");
            for _ in 0..100 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                data.push(b"IFA#"[((x >> 33) % 4) as usize]);
            }
            data.push(b'\n');
        }
        let gz = GzipLike::new();
        let packed = gz.compress(&data);
        let ratio = data.len() as f64 / packed.len() as f64;
        assert!(ratio > 1.5 && ratio < 8.0, "ratio {ratio}");
        assert_eq!(gz.decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupt_container_rejected() {
        let gz = GzipLike::new();
        let mut packed = gz.compress(b"hello world hello world");
        packed[0] = b'X';
        assert!(gz.decompress(&packed).is_err());
    }
}
