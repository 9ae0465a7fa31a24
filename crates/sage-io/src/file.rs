//! Real-bytes I/O backend: per-device container files served with
//! positioned reads.
//!
//! Everything else in this crate models devices on a *virtual*
//! timeline; [`FileBackend`] is the first backend that actually moves
//! bytes through the host. It persists one container file per device
//! (`dev-000.sage`, `dev-001.sage`, …) under a caller-chosen
//! directory and serves extent reads with `pread` — positioned,
//! thread-safe reads that need no shared cursor, the same primitive
//! an io_uring `IORING_OP_READ` submission carries. The backend keeps
//! the reactor's submit/complete shape (ops in, outputs + charges
//! out), so a native ring can replace the `pread` call without
//! touching any caller.
//!
//! Two design rules keep the virtual timeline honest:
//!
//! - [`IoBackend::execute`] returns **no device charges**. Real reads
//!   cost wall-clock seconds, not virtual seconds; virtual charging
//!   stays wherever it already lives (the store engine's device
//!   models). Switching a dataset onto this backend therefore cannot
//!   perturb a single virtual-time number.
//! - Reopening a directory whose container files already exist — and
//!   already hold the expected byte lengths — reuses them verbatim,
//!   so a dataset round-trips across process restarts.

use crate::reactor::IoBackend;
use crate::sched::DeviceCharge;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One positioned read against a device container file: the op type
/// [`FileBackend`] executes. Mirrors the fields an io_uring read SQE
/// would carry (fd index, offset, length).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileReadOp {
    /// Index of the device container to read.
    pub device: usize,
    /// Byte offset within that device's container file.
    pub offset: u64,
    /// Bytes to read.
    pub len: u64,
}

/// A file guarded for appends: positioned reads bypass the lock
/// entirely (on Unix they go straight through `pread`), only writers
/// serialize.
struct DeviceFile {
    file: File,
    write: Mutex<()>,
}

/// Per-device container files serving real extent bytes.
///
/// Construct with [`FileBackend::open_or_create`], read with
/// [`FileBackend::read_extent`] (or through a reactor via the
/// [`IoBackend`] impl), extend with [`FileBackend::write_at`].
pub struct FileBackend {
    dir: PathBuf,
    files: Vec<DeviceFile>,
    reads: AtomicU64,
    bytes_read: AtomicU64,
}

impl std::fmt::Debug for FileBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBackend")
            .field("dir", &self.dir)
            .field("devices", &self.files.len())
            .field("reads", &self.reads.load(Ordering::Relaxed))
            .field("bytes_read", &self.bytes_read.load(Ordering::Relaxed))
            .finish()
    }
}

fn container_path(dir: &Path, device: usize) -> PathBuf {
    dir.join(format!("dev-{device:03}.sage"))
}

impl FileBackend {
    /// Opens (or creates) one container file per entry of `images`
    /// under `dir`, creating the directory if needed.
    ///
    /// A container that already exists with exactly `images[d].len()`
    /// bytes is reused as-is — that is the reopen path, and it is what
    /// makes a dataset persist across sessions. Any other state
    /// (missing, truncated, stale length) is rewritten from the image.
    pub fn open_or_create(dir: impl Into<PathBuf>, images: &[Vec<u8>]) -> io::Result<FileBackend> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut files = Vec::with_capacity(images.len());
        for (device, image) in images.iter().enumerate() {
            let path = container_path(&dir, device);
            let reuse = std::fs::metadata(&path)
                .map(|m| m.is_file() && m.len() == image.len() as u64)
                .unwrap_or(false);
            let file = if reuse {
                OpenOptions::new().read(true).write(true).open(&path)?
            } else {
                let file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(&path)?;
                write_all_at(&file, image, 0)?;
                file
            };
            files.push(DeviceFile {
                file,
                write: Mutex::new(()),
            });
        }
        Ok(FileBackend {
            dir,
            files,
            reads: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        })
    }

    /// Positioned reads served so far (including through a reactor).
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Bytes returned by those reads.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Reads `len` bytes at `offset` from device `device`'s container.
    ///
    /// Fails if the device index is out of range or the extent runs
    /// past the bytes actually on disk (a short read is an error, not
    /// a partial result — extents are exact).
    pub fn read_extent(&self, device: usize, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let slot = self.files.get(device).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no device container {device}"),
            )
        })?;
        let mut buf = vec![0u8; len as usize];
        read_exact_at(&slot.file, &mut buf, offset)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(len, Ordering::Relaxed);
        Ok(buf)
    }

    /// Appends `bytes` at `offset` in device `device`'s container
    /// (the store tells us where its blob ends; writing positioned
    /// rather than seek-to-end keeps the call idempotent on retry).
    /// Concurrent appends to one device serialize on a per-device
    /// lock; reads are never blocked.
    pub fn write_at(&self, device: usize, offset: u64, bytes: &[u8]) -> io::Result<()> {
        let slot = self.files.get(device).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::NotFound,
                format!("no device container {device}"),
            )
        })?;
        let _guard = slot.write.lock().expect("file write lock poisoned");
        write_all_at(&slot.file, bytes, offset)
    }
}

/// Reactor integration: a [`FileReadOp`] in, real bytes out, **zero**
/// virtual charges — the wall clock is the only clock this backend
/// advances.
impl IoBackend for FileBackend {
    type Op = FileReadOp;
    type Output = io::Result<Vec<u8>>;

    fn execute(&self, op: FileReadOp) -> (io::Result<Vec<u8>>, Vec<DeviceCharge>) {
        (self.read_extent(op.device, op.offset, op.len), Vec::new())
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.write_all_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.write_all(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{IoConfig, Reactor};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sage_file_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn images() -> Vec<Vec<u8>> {
        vec![
            (0u16..600).map(|v| (v % 251) as u8).collect(),
            vec![0xab; 37],
        ]
    }

    #[test]
    fn round_trips_extents_across_reopen() {
        let dir = tmpdir("reopen");
        let imgs = images();
        let be = FileBackend::open_or_create(&dir, &imgs).expect("create");
        assert_eq!(be.read_extent(0, 5, 10).expect("read"), imgs[0][5..15]);
        assert_eq!(be.read_extent(1, 0, 37).expect("read"), imgs[1]);
        drop(be);

        // Reopen: same lengths → containers are reused, bytes intact.
        let be = FileBackend::open_or_create(&dir, &imgs).expect("reopen");
        assert_eq!(be.read_extent(0, 590, 10).expect("read"), imgs[0][590..]);
        assert_eq!(be.reads(), 1);
        assert_eq!(be.bytes_read(), 10);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn short_and_out_of_range_reads_fail() {
        let dir = tmpdir("short");
        let be = FileBackend::open_or_create(&dir, &images()).expect("create");
        assert!(be.read_extent(0, 599, 2).is_err());
        assert!(be.read_extent(7, 0, 1).is_err());
        assert_eq!(be.reads(), 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn write_at_extends_container() {
        let dir = tmpdir("append");
        let be = FileBackend::open_or_create(&dir, &images()).expect("create");
        be.write_at(0, 600, b"tail").expect("append");
        assert_eq!(be.read_extent(0, 600, 4).expect("read"), b"tail");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// The io_uring-shaped path: submit [`FileReadOp`]s through a
    /// [`Reactor`] and harvest real bytes off the completion queue.
    /// Empty charge lists mean the virtual clocks never move.
    #[test]
    fn reactor_serves_real_bytes_with_zero_virtual_charges() {
        let dir = tmpdir("reactor");
        let imgs = images();
        let backend = Arc::new(FileBackend::open_or_create(&dir, &imgs).expect("create"));
        let reactor = Reactor::start(
            Arc::clone(&backend),
            IoConfig {
                workers: 2,
                queue_depth: 8,
            },
        );
        let extents: [(u64, u64); 3] = [(0, 16), (100, 8), (256, 32)];
        for (i, &(offset, len)) in extents.iter().enumerate() {
            reactor
                .submit(
                    FileReadOp {
                        device: 0,
                        offset,
                        len,
                    },
                    i as u64,
                    0.0,
                )
                .expect("submit");
        }
        let cq = reactor.completions();
        for _ in 0..extents.len() {
            let cqe = cq.wait_any().expect("completion");
            // Real backend, virtual silence: no op accrues device time.
            assert_eq!(cqe.device_seconds, 0.0);
            let (offset, len) = extents[cqe.user_data as usize];
            let got = cqe.output.expect("read ok");
            assert_eq!(got, imgs[0][offset as usize..(offset + len) as usize]);
        }
        let snap = reactor.snapshot();
        assert_eq!(snap.completed, 3);
        assert_eq!(backend.reads(), 3);
        reactor.shutdown();
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
