//! What the operating system says about this process: CPU time spent
//! and peak resident memory. Linux `/proc` only — the benchmark's host.

/// `USER_HZ`: the unit `/proc/stat` counts CPU time in. Fixed at 100
/// in the Linux ABI on every architecture Rust targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// `struct timespec` of 64-bit Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// User + system CPU seconds of the whole process so far, threads that
/// already exited included, to the nanosecond. (`/proc/self/stat`
/// counts the same in 10 ms ticks: too coarse for a round of a quarter
/// of a second, and two runs then report the very same figure.)
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` of this
    // platform's layout, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds the hypervisor gave to other guests while this machine
/// had work to run (`steal` of the first line of `/proc/stat`, all
/// CPUs together, in 10 ms ticks). Reads 0 where the kernel does not
/// report it.
pub fn steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("cpu line");
    // "cpu user nice system idle iowait irq softirq steal ..."
    let steal: f64 = cpu
        .split_ascii_whitespace()
        .nth(8)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0.0);
    steal / TICKS_PER_SECOND
}

/// Times an interval and says how disturbed it was: start one before
/// the work, read it after.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: std::time::Instant,
    cpu_before: f64,
    steal_before: f64,
}

/// What a [`Stopwatch`] read.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    pub wall_s: f64,
    /// CPU seconds this process spent.
    pub cpu_s: f64,
    /// The share of the machine's CPU time (wall time × CPUs) that the
    /// hypervisor gave to other guests meanwhile.
    pub steal_share: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_before: cpu_seconds(),
            steal_before: steal_seconds(),
            started: std::time::Instant::now(),
        }
    }

    pub fn read(&self) -> Elapsed {
        let wall_s = self.started.elapsed().as_secs_f64();
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        Elapsed {
            wall_s,
            cpu_s: cpu_seconds() - self.cpu_before,
            steal_share: (steal_seconds() - self.steal_before) / (wall_s * cpus as f64),
        }
    }
}

/// Restarts the peak-memory watermark at the current resident size, so
/// a process that runs several workloads reports each one's own peak
/// (`5` → `/proc/self/clear_refs`, Linux ≥ 4.0). Where the kernel
/// refuses, the peak stays the whole process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size since the process started or the watermark
/// was last reset, in MiB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let watch = Stopwatch::start();
        let before = cpu_seconds();
        let mut x = 0u64;
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = cpu_seconds() - before;
        assert!(spent > 0.03, "60 ms of spinning took {spent} CPU s");
        assert!(peak_rss_mib() > 0.5);
        assert!(steal_seconds() >= 0.0);
        let e = watch.read();
        assert!(e.wall_s >= 0.06 && e.cpu_s >= spent);
        assert!((0.0..=1.0).contains(&e.steal_share), "{e:?}");
    }
}
