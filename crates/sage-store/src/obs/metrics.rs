//! The unified metrics snapshot and windowed time-series sampling
//! over span streams.

use super::OpSpan;

// ---------------------------------------------------------------------
// Unified metrics
// ---------------------------------------------------------------------

/// One unified snapshot of everything the serving stack counts, one
/// typed field per figure. Produced by
/// [`Dataset::metrics()`](crate::client::Dataset::metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Operations accepted into the submission ring.
    pub submitted: u64,
    /// Operations completed (answered or failed).
    pub completed: u64,
    /// Fail-mode submissions shed because the ring was full.
    pub rejected: u64,
    /// Decoded-chunk cache hits (across shards).
    pub cache_hits: u64,
    /// Decoded-chunk cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Seconds spent holding cache shard locks (summed over shards).
    pub lock_busy_seconds: f64,
    /// Device-model read commands issued.
    pub device_reads: u64,
    /// Device-model write commands issued.
    pub device_writes: u64,
    /// Device-model read service seconds.
    pub device_read_seconds: f64,
    /// Device-model write service seconds.
    pub device_write_seconds: f64,
    /// Chunks decompressed on the miss path (dedup'd fills excluded).
    pub chunks_decoded: u64,
    /// Racing misses resolved by another session's in-flight decode
    /// (the single-flight dedup counter).
    pub dedup_decodes: u64,
}

// ---------------------------------------------------------------------
// Windowed time-series sampling
// ---------------------------------------------------------------------

/// Samples a span stream into fixed virtual-time windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsRecorder {
    dt: f64,
}

impl MetricsRecorder {
    /// A recorder slicing the timeline into `virtual_dt`-second
    /// windows.
    ///
    /// # Panics
    ///
    /// Panics when `virtual_dt` is not a positive finite number.
    pub fn sample_every(virtual_dt: f64) -> MetricsRecorder {
        assert!(
            virtual_dt.is_finite() && virtual_dt > 0.0,
            "window width must be positive and finite"
        );
        MetricsRecorder { dt: virtual_dt }
    }

    /// Slices `spans` into windows, producing queue-depth,
    /// utilization, and hit-rate curves over `devices` devices.
    ///
    /// Every [`ChargeInterval`](sage_io::ChargeInterval) is split
    /// **exactly** across the windows it overlaps — the final piece
    /// is the charge's demand minus the earlier pieces — so summing a
    /// device's windowed busy seconds recovers the scheduler's busy
    /// total up to f64 addition reordering (the `trace_explorer`
    /// bench asserts the integration).
    pub fn sample(&self, spans: &[OpSpan], devices: usize) -> WindowSeries {
        let devices = devices.max(1);
        let horizon = spans.iter().map(|s| s.completed_vt).fold(0.0f64, f64::max);
        let windows = ((horizon / self.dt).ceil() as usize).max(1);
        let mut busy = vec![vec![0.0f64; devices]; windows];
        let mut queue_depth = vec![0u32; windows];
        let mut completions = vec![0u32; windows];
        let mut hits = vec![0u64; windows];
        let mut misses = vec![0u64; windows];
        let w_of = |vt: f64| ((vt / self.dt) as usize).min(windows - 1);
        for s in spans {
            // Queue depth sampled at window starts: the op occupies
            // every window whose start instant falls inside
            // [submitted, completed).
            let first = if s.submitted_vt <= 0.0 {
                0
            } else {
                (s.submitted_vt / self.dt).ceil() as usize
            };
            let mut w = first;
            while w < windows && (w as f64) * self.dt < s.completed_vt {
                queue_depth[w] += 1;
                w += 1;
            }
            let done = w_of(s.completed_vt);
            completions[done] += 1;
            hits[done] += s.cache_hits;
            misses[done] += s.cache_misses;
            for iv in &s.intervals {
                let dev = iv.device.min(devices - 1);
                if iv.end_vt <= iv.start_vt {
                    busy[w_of(iv.start_vt)][dev] += iv.seconds;
                    continue;
                }
                // Walk window indices directly (a boundary-landing
                // cursor can round `cursor/dt` down and stall a
                // cursor-driven walk); the index strictly increases,
                // so the walk is bounded by the window count.
                let mut w = w_of(iv.start_vt);
                let mut cursor = iv.start_vt;
                let mut remaining = iv.seconds;
                loop {
                    let w_end = (w as f64 + 1.0) * self.dt;
                    if w_end >= iv.end_vt || w == windows - 1 {
                        // Last piece takes the exact remainder so the
                        // pieces sum to the charge's demand.
                        busy[w][dev] += remaining;
                        break;
                    }
                    let piece = (w_end - cursor).max(0.0);
                    busy[w][dev] += piece;
                    remaining -= piece;
                    cursor = w_end;
                    w += 1;
                }
            }
        }
        let hit_rate = hits
            .iter()
            .zip(&misses)
            .map(|(&h, &m)| {
                if h + m == 0 {
                    0.0
                } else {
                    h as f64 / (h + m) as f64
                }
            })
            .collect();
        WindowSeries {
            dt: self.dt,
            devices,
            busy,
            queue_depth,
            completions,
            hit_rate,
        }
    }
}

/// Windowed time-series curves over the virtual timeline — what
/// [`MetricsRecorder::sample`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSeries {
    /// Window width, virtual seconds.
    pub dt: f64,
    /// Devices covered.
    pub devices: usize,
    /// Busy seconds per `[window][device]`.
    pub busy: Vec<Vec<f64>>,
    /// Admitted-incomplete operations at each window's start instant.
    pub queue_depth: Vec<u32>,
    /// Operations completing within each window.
    pub completions: Vec<u32>,
    /// Chunk-touch cache hit rate of the ops completing in each
    /// window (0 where none completed).
    pub hit_rate: Vec<f64>,
}

impl WindowSeries {
    /// Window count.
    pub fn windows(&self) -> usize {
        self.busy.len()
    }

    /// Per-`[window][device]` utilization: busy seconds over the
    /// window width.
    pub fn utilization(&self) -> Vec<Vec<f64>> {
        self.busy
            .iter()
            .map(|w| w.iter().map(|b| b / self.dt).collect())
            .collect()
    }

    /// Total busy seconds per device, integrated across windows —
    /// matches the scheduler's per-device busy totals.
    pub fn total_busy(&self) -> Vec<f64> {
        let mut out = vec![0.0f64; self.devices];
        for w in &self.busy {
            for (d, b) in w.iter().enumerate() {
                out[d] += b;
            }
        }
        out
    }

    /// Renders the series as one JSON object.
    pub fn to_json(&self) -> String {
        let util = self
            .utilization()
            .iter()
            .map(|w| {
                format!(
                    "[{}]",
                    w.iter()
                        .map(|u| format!("{u:.6}"))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let ints = |xs: &[u32]| {
            xs.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"dt\":{:.9},\"windows\":{},\"devices\":{},\"queue_depth\":[{}],\
             \"completions\":[{}],\"hit_rate\":[{}],\"utilization\":[{}]}}",
            self.dt,
            self.windows(),
            self.devices,
            ints(&self.queue_depth),
            ints(&self.completions),
            self.hit_rate
                .iter()
                .map(|h| format!("{h:.6}"))
                .collect::<Vec<_>>()
                .join(","),
            util,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::scheduled_spans;
    use super::*;
    use sage_io::VirtualScheduler;

    #[test]
    fn windowed_busy_integrates_to_scheduler_busy() {
        let spans = scheduled_spans(48, 2);
        let mut sched = VirtualScheduler::new(2);
        for s in &spans {
            sched.dispatch(s.submitted_vt, &s.charges(), 0, false);
        }
        let series = MetricsRecorder::sample_every(0.0137).sample(&spans, 2);
        let total = series.total_busy();
        for (d, b) in sched.busy_seconds().iter().enumerate() {
            assert!(
                (total[d] - b).abs() <= b.abs() * 1e-12 + 1e-15,
                "device {d}: windowed {} vs scheduler {b}",
                total[d]
            );
        }
        assert!(series.windows() >= 2);
        assert!(series.queue_depth.iter().any(|&q| q > 0));
        assert_eq!(
            series
                .completions
                .iter()
                .map(|&c| c as usize)
                .sum::<usize>(),
            spans.len()
        );
        let json = series.to_json();
        assert!(json.contains("\"queue_depth\"") && json.contains("\"utilization\""));
    }
}
