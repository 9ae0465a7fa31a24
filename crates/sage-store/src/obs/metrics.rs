//! Unified metrics snapshot/registry and windowed time-series
//! sampling over span streams.

use super::OpSpan;

// ---------------------------------------------------------------------
// Unified metrics
// ---------------------------------------------------------------------

/// A typed metric value in the unified registry view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time measurement.
    Gauge(f64),
}

/// One unified snapshot of everything the serving stack counts —
/// the registry subsuming the scattered per-layer stats structs.
/// Produced by [`Dataset::metrics()`](crate::client::Dataset::metrics).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Operations accepted into the submission ring.
    pub submitted: u64,
    /// Operations completed (answered or failed).
    pub completed: u64,
    /// Fail-mode submissions shed because the ring was full.
    pub rejected: u64,
    /// Operations cancelled by a shutdown while still queued.
    pub cancelled: u64,
    /// Operations queued in the ring right now.
    pub queued: usize,
    /// Requests the engine served (gets + scans + appends), all
    /// entry points included.
    pub requests_served: u64,
    /// Payload bytes memcpy'd on the serving read path.
    pub bytes_copied: u64,
    /// Decoded-chunk cache hits (across shards).
    pub cache_hits: u64,
    /// Decoded-chunk cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Cache shard count.
    pub cache_shards: usize,
    /// Decoded chunks currently pinned.
    pub cache_len: usize,
    /// Cache capacity in chunks.
    pub cache_capacity: usize,
    /// Cache shard-lock acquisitions.
    pub lock_acquisitions: u64,
    /// Seconds spent holding cache shard locks (summed over shards).
    pub lock_busy_seconds: f64,
    /// Device seconds charged per device: its read plus write
    /// seconds, session and drive traffic alike (empty on an untimed
    /// engine).
    pub device_busy: Vec<f64>,
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
    /// Payload bytes (bases + quality) produced by those decodes.
    pub bytes_decoded: u64,
    /// Wall-clock seconds spent inside chunk decode.
    pub decode_seconds: f64,
    /// Racing misses resolved by another session's in-flight decode
    /// (the single-flight dedup counter).
    pub dedup_decodes: u64,
    /// Spans held in the dataset's trace buffer (0 when tracing is
    /// off).
    pub trace_spans: usize,
}

impl MetricsSnapshot {
    /// Cache hit fraction in `[0, 1]` (0 when untouched).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// The registry view: every metric as a `(name, typed value)`
    /// pair, per-device entries included.
    pub fn metrics(&self) -> Vec<(String, MetricValue)> {
        let mut out: Vec<(String, MetricValue)> = vec![
            (
                "server.submitted".into(),
                MetricValue::Counter(self.submitted),
            ),
            (
                "server.completed".into(),
                MetricValue::Counter(self.completed),
            ),
            (
                "server.rejected".into(),
                MetricValue::Counter(self.rejected),
            ),
            (
                "server.cancelled".into(),
                MetricValue::Counter(self.cancelled),
            ),
            (
                "server.queued".into(),
                MetricValue::Gauge(self.queued as f64),
            ),
            (
                "engine.requests_served".into(),
                MetricValue::Counter(self.requests_served),
            ),
            (
                "engine.bytes_copied".into(),
                MetricValue::Counter(self.bytes_copied),
            ),
            ("cache.hits".into(), MetricValue::Counter(self.cache_hits)),
            (
                "cache.misses".into(),
                MetricValue::Counter(self.cache_misses),
            ),
            (
                "cache.evictions".into(),
                MetricValue::Counter(self.cache_evictions),
            ),
            (
                "cache.hit_rate".into(),
                MetricValue::Gauge(self.cache_hit_rate()),
            ),
            (
                "cache.len".into(),
                MetricValue::Gauge(self.cache_len as f64),
            ),
            (
                "cache.lock_acquisitions".into(),
                MetricValue::Counter(self.lock_acquisitions),
            ),
            (
                "cache.lock_busy_seconds".into(),
                MetricValue::Gauge(self.lock_busy_seconds),
            ),
            (
                "device.reads".into(),
                MetricValue::Counter(self.device_reads),
            ),
            (
                "device.writes".into(),
                MetricValue::Counter(self.device_writes),
            ),
            (
                "device.read_seconds".into(),
                MetricValue::Gauge(self.device_read_seconds),
            ),
            (
                "device.write_seconds".into(),
                MetricValue::Gauge(self.device_write_seconds),
            ),
            (
                "decode.chunks".into(),
                MetricValue::Counter(self.chunks_decoded),
            ),
            (
                "decode.bytes".into(),
                MetricValue::Counter(self.bytes_decoded),
            ),
            (
                "decode.seconds".into(),
                MetricValue::Gauge(self.decode_seconds),
            ),
            (
                "decode.dedup".into(),
                MetricValue::Counter(self.dedup_decodes),
            ),
            (
                "trace.spans".into(),
                MetricValue::Counter(self.trace_spans as u64),
            ),
        ];
        for (d, busy) in self.device_busy.iter().enumerate() {
            out.push((
                format!("device.{d}.busy_seconds"),
                MetricValue::Gauge(*busy),
            ));
        }
        out
    }

    /// Renders the snapshot as one JSON object (the metrics dump the
    /// bench bins write next to their trace exports).
    pub fn to_json(&self) -> String {
        let vec_json = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.9}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"server\":{{\"submitted\":{},\"completed\":{},\"rejected\":{},\"cancelled\":{},\
             \"queued\":{}}},\"engine\":{{\"requests_served\":{},\"bytes_copied\":{}}},\
             \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"hit_rate\":{:.6},\
             \"shards\":{},\"len\":{},\"capacity\":{},\"lock_acquisitions\":{},\
             \"lock_busy_seconds\":{:.9}}},\"device\":{{\"busy\":[{}],\"reads\":{},\
             \"writes\":{},\"read_seconds\":{:.9},\"write_seconds\":{:.9}}},\
             \"decode\":{{\"chunks\":{},\"bytes\":{},\"seconds\":{:.9},\"dedup\":{}}},\
             \"trace\":{{\"spans\":{}}}}}",
            self.submitted,
            self.completed,
            self.rejected,
            self.cancelled,
            self.queued,
            self.requests_served,
            self.bytes_copied,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_hit_rate(),
            self.cache_shards,
            self.cache_len,
            self.cache_capacity,
            self.lock_acquisitions,
            self.lock_busy_seconds,
            vec_json(&self.device_busy),
            self.device_reads,
            self.device_writes,
            self.device_read_seconds,
            self.device_write_seconds,
            self.chunks_decoded,
            self.bytes_decoded,
            self.decode_seconds,
            self.dedup_decodes,
            self.trace_spans,
        )
    }
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

    /// The configured window width (virtual seconds).
    pub fn dt(&self) -> f64 {
        self.dt
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

    #[test]
    fn metric_registry_lists_typed_values() {
        let snap = MetricsSnapshot {
            submitted: 10,
            completed: 9,
            rejected: 1,
            cancelled: 0,
            queued: 0,
            requests_served: 9,
            bytes_copied: 4096,
            cache_hits: 6,
            cache_misses: 3,
            cache_evictions: 1,
            cache_shards: 2,
            cache_len: 2,
            cache_capacity: 4,
            lock_acquisitions: 9,
            lock_busy_seconds: 1e-6,
            device_busy: vec![0.5, 0.25],
            device_reads: 3,
            device_writes: 0,
            device_read_seconds: 0.75,
            device_write_seconds: 0.0,
            chunks_decoded: 3,
            bytes_decoded: 2048,
            decode_seconds: 0.001,
            dedup_decodes: 1,
            trace_spans: 9,
        };
        assert!((snap.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        let metrics = snap.metrics();
        assert!(metrics
            .iter()
            .any(|(n, v)| n == "cache.hits" && *v == MetricValue::Counter(6)));
        assert!(metrics
            .iter()
            .any(|(n, v)| n == "device.1.busy_seconds" && *v == MetricValue::Gauge(0.25)));
        assert!(metrics
            .iter()
            .any(|(n, v)| n == "trace.spans" && *v == MetricValue::Counter(9)));
        assert!(metrics
            .iter()
            .any(|(n, v)| n == "decode.chunks" && *v == MetricValue::Counter(3)));
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"server\"",
            "\"cache\"",
            "\"busy\":[0.500000000,0.250000000]",
            "\"spans\":9",
            "\"decode\"",
            "\"dedup\":1",
        ] {
            assert!(json.contains(key), "{json} missing {key}");
        }
    }
}
