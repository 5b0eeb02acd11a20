//! The expanded accumulation buffer: five RegBins, chunk-indexed access,
//! simultaneous serial flush, and per-pass clock gating (Section 5.1).

use crate::regbin::{regbin_index_of_chunk, regbin_start, RegBin, RegBinEvents, NUM_REGBINS};
use csp_telemetry::Registry;

/// Statistics of one flush of the accumulation buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushStats {
    /// Stall cycles exposed to the next pass. All bins drain serially *in
    /// parallel*, so only the first bin's two entries gate the restart
    /// (Section 5.1's two-cycle penalty); the rest overlaps computation.
    pub stall_cycles: u64,
    /// Total cycles until the largest dirty bin finishes draining.
    pub drain_cycles: u64,
    /// Values flushed (non-zero entries included; zero entries of dirty
    /// bins are still clocked out).
    pub entries_flushed: u64,
}

/// A PE's accumulation buffer: 62 partial sums across five circular
/// RegBins, addressed by chunk index.
#[derive(Debug, Clone)]
pub struct AccumBuffer {
    bins: Vec<RegBin>,
    /// Chunks touched since the last pass boundary (62 entries ≤ 64 bits).
    touch_mask: u64,
    /// Most chunks any single pass has held — the occupancy high-water
    /// mark published to telemetry.
    occupancy_hwm: u32,
    /// Per-bin event counts already published, so telemetry publishes
    /// deltas and repeated publishes never double-count.
    published: [RegBinEvents; NUM_REGBINS],
}

impl Default for AccumBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl AccumBuffer {
    /// A zeroed buffer.
    pub fn new() -> Self {
        AccumBuffer {
            bins: (0..NUM_REGBINS).map(RegBin::new).collect(),
            touch_mask: 0,
            occupancy_hwm: 0,
            published: [RegBinEvents::default(); NUM_REGBINS],
        }
    }

    /// Total entries (62).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.bins.iter().map(|b| b.len()).sum()
    }

    /// Accumulate `delta` into the partial sum of chunk `chunk`, for a
    /// filter row with `row_chunk_count` surviving chunks. Returns the new
    /// value. Idle bins tick their rotation FSMs, matching the hardware
    /// where armed bins keep rotating while unselected.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= 62`.
    pub fn accumulate(&mut self, chunk: usize, delta: f32, row_chunk_count: usize) -> f32 {
        let b = regbin_index_of_chunk(chunk);
        let offset = chunk - regbin_start(b);
        self.touch_mask |= 1u64 << chunk;
        for (i, bin) in self.bins.iter_mut().enumerate() {
            if i != b {
                bin.tick();
            }
        }
        self.bins[b].accumulate(offset, delta, row_chunk_count)
    }

    /// Read the partial sum of chunk `chunk` without event accounting.
    pub fn peek(&self, chunk: usize) -> f32 {
        let b = regbin_index_of_chunk(chunk);
        self.bins[b].peek(chunk - regbin_start(b))
    }

    /// Overwrite the partial sum of chunk `chunk` (reset/reload paths).
    pub fn poke(&mut self, chunk: usize, value: f32) {
        let b = regbin_index_of_chunk(chunk);
        self.bins[b].poke(chunk - regbin_start(b), value);
    }

    /// Fault-injection hook: expose the stored partial sum of `chunk` to a
    /// corruption function and store back whatever it returns (see
    /// [`RegBin::apply_fault`]).
    pub fn apply_fault<F: FnOnce(f32) -> f32>(&mut self, chunk: usize, f: F) {
        let b = regbin_index_of_chunk(chunk);
        self.bins[b].apply_fault(chunk - regbin_start(b), f);
    }

    /// Let all rotation FSMs run to completion (between row groups).
    pub fn settle(&mut self) {
        for bin in &mut self.bins {
            bin.settle();
        }
    }

    /// Flush all bins using the paper's simultaneous serial scheme: every
    /// bin drains one 8-bit entry per cycle onto its own lane of the
    /// `(8 × B)`-bit drain bus. Returns the 62 chunk-ordered values and the
    /// flush statistics. Bins untouched this pass flush nothing (their
    /// entries are zero and, under clock gating, never clocked).
    pub fn flush(&mut self) -> (Vec<f32>, FlushStats) {
        let mut values = Vec::with_capacity(self.len());
        let mut drain_cycles = 0u64;
        let mut entries = 0u64;
        let mut dirty_bin0 = false;
        for bin in &mut self.bins {
            let touched = bin.touched();
            let drained = bin.drain();
            if touched {
                drain_cycles = drain_cycles.max(drained.len() as u64);
                entries += drained.len() as u64;
                if bin.id() == 0 {
                    dirty_bin0 = true;
                }
            }
            values.extend(drained);
        }
        let stats = FlushStats {
            // Only RB0's drain gates the next pass (size 2); everything
            // else overlaps with the next pass' computation.
            stall_cycles: if dirty_bin0 { 2 } else { 0 },
            drain_cycles,
            entries_flushed: entries,
        };
        (values, stats)
    }

    /// End the current pass: bins untouched since the last pass boundary
    /// count as clock-gated (Fig. 13's per-pass gating statistics).
    pub fn end_pass(&mut self) {
        self.occupancy_hwm = self.occupancy_hwm.max(self.touch_mask.count_ones());
        self.touch_mask = 0;
        for bin in &mut self.bins {
            bin.end_pass();
        }
    }

    /// Most chunks any single completed pass has held (updated at
    /// [`end_pass`](Self::end_pass)).
    pub fn occupancy_high_water(&self) -> u32 {
        self.occupancy_hwm.max(self.touch_mask.count_ones())
    }

    /// Per-bin event counters.
    pub fn events(&self) -> [RegBinEvents; NUM_REGBINS] {
        let mut out = [RegBinEvents::default(); NUM_REGBINS];
        for (i, bin) in self.bins.iter().enumerate() {
            out[i] = bin.events();
        }
        out
    }

    /// Publish per-bin event deltas since the last publish into `reg`
    /// (counters `accel.regbin.*` labelled `rb0`..`rb4`) plus the
    /// occupancy high-water gauge. Deltas make repeated publishes — one
    /// per pass, or one per PE lifetime — sum to the exact event totals.
    pub fn publish_telemetry(&mut self, reg: &Registry) {
        self.publish_telemetry_scaled(reg, 1);
    }

    /// [`publish_telemetry`](Self::publish_telemetry) on behalf of
    /// `copies` buffers that went through exactly this buffer's event
    /// history: counter deltas are multiplied by `copies`, the occupancy
    /// gauge is unchanged. The flat IpOS tile pass keeps one control-only
    /// buffer per PE column and publishes it for every PE of the column.
    pub(crate) fn publish_telemetry_scaled(&mut self, reg: &Registry, copies: u64) {
        for (b, bin) in self.bins.iter().enumerate() {
            let now = bin.events();
            let prev = self.published[b];
            let label = format!("rb{b}");
            reg.counter_add(
                "accel.regbin.head_accesses",
                &label,
                (now.head_accesses - prev.head_accesses) * copies,
            );
            reg.counter_add(
                "accel.regbin.rotation_steps",
                &label,
                (now.rotation_steps - prev.rotation_steps) * copies,
            );
            reg.counter_add(
                "accel.regbin.active_passes",
                &label,
                (now.active_passes - prev.active_passes) * copies,
            );
            reg.counter_add(
                "accel.regbin.gated_passes",
                &label,
                (now.gated_passes - prev.gated_passes) * copies,
            );
            self.published[b] = now;
        }
        reg.max_gauge(
            "accel.regbin.occupancy_hwm",
            "",
            u64::from(self.occupancy_high_water()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_across_bins() {
        let mut ab = AccumBuffer::new();
        assert_eq!(ab.len(), 62);
        for chunk in 0..62 {
            ab.accumulate(chunk, chunk as f32, 62);
        }
        for chunk in 0..62 {
            assert_eq!(ab.peek(chunk), chunk as f32);
        }
    }

    #[test]
    fn accumulate_adds() {
        let mut ab = AccumBuffer::new();
        ab.accumulate(5, 1.0, 8);
        ab.accumulate(5, 2.5, 8);
        assert_eq!(ab.peek(5), 3.5);
    }

    #[test]
    fn flush_returns_chunk_ordered_values() {
        let mut ab = AccumBuffer::new();
        ab.accumulate(0, 10.0, 1);
        ab.accumulate(2, 20.0, 3);
        ab.accumulate(30, 30.0, 31);
        let (values, stats) = ab.flush();
        assert_eq!(values.len(), 62);
        assert_eq!(values[0], 10.0);
        assert_eq!(values[2], 20.0);
        assert_eq!(values[30], 30.0);
        assert_eq!(stats.stall_cycles, 2); // RB0 dirty
                                           // Largest dirty bin is RB4 (32 entries).
        assert_eq!(stats.drain_cycles, 32);
        // After flush, everything is zero.
        assert!((0..62).all(|c| ab.peek(c) == 0.0));
    }

    #[test]
    fn flush_without_bin0_has_no_stall() {
        let mut ab = AccumBuffer::new();
        ab.accumulate(6, 1.0, 14); // RB2 only
        let (_, stats) = ab.flush();
        assert_eq!(stats.stall_cycles, 0);
        assert_eq!(stats.drain_cycles, 8);
    }

    #[test]
    fn untouched_buffer_flushes_clean() {
        let mut ab = AccumBuffer::new();
        let (values, stats) = ab.flush();
        assert!(values.iter().all(|&v| v == 0.0));
        assert_eq!(stats.stall_cycles, 0);
        assert_eq!(stats.drain_cycles, 0);
        assert_eq!(stats.entries_flushed, 0);
    }

    #[test]
    fn pass_gating_counts_unused_bins() {
        let mut ab = AccumBuffer::new();
        // Touch only bins 0 and 1 (chunks 0..6).
        for chunk in 0..6 {
            ab.accumulate(chunk, 1.0, 6);
        }
        ab.end_pass();
        let ev = ab.events();
        assert_eq!(ev[0].active_passes, 1);
        assert_eq!(ev[1].active_passes, 1);
        assert_eq!(ev[2].gated_passes, 1);
        assert_eq!(ev[3].gated_passes, 1);
        assert_eq!(ev[4].gated_passes, 1);
    }

    #[test]
    fn head_only_workload_never_rotates() {
        // All rows have chunk count 1: only RB0's head is used.
        let mut ab = AccumBuffer::new();
        for _ in 0..100 {
            ab.accumulate(0, 1.0, 1);
        }
        let ev = ab.events();
        assert_eq!(ev[0].rotation_steps, 0);
        for e in &ev[1..] {
            assert_eq!(e.rotation_steps, 0);
        }
    }

    #[test]
    fn deep_workload_rotates_big_bins() {
        let mut ab = AccumBuffer::new();
        for chunk in 0..40 {
            ab.accumulate(chunk, 1.0, 40);
        }
        ab.settle();
        let ev = ab.events();
        assert!(ev[4].rotation_steps > 0);
        assert!(ev[3].rotation_steps > 0);
    }
}
