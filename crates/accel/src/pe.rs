//! The CSP-H processing element: MAC + intermediate register (IR) +
//! accumulation buffer (Fig. 6).

use crate::accum::{AccumBuffer, FlushStats};
use csp_pruning::truncation::TruncationConfig;
use csp_sim::fault::{FaultClass, FaultSession};

/// A functional CSP-H PE.
///
/// The PE accumulates products in its full-precision IR; every
/// `truncation_period` MACs (or on an explicit chunk boundary) the IR folds
/// into the chunk's RegBin entry, which is truncated to the configured
/// RegBin precision. With truncation disabled (`None`) the PE is exact.
#[derive(Debug, Clone)]
pub struct Pe {
    accum: AccumBuffer,
    ir: f32,
    ir_count: usize,
    truncation: Option<TruncationConfig>,
    macs: u64,
    ir_folds: u64,
    published_macs: u64,
    published_folds: u64,
}

impl Pe {
    /// A PE with optional partial-sum truncation.
    pub fn new(truncation: Option<TruncationConfig>) -> Self {
        Pe {
            accum: AccumBuffer::new(),
            ir: 0.0,
            ir_count: 0,
            truncation,
            macs: 0,
            ir_folds: 0,
            published_macs: 0,
            published_folds: 0,
        }
    }

    /// Execute one MAC into the IR for chunk `chunk` of a row with
    /// `row_chunk_count` chunks. Folds the IR into the RegBin when the
    /// truncation period elapses.
    pub fn mac(&mut self, activation: f32, weight: f32, chunk: usize, row_chunk_count: usize) {
        self.ir += activation * weight;
        self.ir_count += 1;
        self.macs += 1;
        let period = self.truncation.map_or(usize::MAX, |t| t.period);
        if self.ir_count >= period {
            self.fold(chunk, row_chunk_count);
        }
    }

    /// Fold the IR into the RegBin entry for `chunk` (called at chunk
    /// boundaries by the dataflow controller, the "RB Step" of Fig. 8).
    pub fn fold(&mut self, chunk: usize, row_chunk_count: usize) {
        if self.ir_count == 0 {
            return;
        }
        let new = self.accum.accumulate(chunk, self.ir, row_chunk_count);
        if let Some(t) = self.truncation {
            let truncated = t.truncate(new);
            self.accum.poke(chunk, truncated);
        }
        self.ir = 0.0;
        self.ir_count = 0;
        self.ir_folds += 1;
    }

    /// [`mac`](Self::mac) under a fault campaign: automatic period folds
    /// go through [`fold_with_faults`](Self::fold_with_faults) so their IR
    /// and RegBin vulnerable events are counted.
    pub fn mac_with_faults(
        &mut self,
        activation: f32,
        weight: f32,
        chunk: usize,
        row_chunk_count: usize,
        session: &mut FaultSession,
    ) {
        self.ir += activation * weight;
        self.ir_count += 1;
        self.macs += 1;
        let period = self.truncation.map_or(usize::MAX, |t| t.period);
        if self.ir_count >= period {
            self.fold_with_faults(chunk, row_chunk_count, session);
        }
    }

    /// [`fold`](Self::fold) under a fault campaign. Two vulnerable events
    /// per fold: the IR read-out (IEEE-754 bit flip) and the RegBin
    /// read-modify-write on the stored partial sum (fixed-point bit flip,
    /// subject to the plan's protection scheme).
    pub fn fold_with_faults(
        &mut self,
        chunk: usize,
        row_chunk_count: usize,
        session: &mut FaultSession,
    ) {
        if self.ir_count == 0 {
            return;
        }
        let ir = session.corrupt_f32(FaultClass::IntermediateReg, self.ir);
        self.accum
            .apply_fault(chunk, |stored| session.regbin_access(stored));
        let new = self.accum.accumulate(chunk, ir, row_chunk_count);
        if let Some(t) = self.truncation {
            let truncated = t.truncate(new);
            self.accum.poke(chunk, truncated);
        }
        self.ir = 0.0;
        self.ir_count = 0;
        self.ir_folds += 1;
    }

    /// Partial sum currently held for `chunk`.
    pub fn partial_sum(&self, chunk: usize) -> f32 {
        self.accum.peek(chunk)
    }

    /// Flush the accumulation buffer (end of pass); returns the 62
    /// chunk-ordered partial sums and flush stats, and closes the pass for
    /// clock-gating statistics.
    pub fn flush(&mut self) -> (Vec<f32>, FlushStats) {
        let out = self.drain_pass();
        if csp_telemetry::enabled() {
            self.publish_telemetry(csp_telemetry::Registry::global());
        }
        out
    }

    /// [`flush`](Self::flush) without the telemetry publish, for callers
    /// that choose the registry themselves.
    pub(crate) fn drain_pass(&mut self) -> (Vec<f32>, FlushStats) {
        let out = self.accum.flush();
        self.accum.end_pass();
        out
    }

    /// Publish this PE's MAC/fold deltas (counters `accel.pe.macs`,
    /// `accel.pe.ir_folds` — each fold is one truncation event) and its
    /// accumulation buffer's RegBin events into `reg`. Called
    /// automatically at [`flush`](Self::flush) when telemetry is enabled;
    /// callable directly with a private registry for exact-count tests.
    pub fn publish_telemetry(&mut self, reg: &csp_telemetry::Registry) {
        reg.counter_add("accel.pe.macs", "", self.macs - self.published_macs);
        reg.counter_add(
            "accel.pe.ir_folds",
            "",
            self.ir_folds - self.published_folds,
        );
        self.published_macs = self.macs;
        self.published_folds = self.ir_folds;
        self.accum.publish_telemetry(reg);
    }

    /// Borrow the accumulation buffer (for event inspection).
    pub fn accum(&self) -> &AccumBuffer {
        &self.accum
    }

    /// MACs executed so far.
    pub fn macs_executed(&self) -> u64 {
        self.macs
    }

    /// IR-to-RegBin folds so far (each is one truncation event).
    pub fn ir_folds(&self) -> u64 {
        self.ir_folds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_without_truncation() {
        let mut pe = Pe::new(None);
        let acts = [0.5f32, -1.0, 2.0, 0.25];
        let wgts = [1.0f32, 0.5, -0.5, 4.0];
        for (&a, &w) in acts.iter().zip(&wgts) {
            pe.mac(a, w, 3, 5);
        }
        pe.fold(3, 5);
        let expected: f32 = acts.iter().zip(&wgts).map(|(&a, &w)| a * w).sum();
        assert_eq!(pe.partial_sum(3), expected);
        assert_eq!(pe.macs_executed(), 4);
        assert_eq!(pe.ir_folds(), 1);
    }

    #[test]
    fn truncation_period_folds_automatically() {
        let cfg = TruncationConfig::new(2, 30, 1e-6).unwrap();
        let mut pe = Pe::new(Some(cfg));
        for _ in 0..6 {
            pe.mac(1.0, 1.0, 0, 1);
        }
        // Period 2 → 3 automatic folds, no manual fold needed.
        assert_eq!(pe.ir_folds(), 3);
        assert!((pe.partial_sum(0) - 6.0).abs() < 1e-3);
    }

    #[test]
    fn coarse_truncation_loses_precision() {
        let cfg = TruncationConfig::new(1, 8, 0.5).unwrap();
        let mut pe = Pe::new(Some(cfg));
        // 0.25 truncates to 0 at step 0.5 with T = 1 — total collapses.
        for _ in 0..10 {
            pe.mac(0.25, 1.0, 0, 1);
        }
        assert_eq!(pe.partial_sum(0), 0.0);
        // Longer period rescues the accumulation (the Fig. 9 mechanism).
        let cfg2 = TruncationConfig::new(10, 8, 0.5).unwrap();
        let mut pe2 = Pe::new(Some(cfg2));
        for _ in 0..10 {
            pe2.mac(0.25, 1.0, 0, 1);
        }
        assert_eq!(pe2.partial_sum(0), 2.5); // trunc(2.5) exact
    }

    #[test]
    fn fold_on_empty_ir_is_noop() {
        let mut pe = Pe::new(None);
        pe.fold(0, 1);
        assert_eq!(pe.ir_folds(), 0);
        assert_eq!(pe.partial_sum(0), 0.0);
    }

    #[test]
    fn flush_resets_state() {
        let mut pe = Pe::new(None);
        pe.mac(2.0, 3.0, 1, 2);
        pe.fold(1, 2);
        let (values, stats) = pe.flush();
        assert_eq!(values[1], 6.0);
        assert!(stats.entries_flushed > 0);
        assert_eq!(pe.partial_sum(1), 0.0);
    }

    #[test]
    fn multi_chunk_accumulation_independent() {
        let mut pe = Pe::new(None);
        pe.mac(1.0, 2.0, 0, 3);
        pe.fold(0, 3);
        pe.mac(1.0, 5.0, 2, 3);
        pe.fold(2, 3);
        assert_eq!(pe.partial_sum(0), 2.0);
        assert_eq!(pe.partial_sum(2), 5.0);
    }
}
