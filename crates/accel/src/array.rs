//! The Serial Cascading PE array (Section 4, Fig. 5b) — functional model.
//!
//! The array executes the IpOS dataflow on real values: output pixels map
//! to PE rows, the `arr_w` filters of the current chunk map to PE columns,
//! and every PE keeps per-chunk partial sums in its accumulation buffer.
//! Activations are loaded once per (filter row, pixel tile) and *recycled*
//! across chunks; the per-row chunk count drives the early-stop control.
//!
//! This model is the golden reference for the analytic cycle/traffic
//! formulas in [`crate::analytic`]: the test suites assert that both agree
//! on cycles and MAC counts, and that the computed output equals the dense
//! GEMM exactly when truncation is disabled.

use crate::accum::AccumBuffer;
use crate::config::CspHConfig;
use csp_pruning::truncation::TruncationConfig;
use csp_sim::fault::{FaultClass, FaultPlan, FaultReport, FaultSession};
use csp_telemetry::Registry;
use csp_tensor::{im2col, Conv2dSpec, Result, Tensor, TensorError};

/// Cycle/traffic statistics of one functional array run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Compute cycles (one cycle per sub-row step per pixel tile).
    pub cycles: u64,
    /// MACs executed (zero-weight chunks are never issued).
    pub macs: u64,
    /// Flush stall cycles exposed between passes.
    pub flush_stalls: u64,
    /// Activation values loaded from the InAct GLB into PEs.
    pub act_loads: u64,
    /// Activation values recycled inside PEs (reuse events that would have
    /// been buffer reads on a conventional accelerator).
    pub act_recycles: u64,
    /// Weight values streamed from the weight GLB.
    pub wgt_loads: u64,
}

impl ArrayStats {
    /// Accumulate another run's counters into this one (all fields are
    /// integers, so the sum is exact regardless of accumulation order).
    pub fn absorb(&mut self, other: &ArrayStats) {
        self.cycles += other.cycles;
        self.macs += other.macs;
        self.flush_stalls += other.flush_stalls;
        self.act_loads += other.act_loads;
        self.act_recycles += other.act_recycles;
        self.wgt_loads += other.wgt_loads;
    }

    /// Publish this run's counters into `reg` as `accel.array.*` — the
    /// GLB/IR traffic view (loads, recycles, weight streams) backing the
    /// data-reuse claims.
    pub fn publish_telemetry(&self, reg: &csp_telemetry::Registry) {
        reg.counter_add("accel.array.cycles", "", self.cycles);
        reg.counter_add("accel.array.macs", "", self.macs);
        reg.counter_add("accel.array.flush_stalls", "", self.flush_stalls);
        reg.counter_add("accel.array.act_loads", "", self.act_loads);
        reg.counter_add("accel.array.act_recycles", "", self.act_recycles);
        reg.counter_add("accel.array.wgt_loads", "", self.wgt_loads);
    }
}

/// Shared per-GEMM dimensions, operands and telemetry sink handed to each
/// pixel-tile pass.
struct GemmPass<'a> {
    c_out: usize,
    p: usize,
    arr_w: usize,
    group_rows: usize,
    chunk_counts: &'a [usize],
    /// `M × c_out` weights, row-major.
    wd: &'a [f32],
    /// `M × P` activations, row-major.
    ad: &'a [f32],
    /// Where the tile's `accel.pe.*` / `accel.regbin.*` counters go.
    telemetry: Option<&'a Registry>,
}

impl<'a> GemmPass<'a> {
    /// The pass of a non-windowed `weights` (`M × c_out`) by `acts`
    /// (`M × P`) GEMM on an array configured as `config`.
    fn new(
        config: &CspHConfig,
        weights: &'a Tensor,
        chunk_counts: &'a [usize],
        acts: &'a Tensor,
        telemetry: Option<&'a Registry>,
    ) -> Self {
        let c_out = weights.dims()[1];
        GemmPass {
            c_out,
            p: acts.dims()[1],
            arr_w: config.arr_w,
            // Group rows by the truncation-period feeding pattern: T MACs
            // per chunk before a fold means T consecutive filter rows per
            // group.
            group_rows: config.truncation_period.max(1),
            chunk_counts,
            wd: weights.as_slice(),
            ad: acts.as_slice(),
            telemetry,
        }
    }

    /// Columns `chunk_start..chunk_end` of chunk `n` (the last chunk may
    /// be narrower than `arr_w`).
    fn chunk_cols(&self, n: usize) -> (usize, usize) {
        let chunk_start = n * self.arr_w;
        (chunk_start, (chunk_start + self.arr_w).min(self.c_out))
    }
}

/// Account one fed filter row of chunk `n` on a `rows`-pixel tile: one
/// cycle, one activation load per pixel on the row's first chunk (a
/// recycle after), `width` weight reads and `rows × width` MACs.
fn count_feed(stats: &mut ArrayStats, n: usize, rows: usize, width: usize) {
    stats.cycles += 1;
    if n == 0 {
        stats.act_loads += rows as u64;
    } else {
        stats.act_recycles += rows as u64;
    }
    stats.wgt_loads += width as u64;
    stats.macs += (rows * width) as u64;
}

/// The operands of chunk window `w0..w1` of a windowed GEMM: the
/// `M × width` slice of weight columns from `w0 * arr_w`, and the chunk
/// counts rebased onto it.
fn window_operands(
    weights: &Tensor,
    chunk_counts: &[usize],
    arr_w: usize,
    w0: usize,
    w1: usize,
) -> (Tensor, Vec<usize>) {
    let (m, c_out) = (weights.dims()[0], weights.dims()[1]);
    let col0 = w0 * arr_w;
    let width = (w1 * arr_w).min(c_out) - col0;
    let mut wslice = Tensor::zeros(&[m, width]);
    for (dst, src) in wslice
        .as_mut_slice()
        .chunks_exact_mut(width)
        .zip(weights.as_slice().chunks_exact(c_out))
    {
        dst.copy_from_slice(&src[col0..col0 + width]);
    }
    let counts = chunk_counts
        .iter()
        .map(|&c| c.saturating_sub(w0).min(w1 - w0))
        .collect();
    (wslice, counts)
}

/// The functional Serial Cascading array.
#[derive(Debug, Clone)]
pub struct SerialCascadingArray {
    config: CspHConfig,
    truncation: Option<TruncationConfig>,
}

impl SerialCascadingArray {
    /// An array with the given configuration; `truncation == None` makes
    /// the datapath exact (30-bit-equivalent partial sums).
    pub fn new(config: CspHConfig, truncation: Option<TruncationConfig>) -> Self {
        SerialCascadingArray { config, truncation }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CspHConfig {
        &self.config
    }

    /// Execute `Wᵀ·A` where `weights` is the `M × c_out` filter matrix,
    /// `chunk_counts` the per-row surviving chunk counts (chunk size
    /// `arr_w`), and `acts` the `M × P` activation matrix. Returns the
    /// `c_out × P` output and run statistics.
    ///
    /// # Errors
    ///
    /// Returns shape errors for mismatched operands or when `c_out`
    /// exceeds the accumulation buffer's 62-chunk capacity times `arr_w`.
    pub fn run_gemm(
        &self,
        weights: &Tensor,
        chunk_counts: &[usize],
        acts: &Tensor,
    ) -> Result<(Tensor, ArrayStats)> {
        self.run_gemm_inner(weights, chunk_counts, acts, None)
    }

    /// [`run_gemm`](Self::run_gemm) under a fault campaign: weights are
    /// first exposed to DRAM-transfer upsets, then the datapath runs with
    /// weight-GLB, IR, RegBin and stuck-MAC injection per the plan.
    /// Parity-retry stall cycles are added to the returned cycle count.
    /// With [`FaultPlan::none()`] this is bit-identical to `run_gemm`.
    ///
    /// # Errors
    ///
    /// Same shape errors as [`run_gemm`](Self::run_gemm).
    pub fn run_gemm_faulty(
        &self,
        weights: &Tensor,
        chunk_counts: &[usize],
        acts: &Tensor,
        plan: &FaultPlan,
    ) -> Result<(Tensor, ArrayStats, FaultReport)> {
        if plan.is_none() {
            let (out, stats) = self.run_gemm_inner(weights, chunk_counts, acts, None)?;
            return Ok((out, stats, FaultReport::default()));
        }
        let mut session = FaultSession::new(plan.clone());
        session.set_retry_costs(
            self.config.truncation_period.max(1) as u64,
            self.config.arr_w as u64,
        );
        // DRAM → GLB transfer: one vulnerable event per weight element,
        // persisting for the whole run.
        let faulted = Tensor::from_fn(weights.dims(), |i| {
            session.corrupt_f32(FaultClass::DramTransfer, weights.as_slice()[i])
        });
        let (out, mut stats) =
            self.run_gemm_inner(&faulted, chunk_counts, acts, Some(&mut session))?;
        stats.cycles += session.retry_cycles();
        stats.flush_stalls += session.retry_cycles();
        Ok((out, stats, session.report()))
    }

    fn run_gemm_inner(
        &self,
        weights: &Tensor,
        chunk_counts: &[usize],
        acts: &Tensor,
        mut session: Option<&mut FaultSession>,
    ) -> Result<(Tensor, ArrayStats)> {
        let (arr_w, arr_h) = (self.config.arr_w, self.config.arr_h);
        if weights.rank() != 2 || acts.rank() != 2 || weights.dims()[0] != acts.dims()[0] {
            return Err(TensorError::IncompatibleShapes {
                op: "serial_cascading_gemm",
                lhs: weights.dims().to_vec(),
                rhs: acts.dims().to_vec(),
            });
        }
        let (m, c_out) = (weights.dims()[0], weights.dims()[1]);
        let p = acts.dims()[1];
        if chunk_counts.len() != m {
            return Err(TensorError::InvalidParameter {
                what: format!("chunk_counts length {} != M {}", chunk_counts.len(), m),
            });
        }
        let n_chunks = c_out.div_ceil(arr_w);
        if let Some(&bad) = chunk_counts.iter().find(|&&c| c > n_chunks) {
            return Err(TensorError::InvalidParameter {
                what: format!("chunk count {bad} exceeds N={n_chunks}"),
            });
        }
        // Layers with more chunks than the 62-entry accumulation buffer run
        // in sequential chunk windows: each window is an independent pass
        // over a 62-chunk column slice (window outputs are disjoint filter
        // sets, so no cross-window accumulation is needed).
        if n_chunks > self.config.accum_entries() {
            let window_chunks = self.config.accum_entries();
            let mut out = Tensor::zeros(&[c_out, p]);
            let mut stats = ArrayStats::default();
            for w0 in (0..n_chunks).step_by(window_chunks) {
                let w1 = (w0 + window_chunks).min(n_chunks);
                let (wslice, counts_slice) = window_operands(weights, chunk_counts, arr_w, w0, w1);
                let (o, s) =
                    self.run_gemm_inner(&wslice, &counts_slice, acts, session.as_deref_mut())?;
                let (col0, width) = (w0 * arr_w, wslice.dims()[1]);
                out.as_mut_slice()[col0 * p..(col0 + width) * p].copy_from_slice(o.as_slice());
                stats.absorb(&s);
            }
            return Ok((out, stats));
        }

        let telemetry = csp_telemetry::enabled().then(Registry::global);
        let mut out = Tensor::zeros(&[c_out, p]);
        let mut stats = ArrayStats::default();
        let pass = GemmPass::new(&self.config, weights, chunk_counts, acts, telemetry);

        // Pixel tiles are independent passes: each gets fresh PEs, writes a
        // disjoint set of output pixels, and exposes its own flush stall.
        // Fault-free runs execute them on the pool and merge results in
        // tile order; a fault campaign is one stateful RNG stream, so its
        // tiles run serially in tile order.
        let tiles: Vec<std::ops::Range<usize>> = (0..p)
            .step_by(arr_h)
            .map(|s| s..(s + arr_h).min(p))
            .collect();
        let shards: Vec<(Vec<f32>, ArrayStats)> = match session {
            Some(s) => tiles
                .iter()
                .map(|t| self.run_tile_flat(t.clone(), &pass, Some(&mut *s)))
                .collect(),
            None => csp_runtime::Pool::current().map_collect(tiles.len(), |ti| {
                self.run_tile_flat(tiles[ti].clone(), &pass, None)
            }),
        };
        let od = out.as_mut_slice();
        for (tile, (tile_out, tstats)) in tiles.iter().zip(shards) {
            for (pixel, row) in tile.clone().zip(tile_out.chunks_exact(c_out)) {
                for (col, &v) in row.iter().enumerate() {
                    if v != 0.0 {
                        od[col * p + pixel] = v;
                    }
                }
            }
            stats.absorb(&tstats);
        }
        stats.cycles += stats.flush_stalls;
        // Windowed runs (the recursion above) publish per window; this
        // branch is the sole publish point for a non-windowed pass.
        if let Some(reg) = telemetry {
            stats.publish_telemetry(reg);
        }
        Ok((out, stats))
    }

    /// One pixel-tile pass of [`run_gemm_inner`](Self::run_gemm_inner):
    /// feeds every surviving chunk of every filter row through a fresh
    /// `tile.len() × arr_w` PE grid and returns the dense
    /// `tile.len() × c_out` output block (row `pi` = pixel
    /// `tile.start + pi`) plus this pass's statistics (with the pass flush
    /// stall already in `flush_stalls`, not in `cycles`). Values live in
    /// flat arrays — one IR per PE and, per chunk, a partial-sum plane
    /// that is that chunk's column block of the tile output — and each fed
    /// filter row is one AXPY per pixel over the chunk's weight columns.
    ///
    /// The RegBin control state (rotation FSM, touch and gating bits,
    /// event counters, IR fold count) is value-independent and identical
    /// down a PE column: every PE of a column folds the same chunk, with
    /// the same row chunk count, at the same step — at the explicit RB
    /// step and at the automatic fold every `TruncationConfig::period`
    /// MACs. So one control-only [`AccumBuffer`] per column stands for all
    /// of its PEs and publishes its counters `tile.len()` times over.
    /// Columns past a partial last chunk get no MACs and do not fold.
    ///
    /// Under a fault campaign a fed row walks its PEs one at a time and
    /// draws from `session` in PE-by-PE order: one weight-GLB read per
    /// chunk column, then per PE in (pixel, column) order the stuck-MAC
    /// query, the MAC and — when the row fills the truncation period —
    /// that PE's fold. Every fold reads out the IR, then read-modify-writes
    /// the stored partial sum: one vulnerable event each, in that order.
    fn run_tile_flat(
        &self,
        tile: std::ops::Range<usize>,
        pass: &GemmPass,
        mut session: Option<&mut FaultSession>,
    ) -> (Vec<f32>, ArrayStats) {
        let &GemmPass {
            c_out,
            p,
            arr_w,
            group_rows,
            chunk_counts,
            wd,
            ad,
            telemetry,
        } = pass;
        let (m, rows) = (chunk_counts.len(), tile.len());
        let period = self.truncation.map_or(usize::MAX, |t| t.period);
        let mut stats = ArrayStats::default();
        // PE (pi, ci) holds IR `ir[pi * arr_w + ci]` and, for chunk n, the
        // partial sum `tile_out[pi * c_out + n * arr_w + ci]`.
        let mut ir = vec![0.0f32; rows * arr_w];
        let mut tile_out = vec![0.0f32; rows * c_out];
        let mut columns: Vec<AccumBuffer> = (0..arr_w).map(|_| AccumBuffer::new()).collect();
        // IR folds summed over columns; each stands for `rows` PE folds.
        let mut column_folds = 0u64;
        let mut fold_control = |n: usize, row_chunk_count: usize| {
            let (chunk_start, chunk_end) = pass.chunk_cols(n);
            for column in &mut columns[..chunk_end - chunk_start] {
                column.accumulate(n, 0.0, row_chunk_count);
            }
            column_folds += (chunk_end - chunk_start) as u64;
        };
        // One PE's fold under a campaign: the IR read-out, then the RegBin
        // read-modify-write on the stored partial sum.
        let fold_pe = |r: &mut f32, psum: &mut f32, s: &mut FaultSession| {
            let delta = s.corrupt_f32(FaultClass::IntermediateReg, *r);
            let new = s.regbin_access(*psum) + delta;
            *psum = self.truncation.map_or(new, |t| t.truncate(new));
            *r = 0.0;
        };
        // Fold the IRs of every PE on columns `chunk_start..chunk_end` into
        // their partial sums, in (pixel, column) order.
        let fold_values = |(chunk_start, chunk_end): (usize, usize),
                           ir: &mut [f32],
                           out: &mut [f32],
                           mut session: Option<&mut FaultSession>| {
            let width = chunk_end - chunk_start;
            for (irow, orow) in ir.chunks_exact_mut(arr_w).zip(out.chunks_exact_mut(c_out)) {
                let pes = irow[..width]
                    .iter_mut()
                    .zip(&mut orow[chunk_start..chunk_end]);
                match session.as_deref_mut() {
                    None => {
                        for (r, s) in pes {
                            let new = *s + *r;
                            *s = self.truncation.map_or(new, |t| t.truncate(new));
                            *r = 0.0;
                        }
                    }
                    Some(f) => pes.for_each(|(r, psum)| fold_pe(r, psum, f)),
                }
            }
        };
        for g0 in (0..m).step_by(group_rows) {
            let group = g0..(g0 + group_rows).min(m);
            let max_count = chunk_counts[group.clone()]
                .iter()
                .copied()
                .max()
                .unwrap_or(0);
            for n in 0..max_count {
                let cols @ (chunk_start, chunk_end) = pass.chunk_cols(n);
                // MACs every fed column's IRs hold since their last fold.
                let mut pending = 0usize;
                for j in group.clone() {
                    let count = chunk_counts[j];
                    if n >= count {
                        continue; // early stop for this row
                    }
                    count_feed(&mut stats, n, rows, chunk_end - chunk_start);
                    let wrow = &wd[j * c_out + chunk_start..j * c_out + chunk_end];
                    let arow = &ad[j * p + tile.start..j * p + tile.end];
                    let fills_period = pending + 1 >= period;
                    match session.as_deref_mut() {
                        None => {
                            for (&a, irow) in arow.iter().zip(ir.chunks_exact_mut(arr_w)) {
                                for (r, &w) in irow.iter_mut().zip(wrow) {
                                    *r += a * w;
                                }
                            }
                            if fills_period {
                                fold_values(cols, &mut ir, &mut tile_out, None);
                            }
                        }
                        Some(s) => {
                            // One weight-GLB event per GLB read (the read
                            // is shared by the tile's pixel rows).
                            let wrow: Vec<f32> = wrow
                                .iter()
                                .map(|&w| s.corrupt_f32(FaultClass::WeightGlb, w))
                                .collect();
                            let pe_rows = ir
                                .chunks_exact_mut(arr_w)
                                .zip(tile_out.chunks_exact_mut(c_out));
                            for (pi, (&a, (irow, orow))) in arow.iter().zip(pe_rows).enumerate() {
                                let pes = irow.iter_mut().zip(&mut orow[chunk_start..chunk_end]);
                                for (ci, ((r, psum), &w)) in pes.zip(&wrow).enumerate() {
                                    // Stuck-at-zero multiplier: the
                                    // product of a stuck PE is dropped.
                                    let w = if s.pe_is_stuck(pi * arr_w + ci) {
                                        0.0
                                    } else {
                                        w
                                    };
                                    *r += a * w;
                                    if fills_period {
                                        fold_pe(r, psum, s);
                                    }
                                }
                            }
                        }
                    }
                    if fills_period {
                        fold_control(n, count);
                        pending = 0;
                    } else {
                        pending += 1;
                    }
                }
                if pending > 0 {
                    // RB step: fold IRs into the chunk's RegBin.
                    fold_values(cols, &mut ir, &mut tile_out, session.as_deref_mut());
                    fold_control(n, max_count.min(62));
                }
            }
        }
        // End of pass: close every column's pass and publish it once per
        // PE of the column.
        let mut pass_stall = 0u64;
        for column in &mut columns {
            let (_, fstats) = column.flush();
            column.end_pass();
            pass_stall = pass_stall.max(fstats.stall_cycles);
            if let Some(reg) = telemetry {
                column.publish_telemetry_scaled(reg, rows as u64);
            }
        }
        if let Some(reg) = telemetry {
            reg.counter_add("accel.pe.macs", "", stats.macs);
            reg.counter_add("accel.pe.ir_folds", "", column_folds * rows as u64);
        }
        stats.flush_stalls += pass_stall;
        (tile_out, stats)
    }

    /// Execute a 2-D convolution under IpOS: the input `(c_in, h, w)` is
    /// lowered with im2col (each row is one filter row, matching the CSP
    /// layout), then run through [`run_gemm`](Self::run_gemm). `weights`
    /// is the `M × c_out` flattened filter matrix. Returns the
    /// `(c_out, oh, ow)` output feature map and run statistics.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the lowering or the GEMM.
    pub fn run_conv(
        &self,
        input: &Tensor,
        weights: &Tensor,
        chunk_counts: &[usize],
        spec: Conv2dSpec,
    ) -> Result<(Tensor, ArrayStats)> {
        let cols = im2col(input, spec)?;
        let (out, stats) = self.run_gemm(weights, chunk_counts, &cols)?;
        let (oh, ow) = (spec.out_dim(input.dims()[1]), spec.out_dim(input.dims()[2]));
        let c_out = weights.dims()[1];
        Ok((out.reshape(&[c_out, oh, ow])?, stats))
    }

    /// [`run_conv`](Self::run_conv) under a fault campaign (see
    /// [`run_gemm_faulty`](Self::run_gemm_faulty)).
    ///
    /// # Errors
    ///
    /// Returns shape errors from the lowering or the GEMM.
    pub fn run_conv_faulty(
        &self,
        input: &Tensor,
        weights: &Tensor,
        chunk_counts: &[usize],
        spec: Conv2dSpec,
        plan: &FaultPlan,
    ) -> Result<(Tensor, ArrayStats, FaultReport)> {
        let cols = im2col(input, spec)?;
        let (out, stats, report) = self.run_gemm_faulty(weights, chunk_counts, &cols, plan)?;
        let (oh, ow) = (spec.out_dim(input.dims()[1]), spec.out_dim(input.dims()[2]));
        let c_out = weights.dims()[1];
        Ok((out.reshape(&[c_out, oh, ow])?, stats, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::Pe;
    use csp_pruning::{ChunkedLayout, CspMask};
    use csp_tensor::matmul_at_b;

    fn small_config(arr_w: usize, arr_h: usize, t: usize) -> CspHConfig {
        CspHConfig {
            arr_w,
            arr_h,
            truncation_period: t,
            ..CspHConfig::default()
        }
    }

    fn workload(m: usize, c_out: usize, p: usize) -> (Tensor, Tensor) {
        let w = Tensor::from_fn(&[m, c_out], |i| ((i as f32) * 0.61).sin());
        let a = Tensor::from_fn(&[m, p], |i| ((i as f32) * 0.37).cos());
        (w, a)
    }

    #[test]
    fn dense_gemm_matches_reference() {
        let cfg = small_config(4, 4, 4);
        let arr = SerialCascadingArray::new(cfg, None);
        let (w, a) = workload(6, 8, 5);
        let counts = vec![2usize; 6]; // all chunks survive (8/4 = 2)
        let (out, stats) = arr.run_gemm(&w, &counts, &a).unwrap();
        let expected = matmul_at_b(&w, &a).unwrap();
        for (x, y) in out.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        assert_eq!(stats.macs, 6 * 8 * 5);
    }

    #[test]
    fn masked_gemm_matches_masked_reference() {
        let cfg = small_config(4, 2, 2);
        let arr = SerialCascadingArray::new(cfg, None);
        let (w, a) = workload(5, 12, 3);
        let layout = ChunkedLayout::new(5, 12, 4).unwrap();
        let counts = vec![3usize, 1, 2, 0, 3];
        let mask = CspMask::from_chunk_counts(layout, counts.clone()).unwrap();
        let wp = mask.apply(&w).unwrap();
        let (out, stats) = arr.run_gemm(&wp, &counts, &a).unwrap();
        let expected = matmul_at_b(&wp, &a).unwrap();
        for (x, y) in out.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        // Early stop: MACs = surviving weights × pixels.
        let nnz_chunks: usize = counts.iter().sum();
        assert_eq!(stats.macs, (nnz_chunks * 4 * 3) as u64);
    }

    #[test]
    fn cycles_equal_nnz_chunks_times_tiles() {
        let cfg = small_config(4, 2, 1);
        let arr = SerialCascadingArray::new(cfg, None);
        let (w, a) = workload(4, 8, 6); // P = 6 → 3 tiles of arr_h = 2
        let counts = vec![2usize, 1, 2, 0];
        let layout = ChunkedLayout::new(4, 8, 4).unwrap();
        let mask = CspMask::from_chunk_counts(layout, counts.clone()).unwrap();
        let wp = mask.apply(&w).unwrap();
        let (_, stats) = arr.run_gemm(&wp, &counts, &a).unwrap();
        let nnz_chunks: u64 = counts.iter().sum::<usize>() as u64;
        let tiles = 3u64;
        assert_eq!(stats.cycles - stats.flush_stalls, nnz_chunks * tiles);
        // Flush stall is 2 cycles per pass with a dirty RB0.
        assert_eq!(stats.flush_stalls, 2 * tiles);
    }

    #[test]
    fn activation_loaded_once_then_recycled() {
        let cfg = small_config(2, 4, 1);
        let arr = SerialCascadingArray::new(cfg, None);
        let (w, a) = workload(3, 8, 4); // N = 4 chunks
        let counts = vec![4usize, 4, 4];
        let (_, stats) = arr.run_gemm(&w, &counts, &a).unwrap();
        // One load per (row, pixel); recycles for the remaining chunks.
        assert_eq!(stats.act_loads, 3 * 4);
        assert_eq!(stats.act_recycles, 3 * 4 * 3); // (N−1) recycles each
    }

    #[test]
    fn truncated_run_matches_truncation_model() {
        let t = TruncationConfig::new(8, 8, 0.05).unwrap();
        let cfg = small_config(4, 4, 8);
        let arr = SerialCascadingArray::new(cfg, Some(t));
        let (w, a) = workload(6, 4, 2);
        let counts = vec![1usize; 6];
        let (out, _) = arr.run_gemm(&w, &counts, &a).unwrap();
        // The array folds the IR after each group of `period` rows of the
        // same chunk; the result stays within one truncation step per fold
        // of the exact value.
        let exact = matmul_at_b(&w, &a).unwrap();
        let folds = (6.0f32 / 8.0).ceil();
        for (x, y) in out.as_slice().iter().zip(exact.as_slice()) {
            assert!((x - y).abs() <= 0.05 * (folds + 1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn rejects_bad_shapes() {
        let arr = SerialCascadingArray::new(small_config(4, 4, 4), None);
        let w = Tensor::zeros(&[4, 8]);
        let a = Tensor::zeros(&[5, 3]);
        assert!(arr.run_gemm(&w, &[2; 4], &a).is_err());
        let a2 = Tensor::zeros(&[4, 3]);
        assert!(arr.run_gemm(&w, &[2; 3], &a2).is_err()); // counts length
        assert!(arr.run_gemm(&w, &[9; 4], &a2).is_err()); // counts too large
    }

    #[test]
    fn oversized_filter_count_runs_in_chunk_windows() {
        // 63 chunks > 62-entry capacity → two windows, still exact.
        let arr = SerialCascadingArray::new(small_config(2, 2, 1), None);
        let (m, c_out, p) = (2usize, 2 * 63, 3usize);
        let w = Tensor::from_fn(&[m, c_out], |i| ((i as f32) * 0.11).sin());
        let a = Tensor::from_fn(&[m, p], |i| ((i as f32) * 0.37).cos());
        let (out, stats) = arr.run_gemm(&w, &[63, 63], &a).unwrap();
        let expected = matmul_at_b(&w, &a).unwrap();
        for (x, y) in out.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        assert_eq!(stats.macs, (m * c_out * p) as u64);
        // Two windows → two flush sequences per pixel tile.
        let tiles = (p as u64).div_ceil(2);
        assert_eq!(stats.flush_stalls, 2 * 2 * tiles);
    }

    #[test]
    fn run_conv_matches_dense_conv2d() {
        use csp_tensor::conv2d;
        let cfg = small_config(4, 4, 2);
        let arr = SerialCascadingArray::new(cfg, None);
        // 2-channel 5x5 input, 8 filters of 3x3 → M = 18, P = 25.
        let input = Tensor::from_fn(&[2, 5, 5], |i| ((i as f32) * 0.37).sin());
        let w4 = Tensor::from_fn(&[8, 2, 3, 3], |i| ((i as f32) * 0.61).cos());
        let spec = Conv2dSpec::new(3, 1, 1);
        // Flattened CSP layout: matrix[(ci*3+ky)*3+kx][o] = w4[o][ci][ky][kx].
        let m = 18usize;
        let flat = Tensor::from_fn(&[m, 8], |i| {
            let (row, col) = (i / 8, i % 8);
            w4.as_slice()[col * m + row]
        });
        let counts = vec![2usize; m]; // dense: 8 filters / chunk 4 = 2 chunks
        let (got, stats) = arr.run_conv(&input, &flat, &counts, spec).unwrap();
        let expected = conv2d(&input, &w4, spec).unwrap();
        assert_eq!(got.dims(), expected.dims());
        for (x, y) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
        assert_eq!(stats.macs, 18 * 8 * 25);
    }

    #[test]
    fn partial_last_chunk_is_exact() {
        // c_out = 10 with arr_w = 4: chunks of width 4, 4, 2.
        let cfg = small_config(4, 3, 2);
        let arr = SerialCascadingArray::new(cfg, None);
        let (m, c_out, p) = (5usize, 10usize, 4usize);
        let counts = vec![3usize, 2, 1, 3, 0];
        let layout = ChunkedLayout::new(m, c_out, 4).unwrap();
        let mask = CspMask::from_chunk_counts(layout, counts.clone()).unwrap();
        let w = mask
            .apply(&Tensor::from_fn(&[m, c_out], |i| ((i as f32) * 0.21).sin()))
            .unwrap();
        let acts = Tensor::from_fn(&[m, p], |i| ((i as f32) * 0.57).cos());
        let (out, stats) = arr.run_gemm(&w, &counts, &acts).unwrap();
        let expected = matmul_at_b(&w, &acts).unwrap();
        for (x, y) in out.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        // MACs respect the partial chunk width: counts per row map to
        // 4+4+2 column coverage.
        let widths = [4usize, 4, 2];
        let surviving: u64 = counts
            .iter()
            .map(|&c| widths[..c].iter().sum::<usize>() as u64)
            .sum();
        assert_eq!(stats.macs, surviving * p as u64);
    }

    #[test]
    fn strided_conv_runs_exactly() {
        use csp_tensor::conv2d;
        let cfg = small_config(4, 4, 2);
        let arr = SerialCascadingArray::new(cfg, None);
        let input = Tensor::from_fn(&[3, 6, 6], |i| ((i as f32) * 0.41).sin());
        let w4 = Tensor::from_fn(&[4, 3, 3, 3], |i| ((i as f32) * 0.19).cos());
        let spec = Conv2dSpec::new(3, 2, 1); // stride 2
        let m = 27usize;
        let flat = Tensor::from_fn(&[m, 4], |i| {
            let (row, col) = (i / 4, i % 4);
            w4.as_slice()[col * m + row]
        });
        let counts = vec![1usize; m];
        let (got, _) = arr.run_conv(&input, &flat, &counts, spec).unwrap();
        let expected = conv2d(&input, &w4, spec).unwrap();
        assert_eq!(got.dims(), expected.dims());
        for (x, y) in got.as_slice().iter().zip(expected.as_slice()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    impl SerialCascadingArray {
        /// The oracle for `run_tile_flat`: the same pixel-tile pass with one
        /// [`Pe`] object per PE, each MAC and fold one method call, and fault
        /// events drawn where each PE meets them.
        fn run_tile(
            &self,
            tile: std::ops::Range<usize>,
            pass: &GemmPass,
            mut session: Option<&mut FaultSession>,
        ) -> (Vec<f32>, ArrayStats) {
            let &GemmPass {
                c_out,
                p,
                arr_w,
                group_rows,
                chunk_counts,
                wd,
                ad,
                telemetry,
            } = pass;
            let m = chunk_counts.len();
            let mut stats = ArrayStats::default();
            let mut tile_out = vec![0.0f32; tile.len() * c_out];
            // One PE per (pixel-in-tile, column-in-chunk).
            let mut pes: Vec<Pe> = (0..tile.len() * arr_w)
                .map(|_| Pe::new(self.truncation))
                .collect();
            // Track activation residency: a PE row's activation for filter
            // row j is loaded on j's first chunk step and recycled after.
            for g0 in (0..m).step_by(group_rows) {
                let group = g0..(g0 + group_rows).min(m);
                let max_count = chunk_counts[group.clone()]
                    .iter()
                    .copied()
                    .max()
                    .unwrap_or(0);
                for n in 0..max_count {
                    let mut fed_any = false;
                    for j in group.clone() {
                        let count = chunk_counts[j];
                        if n >= count {
                            continue; // early stop for this row
                        }
                        fed_any = true;
                        let (chunk_start, chunk_end) = pass.chunk_cols(n);
                        count_feed(&mut stats, n, tile.len(), chunk_end - chunk_start);
                        // One weight-GLB vulnerable event per GLB read
                        // (the read is shared by the tile's pixel rows).
                        let wgt_override: Option<Vec<f32>> = session.as_deref_mut().map(|s| {
                            (chunk_start..chunk_end)
                                .map(|col| {
                                    s.corrupt_f32(FaultClass::WeightGlb, wd[j * c_out + col])
                                })
                                .collect()
                        });
                        for (pi, pixel) in tile.clone().enumerate() {
                            let a = ad[j * p + pixel];
                            for (ci, col) in (chunk_start..chunk_end).enumerate() {
                                let w = match &wgt_override {
                                    Some(row) => row[ci],
                                    None => wd[j * c_out + col],
                                };
                                match session.as_deref_mut() {
                                    Some(s) => {
                                        // Stuck-at-zero multiplier: the
                                        // product of a stuck PE is dropped.
                                        let w = if s.pe_is_stuck(pi * arr_w + ci) {
                                            0.0
                                        } else {
                                            w
                                        };
                                        pes[pi * arr_w + ci].mac_with_faults(a, w, n, count, s);
                                    }
                                    None => pes[pi * arr_w + ci].mac(a, w, n, count),
                                }
                            }
                        }
                    }
                    if fed_any {
                        // RB step: fold IRs into the chunk's RegBin.
                        for pe in &mut pes {
                            match session.as_deref_mut() {
                                Some(s) => pe.fold_with_faults(n, max_count.min(62), s),
                                None => pe.fold(n, max_count.min(62)),
                            }
                        }
                    }
                }
            }
            // End of pass: flush all PEs and scatter into the tile block.
            let mut pass_stall = 0u64;
            for (pi, row) in pes.chunks_exact_mut(arr_w).enumerate() {
                for (ci, pe) in row.iter_mut().enumerate() {
                    let (psums, fstats) = pe.drain_pass();
                    if let Some(reg) = telemetry {
                        pe.publish_telemetry(reg);
                    }
                    pass_stall = pass_stall.max(fstats.stall_cycles);
                    for (n, &v) in psums.iter().enumerate() {
                        let col = n * arr_w + ci;
                        if col < c_out {
                            tile_out[pi * c_out + col] = v;
                        }
                    }
                }
            }
            stats.flush_stalls += pass_stall;
            (tile_out, stats)
        }
    }

    /// Run a GEMM under `plan` through both tile passes in the order
    /// `run_gemm_faulty` schedules it — DRAM-transfer upsets first, then
    /// chunk windows (when N exceeds the accumulation buffer) and pixel
    /// tiles in sequence, each pass drawing from its own copy of the
    /// session — and assert identical output bits, statistics and
    /// `accel.pe.*` / `accel.regbin.*` telemetry tile by tile, and an
    /// identical fault report at the end. Returns the per-PE oracle's
    /// assembled output, statistics and report.
    fn assert_tile_paths_agree(
        arr: &SerialCascadingArray,
        w: &Tensor,
        counts: &[usize],
        a: &Tensor,
        plan: &FaultPlan,
    ) -> (Tensor, ArrayStats, FaultReport) {
        let cfg = arr.config;
        let (c_out, p) = (w.dims()[1], a.dims()[1]);
        let mut oracle = (!plan.is_none()).then(|| {
            let mut s = FaultSession::new(plan.clone());
            s.set_retry_costs(cfg.truncation_period.max(1) as u64, cfg.arr_w as u64);
            s
        });
        let w = match oracle.as_mut() {
            Some(s) => Tensor::from_fn(w.dims(), |i| {
                s.corrupt_f32(FaultClass::DramTransfer, w.as_slice()[i])
            }),
            None => w.clone(),
        };
        let mut flat_session = oracle.clone();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = Tensor::zeros(&[c_out, p]);
        let mut stats = ArrayStats::default();
        let n_chunks = c_out.div_ceil(cfg.arr_w);
        let window = cfg.accum_entries();
        for w0 in (0..n_chunks).step_by(window) {
            let w1 = (w0 + window).min(n_chunks);
            let (ws, cs) = window_operands(&w, counts, cfg.arr_w, w0, w1);
            let (col0, width) = (w0 * cfg.arr_w, ws.dims()[1]);
            let (per_pe_reg, flat_reg) = (Registry::new(), Registry::new());
            let per_pe = GemmPass::new(&cfg, &ws, &cs, a, Some(&per_pe_reg));
            let flat = GemmPass::new(&cfg, &ws, &cs, a, Some(&flat_reg));
            let mut window_stats = ArrayStats::default();
            for s in (0..p).step_by(cfg.arr_h) {
                let tile = s..(s + cfg.arr_h).min(p);
                let (want, want_stats) = arr.run_tile(tile.clone(), &per_pe, oracle.as_mut());
                let (got, got_stats) =
                    arr.run_tile_flat(tile.clone(), &flat, flat_session.as_mut());
                assert_eq!(bits(&got), bits(&want), "window {w0} tile {tile:?}");
                assert_eq!(got_stats, want_stats, "window {w0} tile {tile:?}");
                for (pixel, row) in tile.zip(want.chunks_exact(width)) {
                    for (col, &v) in row.iter().enumerate() {
                        if v != 0.0 {
                            out.as_mut_slice()[(col0 + col) * p + pixel] = v;
                        }
                    }
                }
                window_stats.absorb(&want_stats);
            }
            let (want, got) = (per_pe_reg.snapshot(), flat_reg.snapshot());
            assert_eq!(got.entries, want.entries, "window {w0}");
            assert_eq!(want.counter("accel.pe.macs", ""), window_stats.macs);
            window_stats.cycles += window_stats.flush_stalls;
            stats.absorb(&window_stats);
        }
        let report = |s: Option<FaultSession>| s.map(|s| s.report()).unwrap_or_default();
        let want_report = report(oracle);
        assert_eq!(report(flat_session), want_report);
        stats.cycles += want_report.retry_cycles;
        stats.flush_stalls += want_report.retry_cycles;
        (out, stats, want_report)
    }

    /// Layers the tile-pass comparisons run on, with their arrays. (1)
    /// arr_w = 4 does not divide c_out = 10 (last chunk 2 wide); arr_h = 3
    /// does not divide P = 8; the row group 4..8 has no chunk at all. (2)
    /// 64 chunks > 62 → two windows; c_out = 127 leaves the last chunk one
    /// filter wide.
    fn tile_pass_layers() -> [(CspHConfig, Tensor, Vec<usize>, Tensor); 2] {
        let layer = |m: usize, c_out: usize, p: usize, step: f32| {
            let w = Tensor::from_fn(&[m, c_out], |i| ((i as f32) * step).sin());
            let a = Tensor::from_fn(&[m, p], |i| ((i as f32) * 0.37).cos());
            (w, a)
        };
        let (w1, a1) = layer(11, 10, 8, 0.61);
        let (w2, a2) = layer(5, 127, 5, 0.11);
        [
            (
                small_config(4, 3, 4),
                w1,
                vec![3, 1, 2, 3, 0, 0, 0, 0, 2, 3, 1],
                a1,
            ),
            (small_config(2, 2, 2), w2, vec![64, 0, 63, 61, 5], a2),
        ]
    }

    #[test]
    fn flat_tile_pass_matches_per_pe_pass() {
        let (cfg, w, counts, a) = &tile_pass_layers()[0];
        let none = FaultPlan::none();
        assert_tile_paths_agree(&SerialCascadingArray::new(*cfg, None), w, counts, a, &none);
        // Automatic folds every `period` MACs: below, at and above the
        // configured truncation period of 4 rows.
        for period in [1, 3, 4, 5, 9] {
            let t = TruncationConfig::new(period, 8, 0.02).unwrap();
            let arr = SerialCascadingArray::new(*cfg, Some(t));
            assert_tile_paths_agree(&arr, w, counts, a, &none);
        }
    }

    #[test]
    fn flat_tile_pass_matches_per_pe_pass_in_chunk_windows() {
        let (cfg, w, counts, a) = &tile_pass_layers()[1];
        let none = FaultPlan::none();
        assert_tile_paths_agree(&SerialCascadingArray::new(*cfg, None), w, counts, a, &none);
        let t = TruncationConfig::new(1, 8, 0.02).unwrap();
        let arr = SerialCascadingArray::new(*cfg, Some(t));
        assert_tile_paths_agree(&arr, w, counts, a, &none);
    }

    #[test]
    fn faulty_flat_pass_matches_per_pe_pass() {
        use csp_sim::fault::{Protection, TargetedFault};
        let mut plans = Vec::new();
        for protection in [
            Protection::None,
            Protection::ParityRetry,
            Protection::Secded,
        ] {
            for rate in [0.02, 0.2] {
                for seed in [1, 7] {
                    plans.push(FaultPlan::bernoulli(rate, seed).with_protection(protection));
                }
            }
        }
        let targeted_classes = [
            FaultClass::IntermediateReg,
            FaultClass::RegBin,
            FaultClass::StuckMac,
            FaultClass::WeightGlb,
        ];
        let hits = targeted_classes
            .iter()
            .zip([3, 5, 2, 4])
            .map(|(&class, event)| TargetedFault {
                class,
                event,
                bit: 30,
            })
            .collect();
        plans.push(FaultPlan::targeted(hits, 0));
        let mut injected = [0u64; csp_sim::fault::N_FAULT_CLASSES];
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (cfg, w, counts, a) in &tile_pass_layers() {
            let truncations = std::iter::once(None).chain(
                [1, 3, 4, 5, 9].map(|period| Some(TruncationConfig::new(period, 8, 0.02).unwrap())),
            );
            for truncation in truncations {
                let arr = SerialCascadingArray::new(*cfg, truncation);
                for plan in &plans {
                    let (want, want_stats, want_report) =
                        assert_tile_paths_agree(&arr, w, counts, a, plan);
                    let (got, got_stats, got_report) =
                        arr.run_gemm_faulty(w, counts, a, plan).unwrap();
                    let case = format!("{truncation:?} {plan:?}");
                    assert_eq!(bits(&got), bits(&want), "{case}");
                    assert_eq!(got_stats, want_stats, "{case}");
                    assert_eq!(got_report, want_report, "{case}");
                    if !plan.targeted.is_empty() {
                        for class in targeted_classes {
                            assert_eq!(got_report.injected[class.index()], 1, "{class:?} {case}");
                        }
                    }
                    for (sum, n) in injected.iter_mut().zip(got_report.injected) {
                        *sum += n;
                    }
                }
            }
        }
        // Every datapath fault class fired somewhere in the campaign.
        for class in [
            FaultClass::RegBin,
            FaultClass::IntermediateReg,
            FaultClass::WeightGlb,
            FaultClass::DramTransfer,
            FaultClass::StuckMac,
        ] {
            assert!(injected[class.index()] > 0, "{class:?} never fired");
        }
    }

    #[test]
    fn empty_rows_cost_nothing() {
        let cfg = small_config(4, 4, 1);
        let arr = SerialCascadingArray::new(cfg, None);
        let (w, a) = workload(4, 8, 2);
        let zero_counts = vec![0usize; 4];
        let layout = ChunkedLayout::new(4, 8, 4).unwrap();
        let mask = CspMask::from_chunk_counts(layout, zero_counts.clone()).unwrap();
        let wp = mask.apply(&w).unwrap();
        let (out, stats) = arr.run_gemm(&wp, &zero_counts, &a).unwrap();
        assert_eq!(stats.macs, 0);
        assert_eq!(stats.cycles, 0);
        assert_eq!(out.norm_l2(), 0.0);
    }
}
