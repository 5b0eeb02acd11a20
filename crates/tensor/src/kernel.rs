//! The single packed, cache-blocked GEMM micro-kernel behind every
//! `matmul*` variant.
//!
//! All three public entry points ([`crate::matmul`], [`crate::matmul_at_b`],
//! [`crate::matmul_a_bt`]) normalize their operands to the logical product
//! `A (m×k) · B (k×n)` and call [`gemm`]. A transposed operand is packed
//! into row-major order once up front; `B` is additionally packed into
//! contiguous `KC × NC` panels so the inner loop streams unit-stride data
//! that stays resident in cache while every row of the current row chunk
//! passes over it.
//!
//! The inner `(row, panel)` update is delegated to the selected
//! [`KernelBackend`](crate::KernelBackend) micro-kernel
//! ([`crate::simd::panel_axpy`]): scalar reference, SSE2, AVX2, or the
//! opt-in AVX2+FMA variant. The backend is resolved **once per `gemm`
//! call on the calling thread** and captured by value into the
//! pool-dispatched closure — pool workers do not inherit the caller's
//! thread-local override, so resolving inside the closure would race
//! with [`crate::with_backend`].
//!
//! ## Determinism
//!
//! For every backend except `Avx2Fma`, the kernel is **bit-identical to
//! the naive loop nest** (see [`crate::matmul_reference`]) for every
//! thread count:
//!
//! * each output element accumulates its `k` products in strictly
//!   ascending `p` order — the `pc` panel loop ascends, the in-panel `p`
//!   loop of every backend ascends, and the `j` split never reorders
//!   additions to a fixed element;
//! * the vector paths perform the same two single-rounded IEEE-754 ops
//!   (`mul` then `add`) per product as the scalar loop — lane position
//!   does not change rounding;
//! * rows are distributed over the pool in fixed chunks of [`ROW_CHUNK`]
//!   rows; rows are independent, so worker assignment cannot affect any
//!   value;
//! * the zero-skip on `A` values drops only exact-zero multiplicands,
//!   matching the reference kernel's skip.
//!
//! `Avx2Fma` contracts each `mul`+`add` pair into one rounding and is
//! therefore *not* bit-identical; see
//! [`KernelBackend::bit_identical_to_scalar`](crate::KernelBackend::bit_identical_to_scalar)
//! for the documented error bound.

use crate::backend::KernelBackend;
use crate::simd;
use csp_runtime::Pool;
use csp_telemetry::names;

/// Rows of `A`/`C` per parallel work unit. Fixed — never derived from the
/// thread count — so the partition is identical for every pool size.
pub(crate) const ROW_CHUNK: usize = 16;

/// `k`-extent of a packed `B` panel.
const KC: usize = 128;

/// `n`-extent of a packed `B` panel. `KC × NC × 4` bytes ≈ 256 KiB, sized
/// to stay resident in a typical L2 while a row chunk streams over it.
const NC: usize = 512;

/// Pack the logical `(k × n)` B matrix into contiguous `KC × NC` panels.
/// `b_trans` means `b` is stored `(n × k)` (the `A · Bᵀ` case). Returns
/// the panel data plus the flat offset of each `(pc, jc)` panel.
///
/// Packing is pure data movement, so the backend choice (scalar strided
/// gather vs. the SSE 4×4 in-register transpose for the `b_trans` case)
/// can never change bits.
fn pack_b(
    backend: KernelBackend,
    k: usize,
    n: usize,
    b: &[f32],
    b_trans: bool,
) -> (Vec<f32>, Vec<usize>) {
    let n_pc = k.div_ceil(KC);
    let n_jc = n.div_ceil(NC);
    let mut data = vec![0.0f32; k * n];
    let mut offsets = Vec::with_capacity(n_pc * n_jc);
    let mut at = 0usize;
    for pc in (0..k).step_by(KC) {
        let pl = KC.min(k - pc);
        for jc in (0..n).step_by(NC) {
            let jl = NC.min(n - jc);
            offsets.push(at);
            let dst = &mut data[at..at + pl * jl];
            if b_trans {
                let tile = simd::PanelTile { pc, pl, jc, jl };
                simd::pack_panel_transposed(backend, b, k, tile, dst);
            } else {
                for (p, drow) in dst.chunks_exact_mut(jl).enumerate() {
                    let src = (pc + p) * n + jc;
                    drow.copy_from_slice(&b[src..src + jl]);
                }
            }
            at += pl * jl;
        }
    }
    (data, offsets)
}

/// `C (m×n) = A (m×k) · B (k×n)` on raw row-major slices.
///
/// `a_trans` means `a` is stored `(k × m)` (the `Aᵀ · B` case); `b_trans`
/// means `b` is stored `(n × k)` (the `A · Bᵀ` case). Row chunks of the
/// output are computed on [`Pool::current`].
pub(crate) fn gemm(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    a_trans: bool,
    b: &[f32],
    b_trans: bool,
) -> Vec<f32> {
    // Resolved once, here, on the calling thread (pool workers must not
    // consult their own thread-locals), then captured by value below.
    let backend = KernelBackend::current();
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    // Normalize A to row-major (m × k) so the micro-kernel reads one
    // contiguous row slice per (row, panel).
    let a_packed: Vec<f32>;
    let a_view: &[f32] = if a_trans {
        a_packed = {
            let mut v = vec![0.0f32; m * k];
            for p in 0..k {
                let arow = &a[p * m..(p + 1) * m];
                for (i, &av) in arow.iter().enumerate() {
                    v[i * k + p] = av;
                }
            }
            v
        };
        &a_packed
    } else {
        a
    };
    let (bp, offsets) = pack_b(backend, k, n, b, b_trans);
    let n_jc = n.div_ceil(NC);
    // Hoisted so the hot loop pays one closure-captured bool, and counts
    // are published once per row chunk (into the worker's own telemetry
    // shard), not once per MAC.
    let telem = csp_telemetry::enabled();
    if telem {
        csp_telemetry::counter_add("tensor.gemm.calls", "", 1);
        csp_telemetry::counter_add(names::TENSOR_GEMM_BACKEND, backend.name(), 1);
    }

    // Each output element costs ~k MACs; the weighted dispatch lets tiny
    // GEMMs (small heads, smoke shapes) skip pool dispatch entirely.
    // Lanes divide the effective per-element cost, so wider backends keep
    // more small shapes on the calling thread (`DEFAULT_GRAIN` accounting).
    Pool::current().for_each_chunk_mut_weighted(
        &mut out,
        ROW_CHUNK * n,
        backend.unit_cost(k as u64),
        |_, elem_off, out_rows| {
            let i0 = elem_off / n;
            let rows = out_rows.len() / n;
            let (mut macs, mut skipped) = (0u64, 0u64);
            for (pcb, pc) in (0..k).step_by(KC).enumerate() {
                let pl = KC.min(k - pc);
                for (jcb, jc) in (0..n).step_by(NC).enumerate() {
                    let jl = NC.min(n - jc);
                    let panel = {
                        let off = offsets[pcb * n_jc + jcb];
                        &bp[off..off + pl * jl]
                    };
                    if telem {
                        // One zero-scan per (row, panel) replaces the
                        // per-p counting of the old scalar loop; the
                        // totals are identical.
                        for r in 0..rows {
                            let arow = &a_view[(i0 + r) * k + pc..(i0 + r) * k + pc + pl];
                            let nz = arow.iter().filter(|&&av| av != 0.0).count() as u64;
                            macs += nz * jl as u64;
                            skipped += (pl as u64 - nz) * jl as u64;
                        }
                    }
                    let arow_at = |r: usize| &a_view[(i0 + r) * k + pc..(i0 + r) * k + pc + pl];
                    // Rows go through the 4-row register-blocked kernel
                    // in quads (amortizing panel loads), remainder rows
                    // one at a time — bit-identical either way.
                    let mut r = 0;
                    while r + 4 <= rows {
                        let (quad, _) = out_rows[r * n..].split_at_mut(3 * n + jc + jl);
                        let (o0, rest) = quad.split_at_mut(n);
                        let (o1, rest) = rest.split_at_mut(n);
                        let (o2, o3) = rest.split_at_mut(n);
                        simd::panel_axpy4(
                            backend,
                            [arow_at(r), arow_at(r + 1), arow_at(r + 2), arow_at(r + 3)],
                            panel,
                            [
                                &mut o0[jc..jc + jl],
                                &mut o1[jc..jc + jl],
                                &mut o2[jc..jc + jl],
                                &mut o3[jc..jc + jl],
                            ],
                        );
                        r += 4;
                    }
                    while r < rows {
                        let orow = &mut out_rows[r * n + jc..r * n + jc + jl];
                        simd::panel_axpy(backend, arow_at(r), panel, orow);
                        r += 1;
                    }
                }
            }
            if telem {
                csp_telemetry::counter_add("tensor.gemm.macs", "", macs);
                csp_telemetry::counter_add("tensor.gemm.skipped", "", skipped);
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out[i * n + j] += av * b[p * n + j];
                }
            }
        }
        out
    }

    fn fill(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| (i as f32 * scale).sin()).collect()
    }

    #[test]
    fn blocked_matches_reference_bitwise_across_shapes() {
        // Shapes straddling the KC/NC/ROW_CHUNK boundaries, under every
        // bit-identical backend the host supports.
        for backend in KernelBackend::supported_backends() {
            if !backend.bit_identical_to_scalar() {
                continue;
            }
            crate::with_backend(backend, || {
                for &(m, k, n) in &[
                    (1, 1, 1),
                    (3, 5, 7),
                    (16, 128, 512),
                    (17, 129, 513),
                    (33, 300, 40),
                ] {
                    let a = fill(m * k, 0.37);
                    let b = fill(k * n, 0.61);
                    let got = gemm(m, k, n, &a, false, &b, false);
                    let want = reference(m, k, n, &a, &b);
                    assert_eq!(
                        got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "backend {} shape ({m},{k},{n})",
                        backend.name()
                    );
                }
            });
        }
    }

    #[test]
    fn transposed_operands_match_explicit_transpose() {
        let (m, k, n) = (9, 20, 11);
        let a = fill(m * k, 0.21);
        let b = fill(k * n, 0.43);
        // Store A as (k × m) and B as (n × k) and let the kernel repack.
        let mut a_t = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                a_t[p * m + i] = a[i * k + p];
            }
        }
        let mut b_t = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                b_t[j * k + p] = b[p * n + j];
            }
        }
        let want = reference(m, k, n, &a, &b);
        for backend in KernelBackend::supported_backends() {
            if !backend.bit_identical_to_scalar() {
                continue;
            }
            crate::with_backend(backend, || {
                let from_at = gemm(m, k, n, &a_t, true, &b, false);
                let from_bt = gemm(m, k, n, &a, false, &b_t, true);
                assert_eq!(from_at, want, "backend {}", backend.name());
                assert_eq!(from_bt, want, "backend {}", backend.name());
            });
        }
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        let (m, k, n) = (37, 150, 70);
        let a = fill(m * k, 0.17);
        let b = fill(k * n, 0.53);
        let serial = csp_runtime::with_threads(1, || gemm(m, k, n, &a, false, &b, false));
        for t in [2, 4, 8] {
            let par = csp_runtime::with_threads(t, || gemm(m, k, n, &a, false, &b, false));
            assert_eq!(
                serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                par.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={t}"
            );
        }
    }

    #[test]
    fn fma_backend_stays_within_error_bound() {
        if !KernelBackend::Avx2Fma.supported() {
            return;
        }
        let (m, k, n) = (17, 129, 33);
        let a = fill(m * k, 0.37);
        let b = fill(k * n, 0.61);
        let want = reference(m, k, n, &a, &b);
        let got = crate::with_backend(KernelBackend::Avx2Fma, || {
            gemm(m, k, n, &a, false, &b, false)
        });
        // |fma − scalar| ≤ 2·(k+1)·ε·Σₚ|aₚ·bₚ| per element (DESIGN §13).
        for i in 0..m {
            for j in 0..n {
                let mag: f32 = (0..k).map(|p| (a[i * k + p] * b[p * n + j]).abs()).sum();
                let bound = 2.0 * (k as f32 + 1.0) * f32::EPSILON * mag + f32::MIN_POSITIVE;
                let diff = (got[i * n + j] - want[i * n + j]).abs();
                assert!(diff <= bound, "({i},{j}): diff {diff} > bound {bound}");
            }
        }
    }

    #[test]
    fn empty_dims_yield_zeros() {
        assert!(gemm(0, 3, 3, &[], false, &fill(9, 0.3), false).is_empty());
        let out = gemm(2, 0, 3, &[], false, &[], false);
        assert_eq!(out, vec![0.0; 6]);
    }
}
