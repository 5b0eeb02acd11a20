//! `simulate`: the cycle-level functional CSP-H arrays on real-topology
//! layers from `csp-models` at the Table 2 sparsity rates —
//! `SerialCascadingArray::run_conv` (IpOS) on VGG-16 and ResNet-50 conv
//! layers cropped spatially, `IpwsArray::run_gemm` on Transformer FC
//! layers — with the analytic Fig. 10 sweep as a set-up cross-check.
//!
//! This is the paper's own evaluation path: csp-accel, csp-baselines and
//! csp-sim do all the work and no serving or nn code runs, so a simulator
//! speed-up shows here and nowhere else.

use crate::common::{json_str, median, median_us, nproc, num, process_cpu_s, Args, Ledger, Report};
use csp_accel::{ArrayStats, CspH, CspHConfig, IpwsArray, SerialCascadingArray};
use csp_bench::{accelerator_lineup, run_lineup, workloads};
use csp_models::{
    resnet50, transformer_base, vgg16, Dataset, LayerKind, LayerShape, SparsityProfile,
};
use csp_pruning::{ChunkedLayout, CspMask};
use csp_runtime::with_threads;
use csp_sim::EnergyTable;
use csp_tensor::{im2col, matmul_at_b, Conv2dSpec, CspError, CspResult, Tensor};
use rand::Rng;
use std::time::Instant;

/// `(network, layer label, Table 2 sparsity, profile seed)`; the rates and
/// seeds are those of the Fig. 10 roster in `csp-bench`.
const LAYERS: [(&str, &str, f64, u64); 8] = [
    ("vgg16", "conv2_2", 0.7372, 12),
    ("vgg16", "conv3_3", 0.7372, 12),
    ("vgg16", "conv4_2", 0.7372, 12),
    ("resnet50", "res3_1_3x3", 0.7391, 13),
    ("resnet50", "res4_1_1x1b", 0.7391, 13),
    ("resnet50", "res5_1_3x3", 0.7391, 13),
    ("transformer", "dec0_ffn2", 0.8439, 15),
    ("transformer", "enc0_ffn1", 0.8439, 15),
];
/// Executed MACs per pass each layer is cropped to, so every pass takes
/// tens of milliseconds (IpWS simulates a MAC about five times faster than
/// IpOS).
const CONV_MACS: f64 = 4e6;
const FC_MACS: f64 = 80e6;
/// FC layers may run a batch of up to this many sequences.
const MAX_SEQUENCES: usize = 16;
/// Relative L2 error the functional output may have against the dense
/// GEMM (the array accumulates in its own order).
const OUTPUT_TOLERANCE: f32 = 1e-4;

struct Layer {
    shape: LayerShape,
    counts: Vec<usize>,
    /// `M × c_out` masked weights.
    weights: Tensor,
    /// `(c_in, h, w)` input for convolutions, `M × tokens` activations for
    /// FC layers.
    input: Tensor,
    /// Dense `c_out × P` reference output.
    reference: Tensor,
    /// The analytic model's cycles and MACs for this layer.
    expect: (u64, u64),
}

fn find(net: &str, label: &str) -> CspResult<LayerShape> {
    let network = match net {
        "vgg16" => vgg16(Dataset::ImageNet),
        "resnet50" => resnet50(Dataset::ImageNet),
        _ => transformer_base(),
    };
    network
        .layers
        .into_iter()
        .find(|l| l.name == label)
        .ok_or_else(|| CspError::Config {
            what: format!("{net} has no layer {label}"),
        })
}

/// Crop a layer spatially (conv) or in tokens (FC) so one pass executes
/// about [`CONV_MACS`] or [`FC_MACS`] at density `density`.
fn crop(layer: LayerShape, density: f64) -> LayerShape {
    let per_pixel = layer.m() as f64 * layer.c_out() as f64 * density;
    let target = if layer.is_conv() { CONV_MACS } else { FC_MACS };
    let pixels = (target / per_pixel).max(1.0);
    match layer.kind {
        LayerKind::Conv {
            c_in,
            c_out,
            kernel,
            stride,
            padding,
            in_h,
            in_w,
        } => {
            // A rectangle of output pixels as close to the target as a
            // whole row count allows.
            let out_h = (pixels.sqrt().floor() as usize).clamp(1, in_h);
            let out_w = ((pixels / out_h as f64).round() as usize).clamp(1, in_w);
            let input = |out: usize| {
                ((out - 1) * stride + kernel)
                    .saturating_sub(2 * padding)
                    .max(1)
            };
            LayerShape::conv(
                layer.name,
                c_in,
                c_out,
                kernel,
                stride,
                padding,
                input(out_h),
                input(out_w),
            )
        }
        LayerKind::Fc {
            in_features,
            out_features,
            tokens,
        } => LayerShape::fc(
            layer.name,
            in_features,
            out_features,
            (pixels.round() as usize).clamp(1, MAX_SEQUENCES * tokens),
        ),
    }
}

fn config() -> CspHConfig {
    CspHConfig::default()
}

fn build(seed: u64) -> CspResult<Vec<Layer>> {
    let cfg = config();
    let analytic = CspH::new(cfg, EnergyTable::default());
    let mut rng = csp_nn::seeded_rng(seed);
    LAYERS
        .iter()
        .map(|&(net, label, sparsity, profile_seed)| {
            let shape = crop(find(net, label)?, 1.0 - sparsity);
            let counts = SparsityProfile::new(sparsity, profile_seed)
                .with_chunk_size(cfg.arr_w)
                .chunk_counts(&shape);
            let (m, c_out) = (shape.m(), shape.c_out());
            let layout = ChunkedLayout::new(m, c_out, cfg.arr_w)?;
            let mask = CspMask::from_chunk_counts(layout, counts.clone())?;
            let dense: Vec<f32> = (0..m * c_out).map(|_| rng.gen::<f32>() - 0.5).collect();
            let weights = mask.apply(&Tensor::from_vec(dense, &[m, c_out])?)?;
            let (input, acts) = match shape.kind {
                LayerKind::Conv {
                    c_in, in_h, in_w, ..
                } => {
                    let data = (0..c_in * in_h * in_w).map(|_| rng.gen::<f32>()).collect();
                    let x = Tensor::from_vec(data, &[c_in, in_h, in_w])?;
                    let cols = im2col(&x, conv_spec(&shape))?;
                    (x, cols)
                }
                LayerKind::Fc { tokens, .. } => {
                    let data = (0..m * tokens).map(|_| rng.gen::<f32>()).collect();
                    let a = Tensor::from_vec(data, &[m, tokens])?;
                    (a.clone(), a)
                }
            };
            let reference = matmul_at_b(&weights, &acts)?;
            let run = analytic.run_layer_with_counts(&shape, &counts);
            Ok(Layer {
                shape,
                counts,
                weights,
                input,
                reference,
                expect: (run.cycles, run.macs),
            })
        })
        .collect()
}

fn conv_spec(shape: &LayerShape) -> Conv2dSpec {
    match shape.kind {
        LayerKind::Conv {
            kernel,
            stride,
            padding,
            ..
        } => Conv2dSpec::new(kernel, stride, padding),
        LayerKind::Fc { .. } => Conv2dSpec::new(1, 1, 0),
    }
}

/// One functional pass: IpOS for convolutions, IpWS for FC layers.
fn pass(layer: &Layer) -> CspResult<(Tensor, ArrayStats)> {
    let cfg = config();
    with_threads(nproc(), || {
        if layer.shape.is_conv() {
            let (out, stats) = SerialCascadingArray::new(cfg, None).run_conv(
                &layer.input,
                &layer.weights,
                &layer.counts,
                conv_spec(&layer.shape),
            )?;
            let c_out = layer.shape.c_out();
            Ok((out.reshape(&[c_out, out.len() / c_out])?, stats))
        } else {
            Ok(IpwsArray::new(cfg, None).run_gemm(&layer.weights, &layer.counts, &layer.input)?)
        }
    })
}

fn output_ok(layer: &Layer, out: &Tensor) -> bool {
    out.dims() == layer.reference.dims()
        && out
            .sub(&layer.reference)
            .is_ok_and(|d| d.norm_l2() <= OUTPUT_TOLERANCE * (1.0 + layer.reference.norm_l2()))
}

struct State {
    layers: Vec<Layer>,
    sweep_ms: f64,
}

fn setup(seed: u64, checks: &mut Vec<(String, bool)>) -> CspResult<State> {
    let layers = build(seed)?;
    // The analytic Fig. 10 lineup sweep: CSP-H (last in the lineup) must
    // keep the best geomean energy efficiency over DianNao (first).
    let lineup = accelerator_lineup();
    let t = Instant::now();
    let mut geo = vec![0.0f64; lineup.len()];
    for w in workloads() {
        let results = run_lineup(&lineup, &w);
        for (g, r) in geo.iter_mut().zip(&results) {
            *g += r.efficiency_vs(&results[0]).ln();
        }
    }
    let sweep_ms = t.elapsed().as_secs_f64() * 1e3;
    let best = geo.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    checks.push((
        "Fig. 10 sweep: CSP-H has the best geomean energy efficiency".into(),
        geo[geo.len() - 1] == best,
    ));
    // Warm-up on the smallest pass.
    pass(&layers[0])?;
    Ok(State { layers, sweep_ms })
}

pub fn run(args: &Args, start: Instant, report: &mut Report) -> CspResult<()> {
    let mut checks = Vec::new();
    let mut sweeps = Vec::new();
    let state = crate::setup_repeated(
        report,
        start,
        || {
            let s = setup(args.seed, &mut checks)?;
            sweeps.push(s.sweep_ms);
            Ok(s)
        },
        |_| Ok(()),
    )?;
    report.checks.extend(checks);
    report.detail("config.pool_width", nproc().to_string());
    report.detail("config.array", json_str(&format!("{:?}", config())));
    let shapes: Vec<String> = state
        .layers
        .iter()
        .map(|l| json_str(&format!("{:?}", l.shape)))
        .collect();
    report.detail("config.layers", format!("[{}]", shapes.join(", ")));

    let mut ledger = Ledger::default();
    let mut pass_us: Vec<Vec<f64>> = vec![Vec::new(); state.layers.len()];
    let mut totals = ArrayStats::default();
    let mut first = Vec::new();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    // Whole cycles over the layer list only, so every run executes the
    // same mix.
    while t0.elapsed().as_secs_f64() < args.seconds {
        for (k, layer) in state.layers.iter().enumerate() {
            let t = Instant::now();
            let result = pass(layer);
            pass_us[k].push(t.elapsed().as_secs_f64() * 1e6);
            match result {
                Ok((out, stats)) => {
                    if output_ok(layer, &out) && (stats.cycles, stats.macs) == layer.expect {
                        ledger.ok += 1;
                    } else {
                        ledger.mismatch += 1;
                    }
                    totals.absorb(&stats);
                    if first.len() < state.layers.len() {
                        first.push(stats);
                    }
                }
                Err(_) => ledger.failed += 1,
            }
        }
    }
    let cpu_s = process_cpu_s() - cpu0;
    let elapsed = t0.elapsed().as_secs_f64();
    report.ledger = ledger;
    report.metric(
        "cpu_us_per_op",
        cpu_s * 1e6 / ledger.attempted() as f64,
        "us",
    );
    report.detail("cpu_s", num(cpu_s));
    // Wall-clock figures: passes per second of a median cycle over the
    // layer list, and the plain mean rate.
    let cycle_us: f64 = pass_us.iter().map(|v| median(v)).sum();
    report.detail("ops_per_s", num(state.layers.len() as f64 * 1e6 / cycle_us));
    report.detail("mean_ops_per_s", num((ledger.attempted()) as f64 / elapsed));
    let all: Vec<f64> = pass_us.iter().flatten().copied().collect();
    report.percentile_detail(
        "pass.latency_p50_us",
        &crate::common::sorted(all.clone()),
        0.5,
    );
    report.percentile_detail(
        "pass.latency_p90_us",
        &crate::common::sorted(all.clone()),
        0.9,
    );
    // The median over layers of each layer's median pass: the pooled
    // median of eight unequal layers hops between their modes.
    let per_layer: Vec<f64> = state
        .layers
        .iter()
        .zip(&pass_us)
        .map(|(layer, us)| {
            let key = format!("pass.latency_p50_us.{}", layer.shape.name);
            report
                .percentile_detail(&key, &crate::common::sorted(us.clone()), 0.5)
                .unwrap_or(f64::NAN)
        })
        .collect();
    report.detail("latency_p50_us", num(median(&per_layer)));

    if args.trace {
        for (layer, us) in state.layers.iter().zip(&pass_us) {
            report.metric(
                format!("accel.pass_ms.{}", layer.shape.name),
                median(us) / 1e3,
                "ms",
            );
            if layer.shape.is_conv() {
                let spec = conv_spec(&layer.shape);
                let im2col_us = median_us(50, || {
                    let _ = with_threads(nproc(), || im2col(&layer.input, spec));
                });
                report.metric(
                    format!("tensor.im2col_us.{}", layer.shape.name),
                    im2col_us,
                    "us",
                );
            }
        }
        let busy_s: f64 = all.iter().sum::<f64>() / 1e6;
        report.metric("accel.sim_macs_per_s", totals.macs as f64 / busy_s, "1/s");
        // Exact counts of one pass over every layer: they repeat exactly,
        // and a performance-only change leaves them alone.
        let mut one = ArrayStats::default();
        for s in &first {
            one.absorb(s);
        }
        report.metric("accel.array.cycles", one.cycles as f64, "count");
        report.metric("accel.array.macs", one.macs as f64, "count");
        report.metric("accel.array.act_recycles", one.act_recycles as f64, "count");
        report.metric("accel.array.flush_stalls", one.flush_stalls as f64, "count");
        report.metric("baselines.sweep_ms", median(&sweeps), "ms");
    }
    report.detail(
        "sweep_ms",
        format!(
            "[{}]",
            sweeps
                .iter()
                .map(|v| num(*v))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    Ok(())
}

/// This workload's per-layer metrics.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (net, label, _, _) in LAYERS {
        out.push((format!("accel.pass_ms.{label}"), "ms"));
        if net != "transformer" {
            out.push((format!("tensor.im2col_us.{label}"), "us"));
        }
    }
    for (name, unit) in [
        ("accel.sim_macs_per_s", "1/s"),
        ("accel.array.cycles", "count"),
        ("accel.array.macs", "count"),
        ("accel.array.act_recycles", "count"),
        ("accel.array.flush_stalls", "count"),
        ("baselines.sweep_ms", "ms"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}
