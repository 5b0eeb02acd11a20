//! `infer-scale`: an in-process closed loop — one caller thread, no
//! serving tier — over a serving-scale CNN (3×32×32 input, three 3×3
//! convolutions widening to 256 channels, pools, one linear layer),
//! CSP-pruned to about 70 % sparsity and executed weaved (f32) through
//! `PreparedWeaved`. Calls alternate batch 1 and batch 8 on a pool of
//! width `nproc`.
//!
//! Conv lowering, sparse GEMM and pool dispatch do almost all the work,
//! so this is where the gap between the weaved kernel's speed-up and the
//! end-to-end result shows; batch 8 against batch 1 shows whether weights
//! are reused across a batch.

use crate::common::{bits, median, median_us, nproc, num, process_cpu_s, Args, Ledger, Report};
use csp_nn::{Conv2d, Flatten, Layer, Linear, MaxPool, Relu, Sequential, SharedGemm};
use csp_pruning::{ChunkedLayout, CspMask, CspPruner, Weaved};
use csp_runtime::{with_threads, Pool};
use csp_sparse::PreparedWeaved;
use csp_telemetry::names;
use csp_tensor::{im2col, matmul, CspError, CspResult, Tensor};
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

const SIDE: usize = 32;
const CLASSES: usize = 10;
/// Chunk size of the CSP layout.
const CHUNK: usize = 8;
/// Weight sparsity each layer is pruned to (Table 2's CNN rates are
/// 0.49–0.96; VGG-16 and ResNet-50 sit near 0.74).
const TARGET_SPARSITY: f32 = 0.70;
/// Distinct inputs per batch size.
const INPUTS: usize = 3;
/// Repetitions behind each traced layer median.
const TRACE_REPS: usize = 15;

/// The prunable layers in order, and every layer's short name.
const PRUNABLE: [&str; 4] = ["conv1", "conv2", "conv3", "fc"];
const LAYERS: [&str; 11] = [
    "conv1", "relu", "pool", "conv2", "relu", "pool", "conv3", "relu", "pool", "flatten", "fc",
];

fn skeleton(seed: u64) -> Sequential {
    let mut rng = csp_nn::seeded_rng(seed);
    let conv1 = Conv2d::new(&mut rng, 3, 64, 3, 1, 1);
    let conv2 = Conv2d::new(&mut rng, 64, 128, 3, 1, 1);
    let conv3 = Conv2d::new(&mut rng, 128, 256, 3, 1, 1);
    let fc = Linear::new(&mut rng, 256 * (SIDE / 8) * (SIDE / 8), CLASSES);
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(conv1),
        Box::new(Relu::new()),
        Box::new(MaxPool::new(2, 2)),
        Box::new(conv2),
        Box::new(Relu::new()),
        Box::new(MaxPool::new(2, 2)),
        Box::new(conv3),
        Box::new(Relu::new()),
        Box::new(MaxPool::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(fc),
    ];
    Sequential::new(layers)
}

/// Prune `w` to about [`TARGET_SPARSITY`] by bisecting the threshold
/// multiplier `q` (sparsity grows with `q`).
fn prune_to_target(w: &Tensor, layout: ChunkedLayout) -> CspResult<CspMask> {
    let (mut lo, mut hi) = (0.0f32, 4.0f32);
    for _ in 0..24 {
        let q = (lo + hi) / 2.0;
        if CspPruner::new(q).prune(w, layout)?.sparsity() < TARGET_SPARSITY {
            lo = q;
        } else {
            hi = q;
        }
    }
    Ok(CspPruner::new(hi).prune(w, layout)?)
}

struct Model {
    /// Weaved execution through the prepared executors.
    weaved: Sequential,
    /// Dense forward on the decompressed weights: the reference.
    dense: Sequential,
    executors: Vec<Arc<PreparedWeaved>>,
    /// Decompressed `M × c_out` weights per prunable layer.
    weights: Vec<Tensor>,
    sparsity: Vec<f32>,
}

fn build(seed: u64) -> CspResult<Model> {
    let mut weaved = skeleton(seed);
    let mut dense = skeleton(seed);
    let mut executors = Vec::new();
    let mut weights = Vec::new();
    let mut sparsity = Vec::new();
    for (layer, twin) in weaved
        .prunable_layers()
        .into_iter()
        .zip(dense.prunable_layers())
    {
        let (m, c_out) = layer.csp_dims();
        let layout = ChunkedLayout::new(m, c_out, CHUNK)?;
        let w = layer.csp_weight();
        let mask = prune_to_target(&w, layout)?;
        let packed = Weaved::compress(&w, &mask)?;
        let decompressed = packed.decompress();
        let exec = Arc::new(PreparedWeaved::new(&packed)?);
        layer.set_csp_weight(&decompressed)?;
        layer.set_csp_executor(Some(Arc::clone(&exec) as SharedGemm))?;
        twin.set_csp_weight(&decompressed)?;
        sparsity.push(mask.sparsity());
        executors.push(exec);
        weights.push(decompressed);
    }
    Ok(Model {
        weaved,
        dense,
        executors,
        weights,
        sparsity,
    })
}

fn inputs(seed: u64, batch: usize) -> CspResult<Vec<Tensor>> {
    let mut rng = csp_nn::seeded_rng(seed);
    (0..INPUTS)
        .map(|_| {
            let data = (0..batch * 3 * SIDE * SIDE)
                .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                .collect();
            Ok(Tensor::from_vec(data, &[batch, 3, SIDE, SIDE])?)
        })
        .collect()
}

struct State {
    model: Model,
    /// `(batch, input, reference output bits)`.
    calls: Vec<(usize, Tensor, Vec<u32>)>,
}

fn setup(seed: u64) -> CspResult<State> {
    let mut model = build(seed)?;
    let mut calls = Vec::new();
    let b1 = inputs(seed ^ 0xB1, 1)?;
    let b8 = inputs(seed ^ 0xB8, 8)?;
    // Alternate batch 1 and batch 8.
    for (x1, x8) in b1.into_iter().zip(b8) {
        for x in [x1, x8] {
            let want = with_threads(nproc(), || model.dense.forward(&x, false))?;
            calls.push((x.dims()[0], x, bits(want.as_slice())));
        }
    }
    // Warm-up: one weaved call of each batch size.
    for (_, x, _) in calls.iter().take(2) {
        with_threads(nproc(), || model.weaved.forward(x, false))?;
    }
    Ok(State { model, calls })
}

pub fn run(args: &Args, start: Instant, report: &mut Report) -> CspResult<()> {
    let mut state = crate::setup_repeated(report, start, || setup(args.seed), |_| Ok(()))?;
    report.detail("config.pool_width", nproc().to_string());
    report.detail(
        "config.layer_sparsity",
        format!("{:?}", state.model.sparsity),
    );

    let mut ledger = Ledger::default();
    let mut b1_us = Vec::new();
    let mut b8_us = Vec::new();
    let mut samples = 0u64;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < args.seconds {
        let (batch, x, want) = &state.calls[i % state.calls.len()];
        let t = Instant::now();
        let out = with_threads(nproc(), || state.model.weaved.forward(x, false));
        let us = t.elapsed().as_secs_f64() * 1e6;
        match out {
            Ok(y) => {
                let got = bits(y.as_slice());
                let per = want.len() / batch;
                for s in 0..*batch {
                    if got[s * per..(s + 1) * per] == want[s * per..(s + 1) * per] {
                        ledger.ok += 1;
                    } else {
                        ledger.mismatch += 1;
                    }
                }
            }
            Err(_) => ledger.failed += *batch as u64,
        }
        samples += *batch as u64;
        if *batch == 1 { &mut b1_us } else { &mut b8_us }.push(us);
        i += 1;
    }
    let cpu_s = process_cpu_s() - cpu0;
    let elapsed = t0.elapsed().as_secs_f64();
    report.ledger = ledger;
    // Both batch sizes alternate, so every run executes the same mix.
    report.metric("cpu_us_per_op", cpu_s * 1e6 / samples as f64, "us");
    report.detail("samples", samples.to_string());
    report.detail("cpu_s", num(cpu_s));
    // Wall-clock figures: samples per second of a median batch-1 +
    // batch-8 cycle, the plain mean rate, and batch-1 latency.
    report.detail("ops_per_s", num(9e6 / (median(&b1_us) + median(&b8_us))));
    report.detail("mean_ops_per_s", num(samples as f64 / elapsed));
    report.percentile_detail(
        "b1.latency_p99_us",
        &crate::common::sorted(b1_us.clone()),
        0.99,
    );
    report.percentile_detail("b1.latency_p50_us", &crate::common::sorted(b1_us), 0.5);
    if args.trace {
        traced(report, &mut state)?;
    }
    Ok(())
}

/// Per-layer medians and the whole-forward median of `reps` rounds; each
/// round times the whole forward and then every layer on its own, so a
/// change in host speed during the measurement hits both alike.
fn layer_times(net: &mut Sequential, x: &Tensor, reps: usize) -> CspResult<(Vec<f64>, f64)> {
    let mut per_layer = vec![Vec::new(); LAYERS.len()];
    let mut whole = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        with_threads(nproc(), || net.forward(x, false))?;
        whole.push(t.elapsed().as_secs_f64() * 1e6);
        let mut cur = x.clone();
        for (k, layer) in net.layers_mut().iter_mut().enumerate() {
            let t = Instant::now();
            cur = with_threads(nproc(), || layer.forward(&cur, false))?;
            per_layer[k].push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok((
        per_layer.iter().map(|v| median(v)).collect(),
        median(&whole),
    ))
}

fn forward_us(net: &mut Sequential, x: &Tensor, reps: usize) -> CspResult<f64> {
    let mut err = None;
    let us = median_us(reps, || {
        if let Err(e) = with_threads(nproc(), || net.forward(x, false)) {
            err = Some(e);
        }
    });
    err.map_or(Ok(us), |e| Err(e.into()))
}

fn traced(report: &mut Report, state: &mut State) -> CspResult<()> {
    let model = &mut state.model;
    let x1 = state.calls[0].1.clone();
    let x8 = state.calls[1].1.clone();
    let mut layer_b1 = Vec::new();
    for (tag, x, reps) in [("b1", &x1, 4 * TRACE_REPS), ("b8", &x8, TRACE_REPS)] {
        let (times, whole) = layer_times(&mut model.weaved, x, reps)?;
        let mut grouped: Vec<(&str, f64)> = Vec::new();
        for (name, us) in LAYERS.iter().zip(&times) {
            let key = match *name {
                "relu" | "flatten" => "elementwise",
                other => other,
            };
            match grouped.iter_mut().find(|(k, _)| *k == key) {
                Some((_, acc)) => *acc += us,
                None => grouped.push((key, *us)),
            }
        }
        for (key, us) in &grouped {
            report.metric(format!("nn.layer_us.{key}.{tag}"), *us, "us");
        }
        report.metric(format!("nn.forward_us.{tag}"), whole, "us");
        report.metric(
            format!("nn.forward_dense_us.{tag}"),
            forward_us(&mut model.dense, x, reps)?,
            "us",
        );
        let sum: f64 = times.iter().sum();
        let ok = (sum - whole).abs() <= crate::RECONCILE_TOLERANCE * whole;
        report.check(
            format!("{tag}: per-layer times sum to the whole forward"),
            ok,
        );
        report.detail(
            format!("reconcile.infer_scale.{tag}"),
            format!(
                "{{\"layer_sum_us\": {}, \"forward_us\": {}, \"tolerance\": {}}}",
                num(sum),
                num(whole),
                num(crate::RECONCILE_TOLERANCE)
            ),
        );
        if tag == "b1" {
            layer_b1 = times;
        }
    }

    // Kernel-level probes on the batch-1 operands each layer sees.
    let mut cur = x1.clone();
    let mut prunable = 0usize;
    for (k, layer) in model.weaved.layers_mut().iter_mut().enumerate() {
        let name = LAYERS[k];
        if PRUNABLE.contains(&name) {
            let exec = &model.executors[prunable];
            let w = &model.weights[prunable];
            let (operand, im2col_us) = if name == "fc" {
                (cur.clone(), None)
            } else {
                let sample = Tensor::from_vec(cur.as_slice().to_vec(), &cur.dims()[1..])?;
                // Every convolution here is 3×3, stride 1, padding 1.
                let spec = csp_tensor::Conv2dSpec::new(3, 1, 1);
                let us = median_us(TRACE_REPS, || {
                    let _ = with_threads(nproc(), || im2col(&sample, spec));
                });
                let cols = with_threads(nproc(), || im2col(&sample, spec))?.transpose()?;
                (cols, Some(us))
            };
            let sparse = median_us(TRACE_REPS, || {
                let _ = with_threads(nproc(), || exec.gemm_xw(&operand));
            });
            let dense = median_us(TRACE_REPS, || {
                let _ = with_threads(nproc(), || matmul(&operand, w));
            });
            if let Some(im2col_us) = im2col_us {
                report.metric(format!("tensor.im2col_us.{name}"), im2col_us, "us");
                report.metric(
                    format!("nn.conv_glue_us.{name}"),
                    layer_b1[k] - im2col_us - sparse,
                    "us",
                );
            }
            report.metric(format!("sparse.gemm_us.{name}"), sparse, "us");
            report.metric(format!("tensor.gemm_us.{name}"), dense, "us");
            report.metric(
                format!("sparse.gemm_vs_dense.{name}"),
                sparse / dense,
                "ratio",
            );
            prunable += 1;
        }
        cur = with_threads(nproc(), || layer.forward(&cur, false))?;
    }

    // Skipped over skipped-plus-executed MACs across one b1 and one b8
    // weaved forward, counted where the work happens.
    let before = csp_telemetry::global_snapshot();
    with_threads(nproc(), || model.weaved.forward(&x1, false))?;
    with_threads(nproc(), || model.weaved.forward(&x8, false))?;
    let after = csp_telemetry::global_snapshot();
    let delta = |name: &str| after.counter(name, "weaved") - before.counter(name, "weaved");
    let (macs, skipped) = (
        delta(names::SPARSE_GEMM_MACS),
        delta(names::SPARSE_GEMM_SKIPPED),
    );
    if macs + skipped == 0 {
        return Err(CspError::Internal {
            what: "sparse GEMM counters did not move under telemetry".to_string(),
        });
    }
    report.metric(
        "sparse.skip_ratio",
        skipped as f64 / (macs + skipped) as f64,
        "ratio",
    );

    let pool = Pool::new(nproc());
    let dispatch = median_us(2000, || {
        pool.map_collect(nproc(), |_| ());
    });
    report.metric("runtime.dispatch_us", dispatch, "us");
    Ok(())
}

/// This workload's per-layer metrics.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for tag in ["b1", "b8"] {
        for key in ["conv1", "pool", "elementwise", "conv2", "conv3", "fc"] {
            out.push((format!("nn.layer_us.{key}.{tag}"), "us"));
        }
        out.push((format!("nn.forward_us.{tag}"), "us"));
        out.push((format!("nn.forward_dense_us.{tag}"), "us"));
    }
    for name in PRUNABLE {
        if name != "fc" {
            out.push((format!("tensor.im2col_us.{name}"), "us"));
            out.push((format!("nn.conv_glue_us.{name}"), "us"));
        }
        out.push((format!("sparse.gemm_us.{name}"), "us"));
        out.push((format!("tensor.gemm_us.{name}"), "us"));
        out.push((format!("sparse.gemm_vs_dense.{name}"), "ratio"));
    }
    out.push(("sparse.skip_ratio".to_string(), "ratio"));
    out.push(("runtime.dispatch_us".to_string(), "us"));
    out
}
