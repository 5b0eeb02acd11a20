//! `train-cspa`: the whole CSP-A pipeline, `run_mini_cnn_recoverable`,
//! into a fresh directory per run — regularized training with the cascade
//! group-LASSO, pruning, masked fine-tuning, weaved compression, atomic
//! checkpoint and artifact writes, and functional verification.
//!
//! The only workload that writes through csp-io, runs the backward GEMMs
//! (`matmul_at_b`, `matmul_a_bt`, col2im) or runs csp-pruning: a tensor
//! change that speeds inference up but slows training shows here.

use crate::common::{median, median_us, Args, Ledger, Report};
use csp_accel::SerialCascadingArray;
use csp_core::{build_family_model, CspPipeline, PipelineConfig, PipelineReport, RecoveryConfig};
use csp_io::{encode_weaved_model, write_with_history};
use csp_nn::data::ClusterImages;
use csp_nn::{train_classifier, Sgd, TrainOptions};
use csp_pruning::{CascadeRegularizer, ChunkedLayout, CspPruner, Regularizer, Weaved};
use csp_tensor::{CspError, CspResult, Tensor};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where pipeline runs write, relative to the working directory (the
/// checkout root); removed again before the process exits.
const WORK_DIR: &str = ".perfbench-tmp";
/// Repetitions behind each traced stage median.
const TRACE_REPS: usize = 9;

/// The pipeline defaults: 0.3–0.7 s a run on a 2-vCPU host, so even a slow
/// 20 s run holds well over the 20 runs a reported median needs.
fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        ..PipelineConfig::default()
    }
}

/// Training sample-steps in one pipeline run: base and regularized
/// training, then fine-tuning, each over every sample per epoch.
fn sample_steps(cfg: &PipelineConfig) -> u64 {
    (cfg.samples * (2 * cfg.train_epochs + cfg.finetune_epochs)) as u64
}

/// One pipeline run into a fresh directory, removed afterwards.
fn pipeline(cfg: PipelineConfig, dir: &Path) -> CspResult<PipelineReport> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| CspError::Io {
        path: dir.display().to_string(),
        what: e.to_string(),
    })?;
    let report = CspPipeline::new(cfg).run_mini_cnn_recoverable(dir, &RecoveryConfig::default());
    let _ = std::fs::remove_dir_all(dir);
    report
}

fn verified(report: &PipelineReport) -> bool {
    !report.layers.is_empty()
        && report
            .layers
            .iter()
            .all(|l| l.functional_check && l.error.is_none())
}

pub fn run(args: &Args, start: Instant, report: &mut Report) -> CspResult<()> {
    let root = PathBuf::from(WORK_DIR).join(format!("train-{}", std::process::id()));
    let result = measure(args, start, report, &root);
    let _ = std::fs::remove_dir_all(&root);
    // Leave no empty work directory behind either.
    let _ = std::fs::remove_dir(WORK_DIR);
    result
}

fn measure(args: &Args, start: Instant, report: &mut Report, root: &Path) -> CspResult<()> {
    let cfg = config(args.seed);
    // Set-up runs the pipeline once: the reference every later run must
    // reproduce exactly, and the warm-up.
    let reference = crate::setup_repeated(
        report,
        start,
        || pipeline(cfg, &root.join("setup")).map(|r| format!("{r:?}")),
        |_| Ok(()),
    )?;
    report.detail(
        "config.pipeline",
        crate::common::json_str(&format!("{cfg:?}")),
    );

    let mut ledger = Ledger::default();
    let mut run_us = Vec::new();
    let cpu0 = crate::common::process_cpu_s();
    let t0 = Instant::now();
    let mut i = 0usize;
    while t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let out = pipeline(cfg, &root.join(format!("run-{i}")));
        run_us.push(t.elapsed().as_secs_f64() * 1e6);
        let steps = sample_steps(&cfg);
        match out {
            Ok(r) if verified(&r) && format!("{r:?}") == reference => ledger.ok += steps,
            Ok(_) => ledger.mismatch += steps,
            Err(_) => ledger.failed += steps,
        }
        i += 1;
    }
    let cpu_s = crate::common::process_cpu_s() - cpu0;
    let elapsed = t0.elapsed().as_secs_f64();
    report.ledger = ledger;
    report.metric(
        "cpu_us_per_op",
        cpu_s * 1e6 / ledger.attempted() as f64,
        "us",
    );
    report.detail("cpu_s", crate::common::num(cpu_s));
    report.detail("pipeline_runs", i.to_string());
    // Wall-clock figures: sample-steps per second of a median pipeline
    // run, and the plain mean rate.
    let p50 = report
        .percentile_detail("run.latency_p50_us", &crate::common::sorted(run_us), 0.5)
        .unwrap_or(f64::NAN);
    report.detail(
        "ops_per_s",
        crate::common::num(sample_steps(&cfg) as f64 * 1e6 / p50),
    );
    report.detail(
        "mean_ops_per_s",
        crate::common::num(ledger.attempted() as f64 / elapsed),
    );
    if args.trace {
        traced(report, &cfg, root)?;
    }
    Ok(())
}

/// The pipeline's stages, timed one by one through the same public
/// functions the pipeline calls, on a model built the way it builds one.
fn traced(report: &mut Report, cfg: &PipelineConfig, root: &Path) -> CspResult<()> {
    let mut rng = csp_nn::seeded_rng(cfg.seed);
    let ds = ClusterImages::generate(&mut rng, cfg.samples, cfg.classes, 1, 8, cfg.noise);
    let batch = 8usize.min(cfg.samples);
    let n_batches = cfg.samples.div_ceil(batch);
    let mut model = build_family_model(cfg.family, cfg.seed + 1, cfg.classes);
    let mut opt = Sgd::new(0.05).with_momentum(0.9, true);
    let options = TrainOptions {
        epochs: 1,
        batch_size: batch,
        ..Default::default()
    };
    let mut epoch_ms = Vec::new();
    for _ in 0..TRACE_REPS {
        let t = Instant::now();
        train_classifier(
            &mut model,
            |b| ds.batch(b * batch, batch),
            n_batches,
            &mut opt,
            &options,
            None,
            None,
        )?;
        epoch_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("nn.epoch_ms", median(&epoch_ms), "ms");

    let layers: Vec<(String, Tensor, ChunkedLayout)> = model
        .prunable_layers()
        .into_iter()
        .map(|l| {
            let (m, c_out) = l.csp_dims();
            Ok((
                l.csp_label(),
                l.csp_weight(),
                ChunkedLayout::new(m, c_out, cfg.chunk_size)?,
            ))
        })
        .collect::<CspResult<_>>()?;
    let reg = CascadeRegularizer::new(cfg.lambda);
    report.metric(
        "pruning.reg_grad_us",
        median_us(TRACE_REPS, || {
            for (_, w, layout) in &layers {
                let _ = reg.grad(w, *layout);
            }
        }),
        "us",
    );
    let pruner = CspPruner::new(cfg.q);
    report.metric(
        "pruning.prune_us",
        median_us(TRACE_REPS, || {
            for (_, w, layout) in &layers {
                let _ = pruner.prune(w, *layout);
            }
        }),
        "us",
    );
    let masks = layers
        .iter()
        .map(|(_, w, layout)| Ok(pruner.prune(w, *layout)?))
        .collect::<CspResult<Vec<_>>>()?;
    report.metric(
        "pruning.compress_us",
        median_us(TRACE_REPS, || {
            for ((_, w, _), mask) in layers.iter().zip(&masks) {
                let _ = Weaved::compress(w, mask);
            }
        }),
        "us",
    );
    let weaved = layers
        .iter()
        .zip(&masks)
        .map(|((label, w, _), mask)| Ok((label.clone(), Weaved::compress(w, mask)?)))
        .collect::<CspResult<Vec<_>>>()?;
    report.metric(
        "io.encode_us",
        median_us(TRACE_REPS, || {
            let _ = encode_weaved_model(&weaved);
        }),
        "us",
    );
    let bytes = encode_weaved_model(&weaved);
    let dir = root.join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| CspError::Io {
        path: dir.display().to_string(),
        what: e.to_string(),
    })?;
    let path = dir.join("weaved.cspio");
    let mut write_ms = Vec::new();
    for _ in 0..TRACE_REPS {
        let t = Instant::now();
        write_with_history(&path, &bytes, None)?;
        write_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("io.write_ms", median(&write_ms), "ms");
    let array = SerialCascadingArray::new(cfg.verify_array_config(), None);
    let mut verify_ms = Vec::new();
    for _ in 0..TRACE_REPS {
        let t = Instant::now();
        for ((_, w, layout), mask) in layers.iter().zip(&masks) {
            let acts = Tensor::from_fn(&[layout.m(), 6], |i| ((i as f32) * 0.7).sin());
            let masked = mask.apply(w)?;
            array.run_gemm(&masked, &mask.chunk_counts, &acts)?;
        }
        verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.metric("accel.verify_ms", median(&verify_ms), "ms");
    Ok(())
}

/// This workload's per-layer metrics.
pub fn catalog() -> Vec<(String, &'static str)> {
    [
        ("nn.epoch_ms", "ms"),
        ("pruning.reg_grad_us", "us"),
        ("pruning.prune_us", "us"),
        ("pruning.compress_us", "us"),
        ("io.encode_us", "us"),
        ("io.write_ms", "ms"),
        ("accel.verify_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect()
}
