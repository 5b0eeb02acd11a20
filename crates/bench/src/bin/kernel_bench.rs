//! Kernel and pipeline benchmark: serial vs parallel wall-clock for the
//! workspace's hot paths, with bit-identity verification.
//!
//! Measures four representative stages — the blocked GEMM, the direct
//! convolution, one training epoch of the mini-CNN, and the Fig. 10
//! accelerator sweep — once under a single-thread pool and once under the
//! full pool, and reports the speedup. Every parallel output is compared
//! bit-for-bit against its serial twin (the determinism contract of
//! `csp-runtime`), and the blocked GEMM is additionally checked against
//! the naive reference kernel.
//!
//! A backend×shape matrix additionally times single-thread `matmul` under
//! every [`KernelBackend`] the host supports, recording per-backend
//! speedup over scalar, bitwise identity, and the max ULP distance (the
//! FMA backend is allowed a documented bound; all others must be 0).
//!
//! ```text
//! kernel_bench [--smoke] [--json] [--threads N] [--out PATH] [--telemetry] [--backend NAME]
//! ```
//!
//! `--smoke` shrinks every problem so the whole run takes seconds (CI);
//! `--json` additionally writes `results/BENCH_kernels.json`;
//! `--telemetry` enables the process-wide metrics registry and dumps its
//! snapshot to `results/TELEMETRY_kernels.json`; `--backend` forces a
//! kernel backend for the headline rows (typed error if unsupported).

use criterion::{black_box, Criterion};
use csp_bench::{accelerator_lineup, run_lineup, workloads, Workload};
use csp_core::nn::data::ClusterImages;
use csp_core::nn::{
    seeded_rng, train_classifier, Conv2d, EpochStats, Flatten, Linear, MaxPool, Relu, Sequential,
    Sgd, TrainOptions,
};
use csp_core::tensor::{conv2d, matmul, matmul_reference, uniform, Conv2dSpec, Tensor};
use csp_pruning::{ChunkedLayout, CspMask, Weaved};
use csp_runtime::with_threads;
use csp_sparse::{PreparedWeaved, PreparedWeavedInt8};
use csp_tensor::{with_backend, CpuFeatures, KernelBackend};
use std::process::ExitCode;
use std::time::Instant;

/// One measured stage: serial and parallel seconds per iteration plus the
/// bit-identity verdict of the parallel output against the serial one.
struct BenchRow {
    name: String,
    dims: String,
    serial_s: f64,
    parallel_s: f64,
    bit_identical: bool,
}

impl BenchRow {
    fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.serial_s / self.parallel_s
        } else {
            0.0
        }
    }
}

/// Pool-reuse probe: the persistent pool's dispatch overhead, measured
/// as the cold first parallel dispatch (which spawns and parks the
/// workers) against the steady-state average once the same workers are
/// being reused. Run **before** any benchmark so the first call really
/// is cold.
struct DispatchProbe {
    width: usize,
    first_call_ns: u64,
    steady_ns: u64,
    calls: u64,
}

fn probe_dispatch(threads: usize) -> DispatchProbe {
    // At least two lanes so a dispatch actually involves a worker even
    // when the benchmark itself runs serially.
    let width = threads.max(2);
    let pool = csp_runtime::Pool::new(width);
    let t0 = Instant::now();
    black_box(pool.map_collect(width, |i| i));
    let first_call_ns = t0.elapsed().as_nanos() as u64;
    const CALLS: u64 = 2000;
    let t1 = Instant::now();
    for _ in 0..CALLS {
        black_box(pool.map_collect(width, |i| i));
    }
    let steady_ns = (t1.elapsed().as_nanos() as u64) / CALLS;
    DispatchProbe {
        width,
        first_call_ns,
        steady_ns,
        calls: CALLS,
    }
}

/// Time `work` under a `threads`-wide pool. One explicit warm-up call
/// runs first *inside the pool scope*, so cold pool dispatch (~196 µs
/// first-call per the dispatch probe), lazy backend selection, and page
/// faults on freshly-allocated operands never pollute the timed iters.
fn time_at<R>(c: &mut Criterion, threads: usize, mut work: impl FnMut() -> R) -> f64 {
    with_threads(threads, || {
        black_box(work());
        c.time_function("", |b| b.iter(|| black_box(work())))
    })
}

fn bench_matmul(c: &mut Criterion, threads: usize, smoke: bool) -> BenchRow {
    let (m, k, n) = if smoke { (96, 96, 96) } else { (512, 512, 512) };
    let mut rng = seeded_rng(7);
    let a = uniform(&mut rng, &[m, k], 1.0);
    let b = uniform(&mut rng, &[k, n], 1.0);
    let serial = with_threads(1, || matmul(&a, &b).expect("matmul"));
    let parallel = with_threads(threads, || matmul(&a, &b).expect("matmul"));
    let reference = matmul_reference(&a, &b).expect("matmul_reference");
    let bit_identical = bits(&serial) == bits(&parallel) && bits(&serial) == bits(&reference);
    BenchRow {
        name: format!("matmul_{m}"),
        dims: format!("{m}x{k}x{n}"),
        serial_s: time_at(c, 1, || matmul(&a, &b).expect("matmul")),
        parallel_s: time_at(c, threads, || matmul(&a, &b).expect("matmul")),
        bit_identical,
    }
}

fn bench_conv(c: &mut Criterion, threads: usize, smoke: bool) -> BenchRow {
    let (c_in, side, c_out) = if smoke { (4, 16, 8) } else { (16, 64, 32) };
    let spec = Conv2dSpec::new(3, 1, 1);
    let mut rng = seeded_rng(11);
    let x = uniform(&mut rng, &[c_in, side, side], 1.0);
    let w = uniform(&mut rng, &[c_out, c_in, 3, 3], 0.5);
    let serial = with_threads(1, || conv2d(&x, &w, spec).expect("conv2d"));
    let parallel = with_threads(threads, || conv2d(&x, &w, spec).expect("conv2d"));
    BenchRow {
        name: "conv3x3".into(),
        dims: format!("{c_in}x{side}x{side} -> {c_out}"),
        serial_s: time_at(c, 1, || conv2d(&x, &w, spec).expect("conv2d")),
        parallel_s: time_at(c, threads, || conv2d(&x, &w, spec).expect("conv2d")),
        bit_identical: bits(&serial) == bits(&parallel),
    }
}

/// Build the mini-CNN and run one epoch; returns the epoch stats and the
/// final parameter values (for bit-comparison).
fn one_epoch(ds: &ClusterImages, batch: usize, n_batches: usize) -> (EpochStats, Vec<u32>) {
    let mut rng = seeded_rng(23);
    let side = 8;
    let mut model = Sequential::new(vec![
        Box::new(Conv2d::new(&mut rng, 1, 8, 3, 1, 1)),
        Box::new(Relu::new()),
        Box::new(MaxPool::new(2, 2)),
        Box::new(Flatten::new()),
        Box::new(Linear::new(&mut rng, 8 * (side / 2) * (side / 2), 4)),
    ]);
    let mut opt = Sgd::new(0.05).with_momentum(0.9, true);
    let stats = train_classifier(
        &mut model,
        |b| ds.batch(b * batch, batch),
        n_batches,
        &mut opt,
        &TrainOptions {
            epochs: 1,
            batch_size: batch,
            ..Default::default()
        },
        None,
        None,
    )
    .expect("train_classifier");
    let weights: Vec<u32> = model
        .params()
        .iter()
        .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
        .collect();
    (stats[0], weights)
}

fn bench_train_epoch(c: &mut Criterion, threads: usize, smoke: bool) -> BenchRow {
    let (samples, batch) = if smoke { (16, 8) } else { (64, 8) };
    let n_batches = samples / batch;
    let mut rng = seeded_rng(19);
    let ds = ClusterImages::generate(&mut rng, samples, 4, 1, 8, 0.2);
    let (s_stats, s_weights) = with_threads(1, || one_epoch(&ds, batch, n_batches));
    let (p_stats, p_weights) = with_threads(threads, || one_epoch(&ds, batch, n_batches));
    let bit_identical = s_weights == p_weights
        && s_stats.loss.to_bits() == p_stats.loss.to_bits()
        && s_stats.accuracy.to_bits() == p_stats.accuracy.to_bits();
    BenchRow {
        name: "train_epoch".into(),
        dims: format!("{samples} samples, batch {batch}"),
        serial_s: time_at(c, 1, || one_epoch(&ds, batch, n_batches)),
        parallel_s: time_at(c, threads, || one_epoch(&ds, batch, n_batches)),
        bit_identical,
    }
}

/// The Fig. 10 sweep: every lineup accelerator over the selected workloads.
fn sweep(ws: &[Workload]) -> Vec<(u64, u64)> {
    let lineup = accelerator_lineup();
    ws.iter()
        .flat_map(|w| run_lineup(&lineup, w))
        .map(|r| (r.cycles, r.total_energy_pj().to_bits()))
        .collect()
}

fn bench_sim_sweep(c: &mut Criterion, threads: usize, smoke: bool) -> BenchRow {
    let mut ws = workloads();
    if smoke {
        ws.truncate(1);
    }
    let serial = with_threads(1, || sweep(&ws));
    let parallel = with_threads(threads, || sweep(&ws));
    BenchRow {
        name: "fig10_sweep".into(),
        dims: format!("{} workloads x 6 accelerators", ws.len()),
        serial_s: time_at(c, 1, || sweep(&ws)),
        parallel_s: time_at(c, threads, || sweep(&ws)),
        bit_identical: serial == parallel,
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// ULP distance between two finite f32 values via the monotone integer
/// mapping (sign-magnitude → two's-complement order), so ±0 compare equal
/// and adjacent floats are 1 apart.
fn ulp_distance(a: f32, b: f32) -> u64 {
    fn key(x: f32) -> i64 {
        let u = x.to_bits();
        if u & 0x8000_0000 != 0 {
            -((u & 0x7fff_ffff) as i64)
        } else {
            u as i64
        }
    }
    key(a).abs_diff(key(b))
}

/// One cell of the backend×shape matrix: single-thread `matmul` of one
/// shape under one backend, compared against the scalar run of the same
/// shape.
struct BackendCell {
    backend: &'static str,
    lanes: usize,
    shape: String,
    dims: String,
    serial_s: f64,
    speedup_vs_scalar: f64,
    bit_identical: bool,
    max_ulp: u64,
}

/// Time single-thread `matmul` for each shape under every backend the
/// host supports. Scalar is the row every other backend is normalized to
/// (`speedup_vs_scalar`) and bit-compared against.
fn bench_backend_matrix(c: &mut Criterion, smoke: bool) -> Vec<BackendCell> {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(96, 96, 96)]
    } else {
        // The headline square shape, a smaller square, and a ragged
        // shape that exercises the lane-tail epilogues.
        &[(128, 128, 128), (512, 512, 512), (257, 129, 65)]
    };
    let mut cells = Vec::new();
    for &(m, k, n) in shapes {
        let mut rng = seeded_rng(7);
        let a = uniform(&mut rng, &[m, k], 1.0);
        let b = uniform(&mut rng, &[k, n], 1.0);
        let scalar_out = with_backend(KernelBackend::Scalar, || matmul(&a, &b).expect("matmul"));
        let scalar_bits = bits(&scalar_out);
        let mut scalar_s = 0.0f64;
        for backend in KernelBackend::supported_backends() {
            let out = with_backend(backend, || matmul(&a, &b).expect("matmul"));
            let bit_identical = bits(&out) == scalar_bits;
            let max_ulp = out
                .as_slice()
                .iter()
                .zip(scalar_out.as_slice())
                .map(|(&x, &y)| ulp_distance(x, y))
                .max()
                .unwrap_or(0);
            let serial_s = with_backend(backend, || {
                time_at(c, 1, || matmul(&a, &b).expect("matmul"))
            });
            if backend == KernelBackend::Scalar {
                scalar_s = serial_s;
            }
            cells.push(BackendCell {
                backend: backend.name(),
                lanes: backend.lanes(),
                shape: format!("matmul_{m}"),
                dims: format!("{m}x{k}x{n}"),
                serial_s,
                speedup_vs_scalar: if serial_s > 0.0 {
                    scalar_s / serial_s
                } else {
                    0.0
                },
                bit_identical,
                max_ulp,
            });
        }
    }
    cells
}

/// One cell of the execution matrix: a forward GEMM at one structured
/// sparsity point, run dense (on the decompressed weights), weaved
/// (f32 early-stop straight from the compressed layout), or weaved-int8
/// (fused quantized early-stop) — all single-thread, compared against
/// the dense product under the same backend.
struct ExecutionCell {
    execution: &'static str,
    backend: &'static str,
    dims: String,
    sparsity: f64,
    serial_s: f64,
    speedup_vs_dense: f64,
    bit_identical: bool,
    max_ulp: u64,
}

/// Build one weaved GEMM problem at roughly `keep` surviving weight
/// fraction: per-row chunk counts around `keep · n_chunks` (±1 jitter),
/// sorted descending as the paper's row reordering would leave them, so
/// equal-prefix rows form long contiguous panels.
fn weaved_problem(
    n: usize,
    m: usize,
    c_out: usize,
    cs: usize,
    keep: f64,
    seed: u64,
) -> (PreparedWeaved, PreparedWeavedInt8, Tensor, Tensor, f64) {
    let layout = ChunkedLayout::new(m, c_out, cs).expect("layout");
    let n_chunks = layout.n_chunks();
    let mut rng = seeded_rng(seed);
    let w = uniform(&mut rng, &[m, c_out], 1.0);
    let x = uniform(&mut rng, &[n, m], 1.0);
    let base = (keep * n_chunks as f64).round() as usize;
    let mut counts: Vec<usize> = (0..m)
        .map(|r| (base + (r % 3)).saturating_sub(1).min(n_chunks))
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let mask = CspMask::from_chunk_counts(layout, counts).expect("mask");
    let weaved = Weaved::compress(&w, &mask).expect("compress");
    let dense = mask.apply(&w).expect("mask apply");
    let sparsity = 1.0 - weaved.nnz() as f64 / (m * c_out) as f64;
    let prep = PreparedWeaved::new(&weaved).expect("prepare weaved");
    let prep8 = PreparedWeavedInt8::new(&weaved).expect("prepare weaved-int8");
    (prep, prep8, dense, x, sparsity)
}

/// Dense-vs-weaved at the Fig. 10 structured-sparsity points: for each
/// point, time the dense GEMM on the decompressed weights and the weaved
/// early-stop under every bit-identity-eligible backend, plus the fused
/// int8 engine (backend-independent integer loops, reported once under
/// "scalar"). The weaved f32 output is bit-compared against the dense
/// product of the same backend — the engines' headline contract.
fn bench_execution_matrix(c: &mut Criterion, smoke: bool) -> Vec<ExecutionCell> {
    let (n, m, c_out, cs) = if smoke {
        (16, 96, 96, 8)
    } else {
        (64, 512, 512, 16)
    };
    // Weight-keep fractions ≈ the paper's Fig. 10 sparsity points
    // (50% / 70% / 85% structured sparsity).
    let keeps: &[f64] = if smoke { &[0.3] } else { &[0.5, 0.3, 0.15] };
    let mut cells = Vec::new();
    for (ki, &keep) in keeps.iter().enumerate() {
        let (prep, prep8, dense, x, sparsity) =
            weaved_problem(n, m, c_out, cs, keep, 31 + ki as u64);
        let dims = format!("{n}x{m}x{c_out}");
        for backend in KernelBackend::supported_backends() {
            if backend == KernelBackend::Avx2Fma {
                // The weaved engines only claim bit-identity against
                // non-contracting backends; FMA has its own bound and
                // its own rows in the backend matrix.
                continue;
            }
            let dense_out = with_backend(backend, || matmul(&x, &dense).expect("dense gemm"));
            let dense_s = with_backend(backend, || {
                time_at(c, 1, || matmul(&x, &dense).expect("dense gemm"))
            });
            cells.push(ExecutionCell {
                execution: "dense",
                backend: backend.name(),
                dims: dims.clone(),
                sparsity,
                serial_s: dense_s,
                speedup_vs_dense: 1.0,
                bit_identical: true,
                max_ulp: 0,
            });
            let weaved_out = with_backend(backend, || prep.gemm_xw(&x).expect("weaved gemm"));
            let weaved_s = with_backend(backend, || {
                time_at(c, 1, || prep.gemm_xw(&x).expect("weaved gemm"))
            });
            let max_ulp = weaved_out
                .as_slice()
                .iter()
                .zip(dense_out.as_slice())
                .map(|(&a, &b)| ulp_distance(a, b))
                .max()
                .unwrap_or(0);
            cells.push(ExecutionCell {
                execution: "weaved",
                backend: backend.name(),
                dims: dims.clone(),
                sparsity,
                serial_s: weaved_s,
                speedup_vs_dense: if weaved_s > 0.0 {
                    dense_s / weaved_s
                } else {
                    0.0
                },
                bit_identical: bits(&weaved_out) == bits(&dense_out),
                max_ulp,
            });
        }
        // Scalar dense run is the int8 baseline (first backend in the
        // supported list is always Scalar).
        let dense_out = with_backend(KernelBackend::Scalar, || {
            matmul(&x, &dense).expect("dense gemm")
        });
        let dense_s = with_backend(KernelBackend::Scalar, || {
            time_at(c, 1, || matmul(&x, &dense).expect("dense gemm"))
        });
        let int8_out = prep8.gemm_xw(&x).expect("weaved-int8 gemm");
        let int8_s = time_at(c, 1, || prep8.gemm_xw(&x).expect("weaved-int8 gemm"));
        let max_ulp = int8_out
            .as_slice()
            .iter()
            .zip(dense_out.as_slice())
            .map(|(&a, &b)| ulp_distance(a, b))
            .max()
            .unwrap_or(0);
        cells.push(ExecutionCell {
            execution: "weaved-int8",
            backend: "scalar",
            dims: dims.clone(),
            sparsity,
            serial_s: int8_s,
            speedup_vs_dense: if int8_s > 0.0 { dense_s / int8_s } else { 0.0 },
            bit_identical: false, // quantized: bounded error, not bitwise
            max_ulp,
        });
    }
    cells
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Run-level facts recorded in the JSON header.
struct RunInfo {
    backend: KernelBackend,
    threads: usize,
    smoke: bool,
    iters: u64,
}

fn write_json(
    path: &str,
    rows: &[BenchRow],
    cells: &[BackendCell],
    exec_cells: &[ExecutionCell],
    probe: &DispatchProbe,
    run: &RunInfo,
) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let cpu = CpuFeatures::detect();
    let mut body = String::from("{\n");
    body.push_str("  \"schema\": \"csp-bench/kernels/v4\",\n");
    body.push_str(&format!("  \"smoke\": {},\n", run.smoke));
    body.push_str(&format!("  \"host_threads\": {host},\n"));
    body.push_str(&format!("  \"parallel_threads\": {},\n", run.threads));
    body.push_str(&format!("  \"iters\": {},\n", run.iters));
    body.push_str(&format!(
        "  \"cpu\": {{\"sse2\": {}, \"avx\": {}, \"avx2\": {}, \"fma\": {}}},\n",
        cpu.sse2, cpu.avx, cpu.avx2, cpu.fma
    ));
    body.push_str(&format!("  \"backend\": \"{}\",\n", run.backend.name()));
    body.push_str(&format!("  \"backend_lanes\": {},\n", run.backend.lanes()));
    body.push_str(&format!("  \"grain\": {},\n", csp_runtime::DEFAULT_GRAIN));
    body.push_str(&format!(
        "  \"dispatch_probe\": {{\"width\": {}, \"first_call_ns\": {}, \"steady_ns\": {}, \
         \"calls\": {}}},\n",
        probe.width, probe.first_call_ns, probe.steady_ns, probe.calls
    ));
    body.push_str("  \"backend_matrix\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"backend\": \"{}\", \"lanes\": {}, \"shape\": \"{}\", \"dims\": \"{}\", \
             \"serial_s\": {:.6}, \"speedup_vs_scalar\": {:.3}, \"bit_identical\": {}, \
             \"max_ulp\": {}}}{}\n",
            cell.backend,
            cell.lanes,
            json_escape(&cell.shape),
            json_escape(&cell.dims),
            cell.serial_s,
            cell.speedup_vs_scalar,
            cell.bit_identical,
            cell.max_ulp,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"execution_matrix\": [\n");
    for (i, cell) in exec_cells.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"execution\": \"{}\", \"backend\": \"{}\", \"dims\": \"{}\", \
             \"sparsity\": {:.4}, \"serial_s\": {:.6}, \"speedup_vs_dense\": {:.3}, \
             \"bit_identical\": {}, \"max_ulp\": {}}}{}\n",
            cell.execution,
            cell.backend,
            json_escape(&cell.dims),
            cell.sparsity,
            cell.serial_s,
            cell.speedup_vs_dense,
            cell.bit_identical,
            cell.max_ulp,
            if i + 1 == exec_cells.len() { "" } else { "," }
        ));
    }
    body.push_str("  ],\n");
    body.push_str("  \"benchmarks\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"dims\": \"{}\", \"serial_s\": {:.6}, \
             \"parallel_s\": {:.6}, \"speedup\": {:.3}, \"bit_identical\": {}}}{}\n",
            json_escape(&r.name),
            json_escape(&r.dims),
            r.serial_s,
            r.parallel_s,
            r.speedup(),
            r.bit_identical,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Some(dir) = std::path::Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

fn main() -> ExitCode {
    let cli = match csp_bench::cli::CommonCli::parse().and_then(|cli| {
        cli.reject_unknown(
            "kernel_bench [--smoke] [--json] [--threads N] [--out PATH] [--telemetry] \
             [--backend NAME]",
        )?;
        Ok(cli)
    }) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let backend = match cli.apply_backend() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (smoke, json) = (cli.smoke, cli.json);
    let threads = cli.threads_or_pool();
    let out = cli.out_or("results/BENCH_kernels.json").to_string();

    let iters = if smoke { 2 } else { 5 };
    let mut c = match std::env::var("CRITERION_ITERS") {
        Ok(_) => Criterion::default(),
        Err(_) => Criterion::with_iters(iters),
    };

    println!(
        "kernel_bench: serial (1 thread) vs parallel ({threads} threads), \
         {} problem sizes",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "cpu: {}; kernel backend: {} ({} lanes)",
        CpuFeatures::detect().summary(),
        backend.name(),
        backend.lanes()
    );
    // Cold-vs-warm dispatch latency must run before anything else warms
    // the persistent pool.
    let probe = probe_dispatch(threads);
    println!(
        "dispatch probe (width {}): first call {} ns (worker spawn), \
         steady-state {} ns over {} reused dispatches; grain cutoff {} units",
        probe.width,
        probe.first_call_ns,
        probe.steady_ns,
        probe.calls,
        csp_runtime::DEFAULT_GRAIN
    );
    let rows = vec![
        bench_matmul(&mut c, threads, smoke),
        bench_conv(&mut c, threads, smoke),
        bench_train_epoch(&mut c, threads, smoke),
        bench_sim_sweep(&mut c, threads, smoke),
    ];
    let cells = bench_backend_matrix(&mut c, smoke);
    let exec_cells = bench_execution_matrix(&mut c, smoke);

    println!(
        "\n{:<14} {:<28} {:>12} {:>12} {:>9}  bit-identical",
        "bench", "dims", "serial(ms)", "parallel(ms)", "speedup"
    );
    let mut all_identical = true;
    for r in &rows {
        all_identical &= r.bit_identical;
        println!(
            "{:<14} {:<28} {:>12.3} {:>12.3} {:>8.2}x  {}",
            r.name,
            r.dims,
            r.serial_s * 1e3,
            r.parallel_s * 1e3,
            r.speedup(),
            r.bit_identical
        );
    }

    println!(
        "\nbackend matrix (single thread)\n{:<12} {:<8} {:<16} {:>12} {:>12} {:>8}  bit-identical",
        "shape", "backend", "dims", "serial(ms)", "vs scalar", "max_ulp"
    );
    for cell in &cells {
        // The FMA backend is exempt from bit-identity (documented error
        // bound instead); every other backend must match scalar exactly.
        if cell.backend != "avx2fma" {
            all_identical &= cell.bit_identical;
        }
        println!(
            "{:<12} {:<8} {:<16} {:>12.3} {:>11.2}x {:>8}  {}",
            cell.shape,
            cell.backend,
            cell.dims,
            cell.serial_s * 1e3,
            cell.speedup_vs_scalar,
            cell.max_ulp,
            cell.bit_identical
        );
    }

    println!(
        "\nexecution matrix (single thread, dense vs weaved early-stop)\n\
         {:<12} {:<8} {:<14} {:>9} {:>12} {:>10} {:>8}  bit-identical",
        "execution", "backend", "dims", "sparsity", "serial(ms)", "vs dense", "max_ulp"
    );
    for cell in &exec_cells {
        // The f32 weaved engine carries the same bit-identity contract
        // as the non-FMA backends; the int8 engine is quantized by
        // design (bounded error, never bitwise).
        if cell.execution == "weaved" {
            all_identical &= cell.bit_identical;
        }
        println!(
            "{:<12} {:<8} {:<14} {:>8.1}% {:>12.3} {:>9.2}x {:>8}  {}",
            cell.execution,
            cell.backend,
            cell.dims,
            cell.sparsity * 100.0,
            cell.serial_s * 1e3,
            cell.speedup_vs_dense,
            cell.max_ulp,
            cell.bit_identical
        );
    }

    if json {
        let run = RunInfo {
            backend,
            threads,
            smoke,
            iters,
        };
        write_json(&out, &rows, &cells, &exec_cells, &probe, &run);
    }
    cli.dump_telemetry("kernels");
    if all_identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: parallel output differs from serial");
        ExitCode::FAILURE
    }
}
