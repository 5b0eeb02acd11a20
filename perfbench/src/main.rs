//! The repository benchmark. One process runs one named workload, checks
//! every output, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`) as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-lineup --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Earlier lines carry the configuration and the details behind each
//! figure (sample counts, ledgers, reconciliations). Per-layer times are
//! taken from this crate's own files, around calls into each crate's
//! public functions. `BENCHMARK.json` at the repository root names the
//! workloads and metrics; `perfbench/README.md` says what each one is for.

mod common;
mod infer_scale;
mod serve_lineup;
mod simulate;
mod train_cspa;

use common::{json_object, json_str, median, num, Args, Report};
use csp_tensor::{CpuFeatures, CspError, CspResult, KernelBackend};
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

/// Share of the client figure within which a traced run's layer
/// breakdown must reconcile with it.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The end-to-end metrics every untraced run reports. Wall-clock rates
/// and latencies go to the detail line: on a shared host they follow the
/// time other guests take from this one, while the process's CPU time
/// per op does not.
const END_TO_END: &[&str] = &["setup_s", "cpu_us_per_op", "peak_rss_mib"];

/// Run `setup` [`SETUPS`] times, tearing down all but the last, record
/// `setup_s` — the median of the process CPU time each set-up took — and
/// the median wall time in the details, and return the last state. The
/// first set-up counts from process start, so process start-up counts too.
pub fn setup_repeated<S>(
    report: &mut Report,
    start: Instant,
    mut setup: impl FnMut() -> CspResult<S>,
    mut teardown: impl FnMut(S) -> CspResult<()>,
) -> CspResult<S> {
    let mut cpu = Vec::with_capacity(SETUPS);
    let mut wall = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        if let Some(s) = last.take() {
            teardown(s)?;
        }
        let (t, c) = if i == 0 {
            (start, 0.0)
        } else {
            (Instant::now(), common::process_cpu_s())
        };
        last = Some(setup()?);
        cpu.push(common::process_cpu_s() - c);
        wall.push(t.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&cpu), "s");
    report.detail("setup_wall_s", num(median(&wall)));
    Ok(last.expect("at least one set-up"))
}

fn run(args: &Args, start: Instant) -> CspResult<Report> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "serve-lineup" => serve_lineup::run(args, start, &mut report)?,
        "infer-scale" => infer_scale::run(args, start, &mut report)?,
        "simulate" => simulate::run(args, start, &mut report)?,
        "train-cspa" => train_cspa::run(args, start, &mut report)?,
        other => {
            return Err(CspError::Config {
                what: format!(
                    "unknown workload {other:?} (serve-lineup, infer-scale, simulate, train-cspa)"
                ),
            })
        }
    }
    if !report.metrics.iter().any(|(n, _, _)| n == "peak_rss_mib") {
        report.metric("peak_rss_mib", common::peak_rss_mib(), "MiB");
    }
    if args.trace {
        // The traced run's end-to-end figures, for its tracing overhead:
        // `traced.<metric>` minus the untraced run's `<metric>`.
        for (name, _, _) in &mut report.metrics {
            if END_TO_END.contains(&name.as_str()) {
                *name = format!("traced.{name}");
            }
        }
    }
    Ok(report)
}

/// The configuration every result is recorded with.
fn config_line(args: &Args) -> String {
    json_object(&[(
        "config".to_string(),
        json_object(&[
            ("workload".into(), json_str(&args.workload)),
            ("seed".into(), args.seed.to_string()),
            ("seconds".into(), num(args.seconds)),
            ("trace".into(), args.trace.to_string()),
            ("nproc".into(), common::nproc().to_string()),
            (
                "cpu_features".into(),
                json_str(&CpuFeatures::detect().summary()),
            ),
            (
                "kernel_backend".into(),
                json_str(KernelBackend::selected().name()),
            ),
            (
                "pool_width".into(),
                csp_runtime::Pool::current().threads().to_string(),
            ),
        ]),
    )])
}

/// Check the reported metric names against the catalog: an untraced run
/// reports exactly the end-to-end metrics, a traced run only names from
/// the per-layer catalog and zero for every layer it does not exercise.
fn complete(args: &Args, report: &mut Report) -> CspResult<()> {
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(CspError::Internal {
            what: format!("metric {name} has no finite value ({value})"),
        });
    }
    let names: Vec<&str> = report.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    if unique.len() != names.len() {
        return Err(CspError::Internal {
            what: format!("duplicate metric names in {names:?}"),
        });
    }
    if !args.trace {
        let want: BTreeSet<&str> = END_TO_END.iter().copied().collect();
        if unique != want {
            return Err(CspError::Internal {
                what: format!("end-to-end metrics {unique:?} differ from {want:?}"),
            });
        }
        return Ok(());
    }
    let catalog = per_layer_catalog();
    if let Some(stray) = unique
        .iter()
        .find(|n| !catalog.iter().any(|(c, _)| c == *n))
    {
        return Err(CspError::Internal {
            what: format!("per-layer metric {stray:?} is not in the catalog"),
        });
    }
    let missing: Vec<(String, &'static str)> = catalog
        .into_iter()
        .filter(|(c, _)| !unique.contains(c.as_str()))
        .collect();
    for (name, unit) in missing {
        report.metric(name, 0.0, unit);
    }
    Ok(())
}

/// Every per-layer metric name with its unit, in `BENCHMARK.json` order.
fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("traced.setup_s", "s"),
        ("traced.cpu_us_per_op", "us"),
        ("traced.peak_rss_mib", "MiB"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for w in [
        serve_lineup::catalog(),
        infer_scale::catalog(),
        simulate::catalog(),
        train_cspa::catalog(),
    ] {
        out.extend(w);
    }
    out
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Untraced runs keep telemetry off whatever the environment says.
    csp_telemetry::set_enabled(args.trace);
    println!("{}", config_line(&args));
    let ticks = common::cpu_ticks();
    let mut report = match run(&args, start).and_then(|mut r| complete(&args, &mut r).map(|()| r)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let failed_checks: Vec<String> = report
        .checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| json_str(what))
        .collect();
    report.detail("failed_checks", format!("[{}]", failed_checks.join(", ")));
    // Share of the machine's CPU time the hypervisor stole during the run:
    // on a shared host, the context for a slow run.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, common::cpu_ticks()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.detail("host.steal_pct", num(100.0 * share));
    }
    println!(
        "{}",
        json_object(&[("detail".to_string(), json_object(&report.detail))])
    );
    let metrics: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            (
                n.clone(),
                format!("{{\"value\": {}, \"unit\": {}}}", num(*v), json_str(u)),
            )
        })
        .collect();
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.ledger.attempted(),
        report.ledger.not_ok(),
        json_object(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {}: checks failed: {}",
            args.workload,
            failed_checks.join(", ")
        );
        ExitCode::FAILURE
    }
}
