//! serve_bench — the serving tier's gate driver.
//!
//! Usage: `serve_bench [--smoke] [--json] [--threads N] [--out PATH]
//! [--seed N] [--shards N]`
//!
//! It publishes no performance numbers: perfbench's `serve-lineup`
//! workload measures serving latency and capacity from raw samples, with
//! bit-identity and ledger checks. Every phase here drives loopback TCP
//! through the `ShardedServer` event loop into a `ShardedEngine` and
//! gates on the typed outcomes:
//!
//! 1. **tcp-open** — paced low load into a one-shard engine: at least
//!    100 requests complete, none is shed or expired.
//! 2. **execution** — the same artifact served dense, weaved (f32
//!    early-stop from the compressed layout) and weaved-int8 by a
//!    one-shard engine: each axis completes every request.
//! 3. **tcp-deadline** — a slow batcher (25 ms hold, 1 worker) fed wire
//!    requests with 1 ms budgets on every other request: the budgeted
//!    half comes back as typed `Expired` on both the client and the
//!    server side, never executed late; the budget-free half completes.
//! 4. **saturate** — unpaced back-to-back requests from 16 connections
//!    into a cap-4 queue, at 1 shard and at `--shards N` (default 2):
//!    admission control sheds, typed, and some requests still complete.
//!
//! Every cell also gates on exactly one typed client outcome per request
//! (ok / shed / expired / failed / transport), on the engine's accounting
//! closure `admitted = completed + failed + expired`, and, when no
//! transport fault occurred, on the client ledger matching the server's.
//! The benign phases (tcp-open, execution) must see no client error,
//! nonzero latency percentiles and a populated batch histogram.
//!
//! `--smoke` shrinks the request counts for CI. The gate table goes to
//! stdout and `results/serve_study.txt`; `--json` also writes
//! `results/BENCH_serve.json`. Any violated gate exits nonzero.

use csp_bench::cli::CommonCli;
use csp_io::write_with_history;
use csp_serve::testutil::{prune_to_artifact, sample_input};
use csp_serve::{
    BatchPolicy, Execution, ModelSpec, ShardPolicy, ShardedEngine, ShardedServer, StatsSnapshot,
    TcpClient,
};
use csp_tensor::{CspError, CspResult, Tensor};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

const MODEL: &str = "basic";

/// Client-side typed reply outcomes: every issued request lands in
/// exactly one bucket.
#[derive(Debug, Default, Clone, Copy)]
struct Outcomes {
    ok: u64,
    shed: u64,
    expired: u64,
    failed: u64,
    transport: u64,
}

impl Outcomes {
    fn record<T>(&mut self, r: &CspResult<T>) {
        match r {
            Ok(_) => self.ok += 1,
            Err(CspError::Overloaded { .. }) => self.shed += 1,
            Err(CspError::Expired { .. }) => self.expired += 1,
            Err(CspError::Io { .. }) | Err(CspError::Corrupt { .. }) => self.transport += 1,
            Err(_) => self.failed += 1,
        }
    }

    fn merge(&mut self, o: Outcomes) {
        self.ok += o.ok;
        self.shed += o.shed;
        self.expired += o.expired;
        self.failed += o.failed;
        self.transport += o.transport;
    }

    fn total(&self) -> u64 {
        self.ok + self.errors()
    }

    fn errors(&self) -> u64 {
        self.shed + self.expired + self.failed + self.transport
    }
}

/// One gated cell.
struct Cell {
    phase: &'static str,
    label: String,
    policy: BatchPolicy,
    /// Engine shards behind this cell.
    shards: usize,
    clients: usize,
    requests: u64,
    outcomes: Outcomes,
    snap: StatsSnapshot,
}

/// The request samples clients rotate through (`[c, h, w]` each).
fn request_pool(spec: ModelSpec, seed: u64) -> Vec<Tensor> {
    (0..8)
        .map(|i| {
            let x = sample_input(spec, seed + i, 1);
            let d = spec.input_dims();
            Tensor::from_vec(x.as_slice().to_vec(), &d).expect("same length")
        })
        .collect()
}

/// Open loop over real TCP: `conns` persistent connections against the
/// sharded event-loop front-end, each paced by `pace` between requests
/// — or unpaced (`pace == None`). With a `budget`, every other request
/// carries it as its deadline (the budget-free half must complete).
#[allow(clippy::too_many_arguments)]
fn sharded_open_loop(
    phase: &'static str,
    spec: ModelSpec,
    artifact: &Path,
    policy: BatchPolicy,
    shards: usize,
    workers: usize,
    conns: usize,
    per_conn: usize,
    pace: Option<Duration>,
    budget: Option<Duration>,
    seed: u64,
) -> CspResult<Cell> {
    let sharded = ShardedEngine::start(ShardPolicy {
        shards,
        workers,
        batch: policy,
        replicas: 32,
    })?;
    sharded.rolling_swap_from_path(MODEL, spec, artifact)?;
    let server = ShardedServer::serve(sharded.client(), "127.0.0.1:0", 2)?;
    let addr = server.addr();
    let samples = request_pool(spec, seed);
    let handles: Vec<_> = (0..conns)
        .map(|t| {
            let samples = samples.clone();
            std::thread::spawn(move || -> Result<Outcomes, CspError> {
                let mut tcp = TcpClient::connect(&addr)?;
                let mut outcomes = Outcomes::default();
                for i in 0..per_conn {
                    let x = &samples[(t + i) % samples.len()];
                    let b = budget.filter(|_| i % 2 == 0);
                    outcomes.record(&tcp.infer(MODEL, x, b));
                    if let Some(p) = pace {
                        std::thread::sleep(p);
                    }
                }
                Ok(outcomes)
            })
        })
        .collect();
    let mut outcomes = Outcomes::default();
    for h in handles {
        match h.join() {
            Ok(Ok(o)) => outcomes.merge(o),
            _ => outcomes.transport += per_conn as u64,
        }
    }
    let snap = sharded.stats(MODEL);
    server.shutdown(Duration::from_secs(10))?;
    sharded.shutdown()?;
    Ok(Cell {
        phase,
        label: format!("s{shards}-{}", spec.execution.name()),
        policy,
        shards,
        clients: conns,
        requests: (conns * per_conn) as u64,
        outcomes,
        snap,
    })
}

fn gate_table(cells: &[Cell]) -> String {
    let mut s = format!(
        "{:<12} {:<24} {:>6} {:>4} {:>8} {:>8} {:>6} {:>7} {:>6} {:>5} {:>8} {:>9}\n",
        "phase",
        "cell",
        "shards",
        "cli",
        "requests",
        "ok",
        "shed",
        "expired",
        "failed",
        "io",
        "admitted",
        "completed"
    );
    for c in cells {
        s.push_str(&format!(
            "{:<12} {:<24} {:>6} {:>4} {:>8} {:>8} {:>6} {:>7} {:>6} {:>5} {:>8} {:>9}\n",
            c.phase,
            c.label,
            c.shards,
            c.clients,
            c.requests,
            c.outcomes.ok,
            c.outcomes.shed,
            c.outcomes.expired,
            c.outcomes.failed,
            c.outcomes.transport,
            c.snap.admitted,
            c.snap.completed,
        ));
    }
    s
}

fn write_json(path: &str, cells: &[Cell], violations: &[String], workers: usize, smoke: bool) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut body = String::from("{\n");
    body.push_str("  \"schema\": \"csp-bench/serve/v4\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str(&format!("  \"host_threads\": {host},\n"));
    body.push_str(&format!("  \"workers\": {workers},\n"));
    body.push_str(&format!("  \"model\": \"{MODEL}\",\n"));
    body.push_str(&format!("  \"pass\": {},\n", violations.is_empty()));
    let listed: Vec<String> = violations
        .iter()
        .map(|v| format!("\"{}\"", escape(v)))
        .collect();
    body.push_str(&format!("  \"violations\": [{}],\n", listed.join(", ")));
    body.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"phase\": \"{}\", \"cell\": \"{}\", \"shards\": {}, \"max_batch\": {}, \
             \"max_wait_us\": {}, \"queue_cap\": {}, \"clients\": {}, \"requests\": {}, \
             \"admitted\": {}, \"completed\": {}, \"failed\": {}, \"shed\": {}, \
             \"expired\": {}, \"client_ok\": {}, \"client_shed\": {}, \
             \"client_expired\": {}, \"client_failed\": {}, \"client_transport\": {}}}{}\n",
            c.phase,
            escape(&c.label),
            c.shards,
            c.policy.max_batch,
            c.policy.max_wait.as_micros(),
            c.policy.queue_cap,
            c.clients,
            c.requests,
            c.snap.admitted,
            c.snap.completed,
            c.snap.failed,
            c.snap.shed,
            c.snap.expired,
            c.outcomes.ok,
            c.outcomes.shed,
            c.outcomes.expired,
            c.outcomes.failed,
            c.outcomes.transport,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    write_file(path, &body);
}

fn write_file(path: &str, body: &str) {
    if let Some(dir) = Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Every gate, over every cell. Returns violation messages.
fn check_invariants(cells: &[Cell]) -> Vec<String> {
    let mut bad = Vec::new();
    let tcp: Vec<&Cell> = cells.iter().filter(|c| c.phase == "tcp-open").collect();
    let tcp_completed: u64 = tcp.iter().map(|c| c.snap.completed).sum();
    let tcp_shed: u64 = tcp.iter().map(|c| c.snap.shed + c.snap.expired).sum();
    if tcp_completed < 100 {
        bad.push(format!(
            "tcp phase completed only {tcp_completed} requests (need >= 100)"
        ));
    }
    if tcp_shed != 0 {
        bad.push(format!("tcp phase shed {tcp_shed} requests at low load"));
    }
    for c in cells {
        let name = format!("{} cell {}", c.phase, c.label);
        // Every issued request landed in exactly one typed outcome
        // bucket — nothing was lost silently.
        if c.outcomes.total() != c.requests {
            bad.push(format!(
                "{name} lost requests: {} issued but {} typed outcomes",
                c.requests,
                c.outcomes.total()
            ));
        }
        // Engine-side accounting closure: everything admitted was
        // answered one way, nothing vanished.
        let answered = c.snap.completed + c.snap.failed + c.snap.expired;
        if c.snap.admitted != answered {
            bad.push(format!(
                "{name} leaks requests: admitted {} != completed {} + failed {} + expired {}",
                c.snap.admitted, c.snap.completed, c.snap.failed, c.snap.expired
            ));
        }
        // With no transport faults, the client-side ledger must agree
        // with the server's: replies from admitted requests on one side,
        // typed sheds on the other.
        if c.outcomes.transport == 0 {
            let replied = c.outcomes.ok + c.outcomes.failed + c.outcomes.expired;
            if replied != c.snap.admitted || c.outcomes.shed != c.snap.shed {
                bad.push(format!(
                    "{name} ledger mismatch: client saw {replied} replies + {} sheds, \
                     server admitted {} and shed {}",
                    c.outcomes.shed, c.snap.admitted, c.snap.shed
                ));
            }
        }
    }
    for c in cells
        .iter()
        .filter(|c| c.phase == "tcp-open" || c.phase == "execution")
    {
        let name = format!("{} cell {}", c.phase, c.label);
        if c.outcomes.errors() > 0 {
            bad.push(format!(
                "{name} saw {} client-side errors at benign load",
                c.outcomes.errors()
            ));
        }
        if c.snap.completed == 0 {
            bad.push(format!("{name} completed nothing"));
        } else {
            if c.snap.p50_us == 0 || c.snap.p99_us == 0 {
                bad.push(format!(
                    "{name} has zero latency percentiles (p50={}, p99={})",
                    c.snap.p50_us, c.snap.p99_us
                ));
            }
            if c.snap.batch_hist.iter().sum::<u64>() == 0 {
                bad.push(format!("{name} has an empty batch histogram"));
            }
        }
    }
    for c in cells.iter().filter(|c| c.phase == "tcp-deadline") {
        // The wire-level deadline must actually expire requests.
        if c.outcomes.expired == 0 || c.snap.expired == 0 {
            bad.push(format!(
                "tcp-deadline cell {} expired nothing (client={}, server={}) — wire \
                 deadline propagation inert",
                c.label, c.outcomes.expired, c.snap.expired
            ));
        }
        if c.outcomes.ok == 0 {
            bad.push(format!(
                "tcp-deadline cell {} completed nothing — budget-free requests must succeed",
                c.label
            ));
        }
        if c.outcomes.transport > 0 || c.outcomes.failed > 0 {
            bad.push(format!(
                "tcp-deadline cell {} saw non-deadline failures (failed={}, transport={})",
                c.label, c.outcomes.failed, c.outcomes.transport
            ));
        }
    }
    // The saturating rung must actually saturate: typed shed, no crash.
    for c in cells.iter().filter(|c| c.phase == "saturate") {
        if c.snap.shed == 0 {
            bad.push(format!(
                "saturate cell {} shed nothing unpaced (admission control inert)",
                c.label
            ));
        }
        if c.outcomes.ok == 0 {
            bad.push(format!(
                "saturate cell {} completed nothing under saturation",
                c.label
            ));
        }
    }
    bad
}

fn run(cli: &CommonCli, shards: usize) -> CspResult<Vec<Cell>> {
    let smoke = cli.smoke;
    let seed = cli.seed_or(2022);
    let workers = cli.threads.unwrap_or(2);
    let spec = ModelSpec::default();

    // Persist the artifact the way the pipeline does, then serve from disk.
    let dir = std::env::temp_dir().join(format!("csp-serve-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| CspError::Io {
        path: dir.display().to_string(),
        what: format!("create temp dir: {e}"),
    })?;
    let artifact: PathBuf = dir.join("model.cspio");
    write_with_history(&artifact, &prune_to_artifact(spec, 0.8), None)?;

    let benign = BatchPolicy {
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        queue_cap: 256,
    };
    let mut cells = Vec::new();

    // Phase 1: paced open loop over real TCP into a one-shard engine.
    let tcp_cfgs: &[(usize, usize, u64)] = if smoke {
        &[(4, 30, 1000)] // 4 conns × 30 reqs ≥ 100, 1 ms pace
    } else {
        &[(2, 100, 2000), (8, 100, 500)]
    };
    for &(conns, per_conn, pace_us) in tcp_cfgs {
        let pace = Duration::from_micros(pace_us);
        let mut cell = sharded_open_loop(
            "tcp-open",
            spec,
            &artifact,
            benign,
            1,
            workers,
            conns,
            per_conn,
            Some(pace),
            None,
            seed,
        )?;
        cell.label = format!("{conns}conn-pace{pace_us}us");
        cells.push(cell);
    }

    // Phase 2: every execution axis served from the same artifact by a
    // one-shard engine. Four blocking connections never fill the queue.
    let per_conn = if smoke { 25 } else { 100 };
    for execution in [Execution::Dense, Execution::Weaved, Execution::WeavedInt8] {
        let espec = ModelSpec { execution, ..spec };
        cells.push(sharded_open_loop(
            "execution",
            espec,
            &artifact,
            benign,
            1,
            workers,
            4,
            per_conn,
            None,
            None,
            seed,
        )?);
    }

    // Phase 3: unpaced TCP driven past its deadline budget — a slow
    // batcher (25 ms hold, 1 worker) against 1 ms budgets on every other
    // request.
    let td_per_conn = if smoke { 10 } else { 40 };
    let td_policy = BatchPolicy {
        max_wait: Duration::from_millis(25),
        ..benign
    };
    let budget = Duration::from_millis(1);
    let mut cell = sharded_open_loop(
        "tcp-deadline",
        spec,
        &artifact,
        td_policy,
        1,
        1,
        4,
        td_per_conn,
        None,
        Some(budget),
        seed,
    )?;
    cell.label = format!("hold25ms-budget{}ms", budget.as_millis());
    cells.push(cell);

    // Phase 4: the saturating rung at 1 shard and at `--shards N` —
    // unpaced requests from 16 connections into a deliberately small
    // queue, where admission control must shed, typed.
    let sat_policy = BatchPolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_cap: 4,
    };
    let sat_per_conn = if smoke { 25 } else { 100 };
    let mut shard_points = vec![1usize];
    if shards > 1 {
        shard_points.push(shards);
    }
    for engine_shards in shard_points {
        cells.push(sharded_open_loop(
            "saturate",
            spec,
            &artifact,
            sat_policy,
            engine_shards,
            workers,
            16,
            sat_per_conn,
            None,
            None,
            seed,
        )?);
    }

    let _ = std::fs::remove_dir_all(&dir);
    Ok(cells)
}

/// Driver-specific flags: `--shards N` (engine shards for the second
/// saturating rung, default 2).
fn parse_shards(rest: &[String]) -> Result<usize, String> {
    const USAGE: &str = "serve_bench [--smoke] [--json] [--threads N] [--out PATH] [--seed N] \
                         [--telemetry] [--shards N]";
    let mut shards = 2usize;
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--shards" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => shards = n,
                _ => return Err("--shards requires a positive integer".to_string()),
            },
            other => return Err(format!("unknown flag {other}; usage: {USAGE}")),
        }
    }
    Ok(shards)
}

fn main() -> ExitCode {
    let (cli, shards) = match CommonCli::parse().and_then(|cli| {
        let shards = parse_shards(&cli.rest)?;
        Ok((cli, shards))
    }) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let workers = cli.threads.unwrap_or(2);
    println!(
        "serve_bench: {} gates, {workers} engine workers, {shards} shards",
        if cli.smoke { "smoke" } else { "full" },
    );
    let cells = match run(&cli, shards) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("serve_bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let violations = check_invariants(&cells);

    let table = gate_table(&cells);
    print!("\n{table}");
    write_file(
        "results/serve_study.txt",
        &format!(
            "serve_bench gates: typed outcomes and request accounting over loopback TCP\n\n\
             {table}\n\
             outcome columns (ok/shed/expired/failed/io) are client-side typed replies;\n\
             admitted/completed are the engine's counters. Serving latency and\n\
             capacity are measured by perfbench's serve-lineup workload.\n"
        ),
    );
    if cli.json {
        write_json(
            cli.out_or("results/BENCH_serve.json"),
            &cells,
            &violations,
            workers,
            cli.smoke,
        );
    }

    cli.dump_telemetry("serve");

    if violations.is_empty() {
        println!("\nall serving invariants hold");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("INVARIANT VIOLATED: {v}");
        }
        ExitCode::FAILURE
    }
}
