//! serve_bench — load generator for the `csp-serve` batched inference
//! engine.
//!
//! Usage: `serve_bench [--smoke] [--json] [--threads N] [--out PATH]
//! [--seed N] [--shards N]`
//!
//! Six phases:
//!
//! 1. **Closed loop, in-process** — sweep batch policy × concurrent
//!    clients; each client issues its next request the moment the
//!    previous one completes, so throughput is bounded by service time.
//! 2. **Open loop, real TCP** — a one-shard engine behind the
//!    `ShardedServer` event loop on an ephemeral loopback port; paced
//!    connections offer a fixed load regardless of completions.
//! 3. **Execution sweep** — the same closed-loop load served dense, weaved
//!    (f32 early-stop from the compressed layout), and weaved-int8, so
//!    `BENCH_serve.json` carries measured rows per execution backend.
//! 4. **TCP deadline** — unpaced TCP pushed past its deadline budget: a
//!    slow batcher (long `max_wait`) fed wire requests whose budgets are
//!    far below the batch hold time must answer them as typed `Expired`
//!    over the socket, never executing them late.
//! 5. **Overload sweep** — an open-loop offered-rate ladder over the
//!    sharded event-loop front-end, run once at 1 engine shard and once
//!    at `--shards N` (default 2), ending in an unpaced saturating rung
//!    into a small queue where admission control must shed. Maps the
//!    latency/throughput/shed frontier and pins the request accounting
//!    closed at every rung.
//! 6. **Lineup** — every model-zoo family deployed concurrently on one
//!    sharded engine, each family on its own execution axis (dense /
//!    weaved / weaved-int8), all served at once over the same sockets.
//!
//! Every client-side reply is classified into a typed outcome — ok /
//! shed (`Overloaded`) / expired (`Expired`) / failed (other engine
//! errors) / transport (`Io`/`Corrupt` socket faults) — so the study
//! separates load shedding from real failures.
//!
//! `--smoke` shrinks the sweep for CI but still pushes ≥ 100 requests
//! through the real TCP path and verifies the smoke invariants (zero shed
//! at low load, nonzero latency percentiles, populated batch histogram,
//! nonzero shed at the saturating rung, nonzero expired in the TCP
//! deadline phase, exactly one typed outcome per request), exiting
//! nonzero on violation.
//! `--json` additionally writes `results/BENCH_serve.json`; the study
//! table always goes to stdout and `results/serve_study.txt`.

use csp_bench::cli::CommonCli;
use csp_core::ModelFamily;
use csp_io::write_with_history;
use csp_serve::testutil::{prune_to_artifact, sample_input};
use csp_serve::{
    BatchPolicy, Engine, Execution, ModelRegistry, ModelSpec, ShardPolicy, ShardedEngine,
    ShardedServer, StatsSnapshot, TcpClient,
};
use csp_tensor::{CspError, CspResult, Tensor};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// One measured cell of the sweep.
struct Cell {
    phase: &'static str,
    label: String,
    policy: BatchPolicy,
    /// Engine shards behind this cell (1 = the unsharded engine).
    shards: usize,
    clients: usize,
    offered_rps: Option<f64>,
    requests: u64,
    outcomes: Outcomes,
    wall_s: f64,
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

/// Write the artifact crash-safely and load it back through the registry
/// (the same path a deployment takes).
fn registry_from_disk(spec: ModelSpec, path: &Path) -> CspResult<Arc<ModelRegistry>> {
    let registry = Arc::new(ModelRegistry::new());
    registry.load_from_path(MODEL, spec, path)?;
    Ok(registry)
}

/// Closed loop: `clients` threads, each issuing `per_client` back-to-back
/// requests in-process.
fn closed_loop(
    spec: ModelSpec,
    artifact: &Path,
    policy: BatchPolicy,
    workers: usize,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> CspResult<Cell> {
    let engine = Engine::start(registry_from_disk(spec, artifact)?, policy, workers)?;
    let samples = request_pool(spec, seed);
    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let client = engine.client();
            let samples = samples.clone();
            std::thread::spawn(move || {
                let mut outcomes = Outcomes::default();
                for i in 0..per_client {
                    let x = &samples[(t + i) % samples.len()];
                    outcomes.record(&client.infer(MODEL, x, None));
                }
                outcomes
            })
        })
        .collect();
    let mut outcomes = Outcomes::default();
    for h in handles {
        outcomes.merge(h.join().unwrap_or_default());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let snap = engine.stats(MODEL);
    engine.shutdown()?;
    Ok(Cell {
        phase: "closed",
        label: format!("b{}w{}ms", policy.max_batch, policy.max_wait.as_millis()),
        policy,
        shards: 1,
        clients,
        offered_rps: None,
        requests: (clients * per_client) as u64,
        outcomes,
        wall_s,
        snap,
    })
}

/// Open loop over real TCP: `conns` persistent connections against the
/// sharded event-loop front-end, each paced to a fixed offered rate — or
/// unpaced (`pace == None`), the saturating rung where admission control
/// must shed. With a `budget`, every other request carries it as its
/// deadline (the budget-free half must complete).
#[allow(clippy::too_many_arguments)]
fn sharded_open_loop(
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
    let start = Instant::now();
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
    let wall_s = start.elapsed().as_secs_f64();
    let snap = sharded.stats(MODEL);
    server.shutdown(Duration::from_secs(10))?;
    sharded.shutdown()?;
    let offered = pace.map(|p| conns as f64 / p.as_secs_f64().max(1e-9));
    Ok(Cell {
        phase: "overload-sweep",
        label: match offered {
            Some(r) => format!("s{shards}@{r:.0}rps"),
            None => format!("s{shards}@max"),
        },
        policy,
        shards,
        clients: conns,
        offered_rps: offered,
        requests: (conns * per_conn) as u64,
        outcomes,
        wall_s,
        snap,
    })
}

/// The multi-model lineup, one family per execution axis.
fn lineup_roster() -> [(ModelFamily, Execution); 5] {
    [
        (ModelFamily::Basic, Execution::Dense),
        (ModelFamily::AlexNet, Execution::Weaved),
        (ModelFamily::Vgg, Execution::WeavedInt8),
        (ModelFamily::ResNet, Execution::Weaved),
        (ModelFamily::Inception, Execution::WeavedInt8),
    ]
}

/// Lineup phase: every zoo family deployed on **one** sharded engine,
/// each on its own execution axis, all served concurrently over the same
/// event-loop front-end. One cell per model, measured while the other
/// four are under load.
fn lineup(shards: usize, workers: usize, per_conn: usize, seed: u64) -> CspResult<Vec<Cell>> {
    let policy = BatchPolicy {
        max_batch: 8,
        max_wait: Duration::from_millis(1),
        queue_cap: 256,
    };
    let sharded = ShardedEngine::start(ShardPolicy {
        shards,
        workers,
        batch: policy,
        replicas: 32,
    })?;
    let roster = lineup_roster();
    for (family, execution) in roster {
        let spec = ModelSpec {
            family,
            execution,
            ..ModelSpec::default()
        };
        sharded.deploy(family.name(), spec, &prune_to_artifact(spec, 0.8))?;
    }
    let server = ShardedServer::serve(sharded.client(), "127.0.0.1:0", 2)?;
    let addr = server.addr();

    // Two connections per family, all live at once, so every model is
    // measured while the other four are being served.
    let start = Instant::now();
    let conns_per_model = 2usize;
    let handles: Vec<_> = roster
        .iter()
        .flat_map(|&(family, execution)| {
            (0..conns_per_model).map(move |t| {
                let spec = ModelSpec {
                    family,
                    execution,
                    ..ModelSpec::default()
                };
                let samples = request_pool(spec, seed);
                std::thread::spawn(move || -> Result<Outcomes, CspError> {
                    let mut tcp = TcpClient::connect(&addr)?;
                    let mut outcomes = Outcomes::default();
                    for i in 0..per_conn {
                        let x = &samples[(t + i) % samples.len()];
                        outcomes.record(&tcp.infer(family.name(), x, None));
                    }
                    Ok(outcomes)
                })
            })
        })
        .collect();
    let mut per_model = vec![Outcomes::default(); roster.len()];
    for (j, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Ok(o)) => per_model[j / conns_per_model].merge(o),
            _ => per_model[j / conns_per_model].transport += per_conn as u64,
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cells = roster
        .iter()
        .zip(per_model)
        .map(|(&(family, execution), outcomes)| Cell {
            phase: "lineup",
            label: format!("{}-{}", family.name(), execution.name()),
            policy,
            shards,
            clients: conns_per_model,
            offered_rps: None,
            requests: (conns_per_model * per_conn) as u64,
            outcomes,
            wall_s,
            snap: sharded.stats(family.name()),
        })
        .collect();
    server.shutdown(Duration::from_secs(10))?;
    sharded.shutdown()?;
    Ok(cells)
}

fn study_table(cells: &[Cell]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<10} {:<20} {:>4} {:>8} {:>9} {:>6} {:>7} {:>6} {:>5} {:>8} {:>9} {:>9} {:>7}\n",
        "phase",
        "cell",
        "cli",
        "requests",
        "ok",
        "shed",
        "expired",
        "failed",
        "io",
        "qps",
        "p50(us)",
        "p99(us)",
        "batch"
    ));
    for c in cells {
        s.push_str(&format!(
            "{:<10} {:<20} {:>4} {:>8} {:>9} {:>6} {:>7} {:>6} {:>5} {:>8.0} {:>9} {:>9} {:>7.2}\n",
            c.phase,
            c.label,
            c.clients,
            c.requests,
            c.outcomes.ok,
            c.outcomes.shed,
            c.outcomes.expired,
            c.outcomes.failed,
            c.outcomes.transport,
            c.snap.qps,
            c.snap.p50_us,
            c.snap.p99_us,
            c.snap.mean_batch(),
        ));
    }
    s
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn write_json(path: &str, cells: &[Cell], workers: usize, shards: usize, smoke: bool) {
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut body = String::from("{\n");
    body.push_str("  \"schema\": \"csp-bench/serve/v3\",\n");
    body.push_str(&format!("  \"smoke\": {smoke},\n"));
    body.push_str(&format!("  \"host_threads\": {host},\n"));
    body.push_str(&format!("  \"workers\": {workers},\n"));
    body.push_str(&format!("  \"shards\": {shards},\n"));
    body.push_str(&format!("  \"model\": \"{}\",\n", json_escape(MODEL)));
    body.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let hist = c
            .snap
            .batch_hist
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        body.push_str(&format!(
            "    {{\"phase\": \"{}\", \"cell\": \"{}\", \"shards\": {}, \"max_batch\": {}, \
             \"max_wait_us\": {}, \"queue_cap\": {}, \"clients\": {}, \
             \"offered_rps\": {}, \"requests\": {}, \"completed\": {}, \
             \"failed\": {}, \"shed\": {}, \"expired\": {}, \
             \"client_ok\": {}, \"client_shed\": {}, \"client_expired\": {}, \
             \"client_failed\": {}, \"client_transport\": {}, \"client_errors\": {}, \
             \"wall_s\": {:.4}, \"qps\": {:.2}, \"p50_us\": {}, \"p95_us\": {}, \
             \"p99_us\": {}, \"max_us\": {}, \"mean_batch\": {:.3}, \
             \"batch_hist\": [{}]}}{}\n",
            c.phase,
            json_escape(&c.label),
            c.shards,
            c.policy.max_batch,
            c.policy.max_wait.as_micros(),
            c.policy.queue_cap,
            c.clients,
            c.offered_rps
                .map(|r| format!("{r:.1}"))
                .unwrap_or_else(|| "null".to_string()),
            c.requests,
            c.snap.completed,
            c.snap.failed,
            c.snap.shed,
            c.snap.expired,
            c.outcomes.ok,
            c.outcomes.shed,
            c.outcomes.expired,
            c.outcomes.failed,
            c.outcomes.transport,
            c.outcomes.errors(),
            c.wall_s,
            c.snap.qps,
            c.snap.p50_us,
            c.snap.p95_us,
            c.snap.p99_us,
            c.snap.max_us,
            c.snap.mean_batch(),
            hist,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    body.push_str("  ]\n}\n");
    if let Some(dir) = Path::new(path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// The smoke invariants the CI gate checks. Returns violation messages.
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
        // Accounting: every issued request landed in exactly one typed
        // outcome bucket — nothing was lost silently.
        if c.outcomes.total() != c.requests {
            bad.push(format!(
                "cell {} lost requests: {} issued but {} typed outcomes",
                c.label,
                c.requests,
                c.outcomes.total()
            ));
        }
    }
    for c in cells
        .iter()
        .filter(|c| c.phase == "closed" || c.phase == "tcp-open")
    {
        if c.snap.completed > 0 && (c.snap.p50_us == 0 || c.snap.p99_us == 0) {
            bad.push(format!(
                "cell {} has zero latency percentiles (p50={}, p99={})",
                c.label, c.snap.p50_us, c.snap.p99_us
            ));
        }
        if c.snap.completed > 0 && c.snap.batch_hist.iter().sum::<u64>() == 0 {
            bad.push(format!("cell {} has an empty batch histogram", c.label));
        }
        if c.outcomes.errors() > 0 {
            bad.push(format!(
                "cell {} saw {} client-side errors at benign load",
                c.label,
                c.outcomes.errors()
            ));
        }
    }
    for c in cells.iter().filter(|c| c.phase == "execution") {
        // Every execution backend serves the benign closed loop cleanly.
        if c.outcomes.errors() > 0 {
            bad.push(format!(
                "execution cell {} saw {} client-side errors at benign load",
                c.label,
                c.outcomes.errors()
            ));
        }
        if c.snap.completed == 0 {
            bad.push(format!("execution cell {} completed nothing", c.label));
        }
    }
    for c in cells.iter().filter(|c| c.phase == "tcp-deadline") {
        // The wire-level deadline point must actually expire requests —
        // the open-loop phase driven past its budget.
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
    for c in cells.iter().filter(|c| c.phase == "overload-sweep") {
        // Engine-side accounting closure at every rung of the frontier:
        // everything admitted was answered one way, nothing vanished.
        if c.snap.admitted != c.snap.completed + c.snap.failed + c.snap.expired {
            bad.push(format!(
                "overload-sweep cell {} leaks requests: admitted {} != \
                 completed {} + failed {} + expired {}",
                c.label, c.snap.admitted, c.snap.completed, c.snap.failed, c.snap.expired
            ));
        }
        // With no transport faults, the client-side ledger must agree
        // with the server's: replies from admitted requests on one side,
        // typed sheds on the other.
        if c.outcomes.transport == 0 {
            let replied = c.outcomes.ok + c.outcomes.failed + c.outcomes.expired;
            if replied != c.snap.admitted || c.outcomes.shed != c.snap.shed {
                bad.push(format!(
                    "overload-sweep cell {} ledger mismatch: client saw \
                     {replied} replies + {} sheds, server admitted {} and shed {}",
                    c.label, c.outcomes.shed, c.snap.admitted, c.snap.shed
                ));
            }
        }
    }
    // The saturating rung must actually saturate: typed shed, no crash.
    for c in cells
        .iter()
        .filter(|c| c.phase == "overload-sweep" && c.offered_rps.is_none())
    {
        if c.snap.shed == 0 {
            bad.push(format!(
                "overload-sweep cell {} shed nothing unpaced (admission control inert)",
                c.label
            ));
        }
        if c.outcomes.ok == 0 {
            bad.push(format!(
                "overload-sweep cell {} completed nothing under saturation",
                c.label
            ));
        }
    }
    for c in cells.iter().filter(|c| c.phase == "lineup") {
        // Every zoo family in the lineup is actually served, cleanly,
        // while the other four are under load.
        if c.snap.completed == 0 {
            bad.push(format!("lineup cell {} completed nothing", c.label));
        }
        if c.outcomes.errors() > 0 {
            bad.push(format!(
                "lineup cell {} saw {} client-side errors at benign load",
                c.label,
                c.outcomes.errors()
            ));
        }
        if c.snap.admitted != c.snap.completed + c.snap.failed + c.snap.expired {
            bad.push(format!(
                "lineup cell {} leaks requests: admitted {} != answered {}",
                c.label,
                c.snap.admitted,
                c.snap.completed + c.snap.failed + c.snap.expired
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

    let mut cells = Vec::new();

    // Phase 1: closed loop, batch policy × clients.
    let policies: &[(usize, u64)] = if smoke {
        &[(1, 0), (8, 2)]
    } else {
        &[(1, 0), (4, 1), (8, 2)]
    };
    let client_counts: &[usize] = if smoke { &[4] } else { &[1, 4, 16] };
    let per_client = if smoke { 40 } else { 150 };
    for &(max_batch, wait_ms) in policies {
        for &clients in client_counts {
            let policy = BatchPolicy {
                max_batch,
                max_wait: Duration::from_millis(wait_ms),
                queue_cap: 256,
            };
            cells.push(closed_loop(
                spec, &artifact, policy, workers, clients, per_client, seed,
            )?);
        }
    }

    // Phase 2: paced open loop over real TCP into a one-shard engine.
    let tcp_cfgs: &[(usize, usize, u64)] = if smoke {
        &[(4, 30, 1000)] // 4 conns × 30 reqs ≥ 100, 1 ms pace
    } else {
        &[(2, 100, 2000), (8, 100, 500)]
    };
    for &(conns, per_conn, pace_us) in tcp_cfgs {
        let policy = BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            queue_cap: 256,
        };
        let pace = Duration::from_micros(pace_us);
        let mut cell = sharded_open_loop(
            spec,
            &artifact,
            policy,
            1,
            workers,
            conns,
            per_conn,
            Some(pace),
            None,
            seed,
        )?;
        cell.phase = "tcp-open";
        cell.label = format!(
            "b{}w{}ms@{:.0}rps",
            policy.max_batch,
            policy.max_wait.as_millis(),
            conns as f64 / pace.as_secs_f64()
        );
        cells.push(cell);
    }

    // Phase 3: execution sweep — the same closed-loop load served by
    // each execution backend, from the same artifact on disk.
    let (ex_clients, ex_per_client) = if smoke { (4, 25) } else { (4, 100) };
    for execution in [Execution::Dense, Execution::Weaved, Execution::WeavedInt8] {
        let espec = ModelSpec { execution, ..spec };
        let policy = BatchPolicy {
            max_batch: 8,
            max_wait: Duration::from_millis(1),
            queue_cap: 256,
        };
        let mut cell = closed_loop(
            espec,
            &artifact,
            policy,
            workers,
            ex_clients,
            ex_per_client,
            seed,
        )?;
        cell.phase = "execution";
        cell.label = execution.name().to_string();
        cells.push(cell);
    }

    // Phase 4: unpaced TCP driven past its deadline budget — a slow
    // batcher (25 ms hold, 1 worker) against 1 ms budgets on every other
    // request. The budgeted half must come back as typed `Expired`
    // frames, never executed late; the budget-free half must complete.
    let (td_conns, td_per_conn) = if smoke { (4, 10) } else { (4, 40) };
    let td_policy = BatchPolicy {
        max_batch: 8,
        max_wait: Duration::from_millis(25),
        queue_cap: 256,
    };
    let budget = Duration::from_millis(1);
    let mut cell = sharded_open_loop(
        spec,
        &artifact,
        td_policy,
        1,
        1,
        td_conns,
        td_per_conn,
        None,
        Some(budget),
        seed,
    )?;
    cell.phase = "tcp-deadline";
    cell.label = format!("hold25ms-budget{}ms", budget.as_millis());
    cells.push(cell);

    // Phase 5: overload sweep — the offered-rate ladder over the sharded
    // front-end, once at 1 shard and once at `--shards N`, each ending in
    // an unpaced saturating rung against a deliberately small queue.
    let sweep_policy = BatchPolicy {
        max_batch: 4,
        max_wait: Duration::from_millis(2),
        queue_cap: 4,
    };
    let rates: &[f64] = if smoke {
        &[200.0]
    } else {
        &[200.0, 500.0, 1000.0, 2000.0]
    };
    let conns = 8usize;
    let cell_secs = if smoke { 0.4 } else { 1.0 };
    let mut shard_points = vec![1usize];
    if shards > 1 {
        shard_points.push(shards);
    }
    for &engine_shards in &shard_points {
        for &rate in rates {
            let pace = Duration::from_secs_f64(conns as f64 / rate);
            let per_conn = ((rate * cell_secs / conns as f64).ceil() as usize).max(5);
            cells.push(sharded_open_loop(
                spec,
                &artifact,
                sweep_policy,
                engine_shards,
                workers,
                conns,
                per_conn,
                Some(pace),
                None,
                seed,
            )?);
        }
        // The saturating rung: unpaced back-to-back requests from twice
        // the connections — admission control must shed, typed.
        let max_per_conn = if smoke { 25 } else { 100 };
        cells.push(sharded_open_loop(
            spec,
            &artifact,
            sweep_policy,
            engine_shards,
            workers,
            conns * 2,
            max_per_conn,
            None,
            None,
            seed,
        )?);
    }

    // Phase 6: the multi-model lineup on one sharded engine.
    let lu_per_conn = if smoke { 15 } else { 60 };
    cells.extend(lineup(shards, workers, lu_per_conn, seed)?);

    let _ = std::fs::remove_dir_all(&dir);
    Ok(cells)
}

/// Driver-specific flags: `--shards N` (engine shards for the overload
/// sweep and lineup phases, default 2).
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

    println!(
        "serve_bench: {} sweep, {} engine workers, {} shards",
        if cli.smoke { "smoke" } else { "full" },
        cli.threads.unwrap_or(2),
        shards
    );
    let cells = match run(&cli, shards) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("serve_bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let table = study_table(&cells);
    print!("\n{table}");
    let study_path = "results/serve_study.txt";
    if let Some(dir) = Path::new(study_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let mut study = String::from("serve_bench study: batched serving under load\n\n");
    study.push_str(&table);
    study.push_str(
        "\nphases: closed = in-process closed loop; tcp-open = paced open loop over\n\
         loopback TCP into a one-shard engine;\n\
         execution = closed loop per execution backend (dense / weaved / weaved-int8);\n\
         tcp-deadline = unpaced TCP with 1 ms budgets on every other request against\n\
         a 25 ms batch hold (expired expected);\n\
         overload-sweep = offered-rate ladder over the sharded event-loop front-end\n\
         at 1 vs N engine shards, ending in an unpaced saturating rung into a\n\
         cap-4 queue (shed expected);\n\
         lineup = every zoo family concurrently on one sharded engine, each on its\n\
         own execution axis.\n\
         outcome columns (ok/shed/expired/failed/io) are client-side typed replies.\n",
    );
    // The frontier headline: sharded vs single-engine throughput at the
    // saturating rung, reported honestly (measured, not gated).
    let rung = |want: bool| {
        cells.iter().find(|c| {
            c.phase == "overload-sweep" && c.offered_rps.is_none() && (c.shards > 1) == want
        })
    };
    if let (Some(single), Some(multi)) = (rung(false), rung(true)) {
        study.push_str(&format!(
            "\noverload sweep @max: single-shard {:.0} qps ({} shed) vs {}-shard {:.0} qps ({} shed)\n",
            single.snap.qps, single.snap.shed, multi.shards, multi.snap.qps, multi.snap.shed
        ));
    }
    match std::fs::write(study_path, &study) {
        Ok(()) => println!("wrote {study_path}"),
        Err(e) => eprintln!("failed to write {study_path}: {e}"),
    }

    if cli.json {
        write_json(
            cli.out_or("results/BENCH_serve.json"),
            &cells,
            cli.threads.unwrap_or(2),
            shards,
            cli.smoke,
        );
    }

    cli.dump_telemetry("serve");

    let violations = check_invariants(&cells);
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
