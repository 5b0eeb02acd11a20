//! `serve-lineup`: an open loop over loopback TCP into `ShardedServer` →
//! `ShardedEngine`, serving the five zoo families at once, each on its own
//! execution axis.
//!
//! A forward pass of these models takes tens of microseconds, so the
//! front-end, the protocol, shard routing and the batcher do most of the
//! work: an event-loop or batcher change shows here, a compute change
//! should barely move it.

use crate::common::{
    self, bits, median, median_us, num, percentile, rank_value, Args, Ledger, Report,
};
use csp_core::ModelFamily;
use csp_nn::Sequential;
use csp_runtime::with_threads;
use csp_serve::protocol::{read_frame, write_frame, RequestV2, Response};
use csp_serve::testutil::{prune_to_artifact, sample_input};
use csp_serve::{
    BatchPolicy, Execution, LoadedModel, ModelRegistry, ModelSpec, PendingReply, ShardClient,
    ShardPolicy, ShardedEngine, ShardedServer,
};
use csp_telemetry::{names, Snapshot};
use csp_tensor::{CspError, CspResult, Tensor};
use rand::Rng;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const WORKERS: usize = 1;
const IO_SHARDS: usize = 1;
/// Total queue capacity, split evenly over the shards, so shard counts are
/// only ever compared at equal total capacity.
const QUEUE_CAP_TOTAL: usize = 4096;
const MAX_BATCH: usize = 8;
const MAX_WAIT: Duration = Duration::from_millis(1);
/// Generous per-request deadline: only a pathological stall expires one.
const DEADLINE_US: u64 = 5_000_000;
/// CSP pruning threshold multiplier of the served artifacts.
const PRUNE_Q: f32 = 0.8;
/// Distinct request inputs per model.
const INPUTS_PER_MODEL: usize = 16;
/// The capacity rule: a rung passes when no op failed, its p99 (timed
/// from when each request was due) stays under this limit — set above the
/// multi-millisecond stalls a shared VM host inflicts on any tail ...
const LATENCY_LIMIT_US: f64 = 100_000.0;
/// ... the generator ran no later than this at its p99 (otherwise the
/// client, not the server, was the bottleneck) ...
const LATE_LIMIT_US: f64 = 25_000.0;
/// ... and the backlog did not grow: the median latency of the rung's last
/// fifth of requests exceeds that of its first fifth by at most this.
const BACKLOG_GROWTH_LIMIT_US: f64 = 20_000.0;
/// The light rung, where latency is reported: light enough that queueing
/// behind other models' batch holds stays rare, so host slowdowns are not
/// amplified into it.
const LIGHT_RPS: f64 = 200.0;
/// The fixed ladder of offered rates after the light rung: each rung at
/// most 1.25× the one below it, finer near this host's saturation point.
const LADDER_RPS: &[f64] = &[
    1000.0, 1250.0, 1500.0, 1875.0, 2250.0, 2750.0, 3250.0, 3750.0, 4000.0, 4250.0, 4500.0, 4750.0,
    5000.0, 5250.0, 5500.0, 5750.0, 6000.0, 6250.0, 6500.0, 6750.0, 7000.0, 7500.0, 8000.0, 8500.0,
    9000.0, 10000.0, 11000.0, 12000.0,
];
/// Share of the run spent on the light rung, split into segments that
/// alternate with the fixed-load rungs.
const LIGHT_SHARE: f64 = 0.35;
const LIGHT_SEGMENTS: usize = 4;
/// The ladder rungs up to this rate make the fixed-load phase, which
/// every run offers in full: below saturation even while other guests
/// take half of the host. CPU time per request and the memory high-water
/// mark are taken over this phase; the rungs above it probe capacity,
/// whose wall-clock result moves with the host.
const FIXED_TOP_RPS: f64 = 3250.0;
/// Duration of each ladder rung.
const RUNG_SECONDS: f64 = 0.5;

/// The lineup: one zoo family per execution axis.
const ROSTER: [(ModelFamily, Execution); 5] = [
    (ModelFamily::Basic, Execution::Dense),
    (ModelFamily::AlexNet, Execution::Weaved),
    (ModelFamily::Vgg, Execution::WeavedInt8),
    (ModelFamily::ResNet, Execution::Weaved),
    (ModelFamily::Inception, Execution::WeavedInt8),
];

struct Model {
    name: String,
    spec: ModelSpec,
    bytes: Vec<u8>,
    /// `[c, h, w]` request samples.
    inputs: Vec<Tensor>,
    /// The serial in-process reply for each input, as raw bits.
    reference: Vec<Vec<u32>>,
}

struct Serving {
    engine: ShardedEngine,
    server: ShardedServer,
}

impl Serving {
    fn shutdown(self) -> CspResult<()> {
        self.server.shutdown(Duration::from_secs(10))?;
        self.engine.shutdown()
    }
}

/// One scheduled request: due offset from the rung start, model, input,
/// and its idempotency token. Tokens are unique per request, so routing
/// spreads over the hash ring and no reply is ever served from the
/// engine's dedup cache.
#[derive(Clone, Copy)]
struct Due {
    at: Duration,
    model: usize,
    input: usize,
    token: u64,
}

/// Poisson arrivals at `rps` for `seconds`, models split evenly.
fn schedule(seed: u64, rps: f64, seconds: f64) -> Vec<Due> {
    let mut rng = csp_nn::seeded_rng(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rps;
        if t >= seconds {
            return out;
        }
        let i = out.len();
        out.push(Due {
            at: Duration::from_secs_f64(t),
            model: i % ROSTER.len(),
            input: rng.gen_range(0..INPUTS_PER_MODEL),
            token: rng.gen::<u64>() | 1,
        });
    }
}

fn build_models(seed: u64) -> CspResult<Vec<Model>> {
    ROSTER
        .iter()
        .enumerate()
        .map(|(k, &(family, execution))| {
            let spec = ModelSpec {
                family,
                execution,
                seed: seed.wrapping_add(k as u64 * 0x9E37),
                ..ModelSpec::default()
            };
            let name = format!("{}-{}", family.name(), execution.name());
            let bytes = prune_to_artifact(spec, PRUNE_Q);
            let dims = spec.input_dims();
            let inputs: Vec<Tensor> = (0..INPUTS_PER_MODEL)
                .map(|i| {
                    let x = sample_input(spec, seed ^ ((k * 1000 + i) as u64 + 1), 1);
                    Tensor::from_vec(x.as_slice().to_vec(), &dims)
                })
                .collect::<Result<_, _>>()?;
            let mut net = LoadedModel::from_artifact_bytes(&name, spec, 1, &bytes)?.build()?;
            let reference = inputs
                .iter()
                .map(|x| -> CspResult<Vec<u32>> {
                    let x1 =
                        Tensor::from_vec(x.as_slice().to_vec(), &[1, dims[0], dims[1], dims[2]])?;
                    Ok(bits(
                        with_threads(1, || net.forward(&x1, false))?.as_slice(),
                    ))
                })
                .collect::<CspResult<_>>()?;
            Ok(Model {
                name,
                spec,
                bytes,
                inputs,
                reference,
            })
        })
        .collect()
}

fn start_serving(models: &[Model]) -> CspResult<Serving> {
    let engine = ShardedEngine::start(ShardPolicy {
        shards: SHARDS,
        workers: WORKERS,
        batch: BatchPolicy {
            max_batch: MAX_BATCH,
            max_wait: MAX_WAIT,
            queue_cap: QUEUE_CAP_TOTAL / SHARDS,
        },
        replicas: 32,
    })?;
    for m in models {
        engine.deploy(&m.name, m.spec, &m.bytes)?;
    }
    let server = ShardedServer::serve(engine.client(), "127.0.0.1:0", IO_SHARDS)?;
    Ok(Serving { engine, server })
}

/// What one rung measured.
#[derive(Default)]
struct Rung {
    rps: f64,
    ledger: Ledger,
    /// Latency from due time to reply, µs, ascending.
    latency: Vec<f64>,
    /// Generator lateness, µs, ascending.
    late: Vec<f64>,
    /// Completed requests per second, from the rung start to its last reply.
    achieved_rps: f64,
    /// Median latency of the last fifth of requests (in due order) minus
    /// that of the first fifth, µs.
    growth_us: f64,
    encode_ns: Vec<f64>,
    decode_ns: Vec<f64>,
    /// Process CPU time the rung took (server and client alike), s.
    cpu_s: f64,
    closes: bool,
    server: ServerDelta,
    /// The schedule the rung ran, so the traced run can replay it.
    plan: Vec<Due>,
}

impl Rung {
    fn passes(&self) -> bool {
        self.ledger.not_ok() == 0
            && self.closes
            && !self.latency.is_empty()
            && rank_value(&self.latency, 0.99) <= LATENCY_LIMIT_US
            && rank_value(&self.late, 0.99) <= LATE_LIMIT_US
            && self.growth_us <= BACKLOG_GROWTH_LIMIT_US
    }
}

/// Several segments of one rate taken as one rung (the light segments).
fn pooled(segments: &[Rung]) -> Rung {
    let mut out = Rung {
        rps: segments.first().map_or(0.0, |r| r.rps),
        closes: segments.iter().all(|r| r.closes),
        ..Rung::default()
    };
    for r in segments {
        out.ledger.add(&r.ledger);
        out.server = out.server.plus(&r.server);
        out.latency.extend(&r.latency);
        out.late.extend(&r.late);
        out.encode_ns.extend(&r.encode_ns);
        out.decode_ns.extend(&r.decode_ns);
    }
    out.latency = common::sorted(out.latency);
    out.late = common::sorted(out.late);
    out
}

/// Server counters over one rung.
#[derive(Default, Clone, Copy)]
struct ServerDelta {
    admitted: u64,
    completed: u64,
    failed: u64,
    expired: u64,
    shed: u64,
    batches: u64,
    shard_requests: [u64; SHARDS],
}

fn server_counters(snap: &Snapshot, models: &[Model]) -> ServerDelta {
    let sum = |name: &str| models.iter().map(|m| snap.counter(name, &m.name)).sum();
    let mut shard_requests = [0u64; SHARDS];
    for (s, r) in shard_requests.iter_mut().enumerate() {
        *r = snap.counter(names::SERVE_SHARD_REQUESTS, &format!("s{s}"));
    }
    ServerDelta {
        admitted: sum(names::SERVE_ADMITTED),
        completed: sum(names::SERVE_COMPLETED),
        failed: sum(names::SERVE_FAILED),
        expired: sum(names::SERVE_EXPIRED),
        shed: sum(names::SERVE_SHED),
        batches: sum(names::SERVE_BATCHES),
        shard_requests,
    }
}

impl ServerDelta {
    fn plus(&self, other: &ServerDelta) -> ServerDelta {
        let mut shard_requests = self.shard_requests;
        for (r, o) in shard_requests.iter_mut().zip(other.shard_requests) {
            *r += o;
        }
        ServerDelta {
            admitted: self.admitted + other.admitted,
            completed: self.completed + other.completed,
            failed: self.failed + other.failed,
            expired: self.expired + other.expired,
            shed: self.shed + other.shed,
            batches: self.batches + other.batches,
            shard_requests,
        }
    }

    fn since(&self, before: &ServerDelta) -> ServerDelta {
        let mut shard_requests = [0u64; SHARDS];
        for (s, r) in shard_requests.iter_mut().enumerate() {
            *r = self.shard_requests[s] - before.shard_requests[s];
        }
        ServerDelta {
            admitted: self.admitted - before.admitted,
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            expired: self.expired - before.expired,
            shed: self.shed - before.shed,
            batches: self.batches - before.batches,
            shard_requests,
        }
    }

    /// The client ledger must equal the server's, and the server's must
    /// close: `admitted = completed + failed + expired`.
    fn closes(&self, client: &Ledger, sent: u64) -> bool {
        client.attempted() == sent
            && client.transport == 0
            && self.admitted == self.completed + self.failed + self.expired
            && client.ok + client.mismatch == self.completed
            && client.failed == self.failed
            && client.expired == self.expired
            && client.shed == self.shed
    }

    fn json(&self) -> String {
        format!(
            "{{\"admitted\": {}, \"completed\": {}, \"failed\": {}, \"expired\": {}, \"shed\": {}, \"batches\": {}, \"shard_requests\": {:?}}}",
            self.admitted, self.completed, self.failed, self.expired, self.shed, self.batches, self.shard_requests
        )
    }
}

fn classify(ledger: &mut Ledger, result: &CspResult<Vec<f32>>, want: &[u32]) {
    match result {
        Ok(out) if bits(out) == want => ledger.ok += 1,
        Ok(_) => ledger.mismatch += 1,
        Err(CspError::Overloaded { .. }) => ledger.shed += 1,
        Err(CspError::Expired { .. }) => ledger.expired += 1,
        Err(CspError::Io { .. }) | Err(CspError::Corrupt { .. }) => ledger.transport += 1,
        Err(_) => ledger.failed += 1,
    }
}

/// Sleep until `at` (never spins: a spinning generator would steal one
/// of the host's cores from the server).
fn sleep_until(at: Instant) -> f64 {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
    Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6
}

fn io_err(what: String) -> CspError {
    CspError::Io {
        path: "perfbench-client".to_string(),
        what,
    }
}

/// One rung over TCP: one pipelined v2 connection, a paced writer thread
/// and a reader thread.
fn tcp_rung(addr: SocketAddr, models: &[Model], plan: &[Due], trace: bool) -> CspResult<Rung> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err(format!("connect: {e}")))?;
    stream
        .set_nodelay(true)
        .map_err(|e| io_err(format!("nodelay: {e}")))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| io_err(format!("read timeout: {e}")))?;
    let reader_stream = stream
        .try_clone()
        .map_err(|e| io_err(format!("clone: {e}")))?;
    let t0 = Instant::now() + Duration::from_millis(2);
    let (late, encode_ns, (ledger, latency, decode_ns, last)) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let mut r = BufReader::new(reader_stream);
            let mut ledger = Ledger::default();
            let mut latency = vec![f64::NAN; plan.len()];
            let mut decode_ns = Vec::new();
            let mut last = t0;
            for _ in 0..plan.len() {
                let frame = match read_frame(&mut r) {
                    Ok(Some(f)) => f,
                    _ => break,
                };
                let now = Instant::now();
                let resp = Response::decode_v2(&frame);
                if trace {
                    decode_ns.push(now.elapsed().as_secs_f64() * 1e9);
                }
                let Ok(resp) = resp else {
                    ledger.transport += 1;
                    continue;
                };
                let Some((i, due)) = usize::try_from(resp.id)
                    .ok()
                    .and_then(|i| plan.get(i).map(|d| (i, d)))
                else {
                    ledger.transport += 1;
                    continue;
                };
                let want = &models[due.model].reference[due.input];
                classify(&mut ledger, &resp.result.map(|r| r.output), want);
                latency[i] = now.saturating_duration_since(t0 + due.at).as_secs_f64() * 1e6;
                last = now;
            }
            // Replies that never came back are transport failures.
            ledger.transport += plan.len() as u64 - ledger.attempted();
            (ledger, latency, decode_ns, last)
        });
        let mut w = BufWriter::new(stream);
        let mut late = Vec::with_capacity(plan.len());
        let mut encode_ns = Vec::new();
        for (i, due) in plan.iter().enumerate() {
            late.push(sleep_until(t0 + due.at));
            let m = &models[due.model];
            let t = Instant::now();
            let payload = RequestV2 {
                token: due.token,
                id: i as u64,
                attempt: 0,
                model: m.name.clone(),
                deadline_us: DEADLINE_US,
                input: m.inputs[due.input].clone(),
            }
            .encode();
            if trace {
                encode_ns.push(t.elapsed().as_secs_f64() * 1e9);
            }
            if write_frame(&mut w, &payload).is_err() {
                break;
            }
        }
        let read = reader.join().expect("reader thread panicked");
        drop(w);
        (late, encode_ns, read)
    });
    let span = last.saturating_duration_since(t0).as_secs_f64();
    let fifth = latency.len() / 5;
    let answered = |v: &[f64]| {
        median(
            &v.iter()
                .copied()
                .filter(|x| x.is_finite())
                .collect::<Vec<_>>(),
        )
    };
    let growth_us = answered(&latency[latency.len() - fifth..]) - answered(&latency[..fifth]);
    Ok(Rung {
        achieved_rps: if span > 0.0 {
            ledger.ok as f64 / span
        } else {
            0.0
        },
        growth_us,
        ledger,
        latency: common::sorted(latency.into_iter().filter(|x| x.is_finite()).collect()),
        late: common::sorted(late),
        encode_ns,
        decode_ns,
        ..Rung::default()
    })
}

/// The same schedule straight into `ShardClient::submit_nowait`, without
/// the network: a paced submitter and a collector that waits the replies
/// in submission order. Tokens are re-salted so the replay never hits the
/// replies the TCP pass left in the dedup cache.
fn inproc_rung(client: &ShardClient, models: &[Model], plan: &[Due]) -> Rung {
    let t0 = Instant::now() + Duration::from_millis(2);
    let (tx, rx) = channel::<(usize, CspResult<PendingReply>)>();
    let (ledger, latency) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut ledger = Ledger::default();
            let mut latency = Vec::with_capacity(plan.len());
            for (i, pending) in rx {
                let due = plan[i];
                let result = pending.and_then(PendingReply::wait).map(|r| r.output);
                classify(
                    &mut ledger,
                    &result,
                    &models[due.model].reference[due.input],
                );
                latency.push(
                    Instant::now()
                        .saturating_duration_since(t0 + due.at)
                        .as_secs_f64()
                        * 1e6,
                );
            }
            (ledger, latency)
        });
        for (i, due) in plan.iter().enumerate() {
            sleep_until(t0 + due.at);
            let m = &models[due.model];
            let pending = client.submit_nowait(
                &m.name,
                &m.inputs[due.input],
                Some(Duration::from_micros(DEADLINE_US)),
                due.token ^ 0xFFFF_0000,
                i as u64,
            );
            if tx.send((i, pending)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    Rung {
        ledger,
        latency: common::sorted(latency),
        ..Rung::default()
    }
}

/// Run one TCP rung and reconcile its ledger with the server's counters.
fn measured_rung(
    serving: &Serving,
    models: &[Model],
    rps: f64,
    seconds: f64,
    seed: u64,
    trace: bool,
) -> CspResult<Rung> {
    let plan = schedule(seed, rps, seconds);
    let before = server_counters(&serving.engine.telemetry_snapshot(), models);
    let cpu0 = common::process_cpu_s();
    let mut rung = tcp_rung(serving.server.addr(), models, &plan, trace)?;
    rung.cpu_s = common::process_cpu_s() - cpu0;
    let after = server_counters(&serving.engine.telemetry_snapshot(), models);
    rung.rps = rps;
    rung.server = after.since(&before);
    rung.closes = rung.server.closes(&rung.ledger, plan.len() as u64);
    rung.plan = plan;
    Ok(rung)
}

/// Direct forward time of one model at batch `b`, µs (the engine's serial
/// kernel pool, its cached network).
fn forward_us(net: &mut Sequential, m: &Model, b: usize) -> CspResult<f64> {
    let [c, h, w] = m.spec.input_dims();
    let mut data = Vec::with_capacity(b * c * h * w);
    for i in 0..b {
        data.extend_from_slice(m.inputs[i % m.inputs.len()].as_slice());
    }
    let x = Tensor::from_vec(data, &[b, c, h, w])?;
    let mut err = None;
    let us = median_us(200, || {
        if let Err(e) = with_threads(1, || net.forward(&x, false)) {
            err = Some(e);
        }
    });
    err.map_or(Ok(us), |e| Err(e.into()))
}

fn setup(seed: u64) -> CspResult<(Vec<Model>, Serving)> {
    let models = build_models(seed)?;
    let serving = start_serving(&models)?;
    // Warm-up: every model, every input, through the real front-end.
    let warm = measured_rung(
        &serving,
        &models,
        LIGHT_RPS * 2.0,
        0.25,
        seed ^ 0xA11,
        false,
    )?;
    if warm.ledger.not_ok() != 0 || !warm.closes {
        return Err(CspError::Internal {
            what: format!("warm-up failed: {}", warm.ledger.json()),
        });
    }
    Ok((models, serving))
}

fn rung_detail(r: &Rung) -> String {
    format!(
        "{{\"rps\": {}, \"sent\": {}, \"ledger\": {}, \"server\": {}, \"closes\": {}, \"p50_us\": {}, \"p99_us\": {}, \"samples\": {}, \"late_p50_us\": {}, \"late_p99_us\": {}, \"growth_us\": {}, \"achieved_rps\": {}, \"passes\": {}}}",
        num(r.rps),
        r.ledger.attempted(),
        r.ledger.json(),
        r.server.json(),
        r.closes,
        num(rank_value(&r.latency, 0.5)),
        num(rank_value(&r.latency, 0.99)),
        r.latency.len(),
        num(rank_value(&r.late, 0.5)),
        num(rank_value(&r.late, 0.99)),
        num(r.growth_us),
        num(r.achieved_rps),
        r.passes()
    )
}

pub fn run(args: &Args, start: Instant, report: &mut Report) -> CspResult<()> {
    let (models, serving) =
        crate::setup_repeated(report, start, || setup(args.seed), |(_, s)| s.shutdown())?;
    for (k, v) in [
        ("config.shards", SHARDS.to_string()),
        ("config.workers_per_shard", WORKERS.to_string()),
        ("config.io_shards", IO_SHARDS.to_string()),
        ("config.queue_cap_total", QUEUE_CAP_TOTAL.to_string()),
        ("config.max_batch", MAX_BATCH.to_string()),
        ("config.max_wait_us", MAX_WAIT.as_micros().to_string()),
        ("config.latency_limit_us", num(LATENCY_LIMIT_US)),
        ("config.late_limit_us", num(LATE_LIMIT_US)),
        (
            "config.backlog_growth_limit_us",
            num(BACKLOG_GROWTH_LIMIT_US),
        ),
    ] {
        report.detail(k, v);
    }

    // Phase 1, fixed load: the light segments alternate with the ladder's
    // rungs up to FIXED_TOP_RPS, and every rung runs whatever it measures.
    let light_s = args.seconds * LIGHT_SHARE / LIGHT_SEGMENTS as f64;
    let light_seed = |i: usize| args.seed ^ (0x11 + i as u64);
    let rung_seed = |k: usize| args.seed ^ (k as u64 + 0x100);
    let mut lights: Vec<Rung> = Vec::new();
    let mut ladder: Vec<Rung> = Vec::new();
    let run_start = Instant::now();
    let fixed = LADDER_RPS.partition_point(|&r| r <= FIXED_TOP_RPS);
    for (k, &rps) in LADDER_RPS[..fixed].iter().enumerate() {
        if k % 2 == 0 && lights.len() < LIGHT_SEGMENTS {
            let seed = light_seed(lights.len());
            lights.push(measured_rung(
                &serving, &models, LIGHT_RPS, light_s, seed, args.trace,
            )?);
        }
        ladder.push(measured_rung(
            &serving,
            &models,
            rps,
            RUNG_SECONDS,
            rung_seed(k),
            args.trace,
        )?);
    }
    while lights.len() < LIGHT_SEGMENTS {
        let seed = light_seed(lights.len());
        lights.push(measured_rung(
            &serving, &models, LIGHT_RPS, light_s, seed, args.trace,
        )?);
    }
    // CPU time per request over the fixed rungs. The light segments stay
    // out: between their sparse requests the event loop's idle polling,
    // not the requests, is what burns CPU.
    let fixed_cpu_s: f64 = ladder.iter().map(|r| r.cpu_s).sum();
    let fixed_requests: u64 = ladder.iter().map(|r| r.ledger.attempted()).sum();
    let fixed_rss_mib = common::peak_rss_mib();

    // Phase 2, capacity: the ladder climbs on while the run lasts.
    let mut fails_in_a_row = ladder.iter().rev().take_while(|r| !r.passes()).count();
    for (k, &rps) in LADDER_RPS.iter().enumerate().skip(fixed) {
        // Three failing rungs in a row: past saturation, not a passing
        // stall of the host.
        if fails_in_a_row >= 3 || run_start.elapsed().as_secs_f64() + RUNG_SECONDS > args.seconds {
            break;
        }
        let rung = measured_rung(
            &serving,
            &models,
            rps,
            RUNG_SECONDS,
            rung_seed(k),
            args.trace,
        )?;
        fails_in_a_row = if rung.passes() { 0 } else { fails_in_a_row + 1 };
        ladder.push(rung);
    }

    let mut ledger = Ledger::default();
    for (kind, rungs) in [("light", &lights), ("ladder", &ladder)] {
        for (i, r) in rungs.iter().enumerate() {
            ledger.add(&r.ledger);
            report.check(
                format!("ledger closes on {kind} rung {i} ({} rps)", r.rps),
                r.closes,
            );
            report.detail(format!("{kind}.{i}"), rung_detail(r));
        }
    }
    report.ledger = ledger;
    // The highest rung that passes together with the rung below it (the
    // light rung below the first): near saturation a single rung passes or
    // fails by chance, two in a row do not. The light rung when none does.
    let top = (0..ladder.len())
        .rev()
        .find(|&i| ladder[i].passes() && (i == 0 || ladder[i - 1].passes()))
        .map(|i| &ladder[i])
        .or_else(|| lights.iter().find(|r| r.passes()));
    report.check("some rung meets the latency limit", top.is_some());
    let capacity = top.map_or(f64::NAN, |t| t.achieved_rps);
    report.detail(
        "capacity_rung_rps",
        top.map_or("null".to_string(), |t| num(t.rps)),
    );
    let light = pooled(&lights);
    report.percentile_detail("light.latency_p99_us", &light.latency, 0.99);
    let p50 = report
        .percentile_detail("light.latency_p50_us", &light.latency, 0.5)
        .unwrap_or(f64::NAN);

    report.metric(
        "cpu_us_per_op",
        fixed_cpu_s * 1e6 / fixed_requests.max(1) as f64,
        "us",
    );
    report.metric("peak_rss_mib", fixed_rss_mib, "MiB");
    report.detail("fixed.requests", fixed_requests.to_string());
    report.detail("fixed.cpu_s", num(fixed_cpu_s));
    // Also measured, but not end to end: the wall-clock capacity and
    // light-rung latency, and the whole run's memory high-water mark.
    report.detail("ops_per_s", num(capacity));
    report.detail("latency_p50_us", num(p50));
    report.detail("run.peak_rss_mib", num(common::peak_rss_mib()));
    if args.trace {
        traced(
            report,
            &models,
            &serving,
            &lights,
            top.unwrap_or(&lights[0]),
        )?;
    }
    serving.shutdown()
}

/// The traced run's layer metrics: per-model forward and load times, then
/// the light segments and the top passing rung replayed in-process.
fn traced(
    report: &mut Report,
    models: &[Model],
    serving: &Serving,
    lights: &[Rung],
    top: &Rung,
) -> CspResult<()> {
    let mut fwd = Vec::new();
    for m in models {
        let mut load_ms = Vec::new();
        for _ in 0..3 {
            let registry = ModelRegistry::new();
            let t = Instant::now();
            registry.load_from_bytes(&m.name, m.spec, &m.bytes)?;
            load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        report.metric(
            format!("registry.load_ms.{}", m.name),
            median(&load_ms),
            "ms",
        );
        let mut net = LoadedModel::from_artifact_bytes(&m.name, m.spec, 1, &m.bytes)?.build()?;
        let b1 = forward_us(&mut net, m, 1)?;
        let b8 = forward_us(&mut net, m, 8)?;
        report.metric(format!("nn.forward_us.{}.b1", m.name), b1, "us");
        report.metric(format!("nn.forward_us.{}.b8", m.name), b8, "us");
        fwd.push((b1, b8));
    }
    // Forward time at a mean batch size `b`, averaged over the even mix.
    let forward_at = |b: f64| {
        fwd.iter()
            .map(|(f1, f8)| f1 + (f8 - f1) * (b - 1.0).clamp(0.0, 7.0) / 7.0)
            .sum::<f64>()
            / fwd.len() as f64
    };

    let client = serving.engine.client();
    let light = pooled(lights);
    let light_inproc = pooled(
        &lights
            .iter()
            .map(|r| inproc_rung(&client, models, &r.plan))
            .collect::<Vec<_>>(),
    );
    let top_inproc = inproc_rung(&client, models, &top.plan);
    for (tag, tcp, inproc) in [("light", &light, light_inproc), ("top", top, top_inproc)] {
        report.check(
            format!("in-process {tag} rung answers every request with the reference bits"),
            inproc.ledger.not_ok() == 0,
        );
        let tcp_p50 = rank_value(&tcp.latency, 0.5);
        let eng_p50 = rank_value(&inproc.latency, 0.5);
        let d = &tcp.server;
        let mean_batch = if d.batches > 0 {
            d.completed as f64 / d.batches as f64
        } else {
            f64::NAN
        };
        let forward = forward_at(mean_batch);
        let net_overhead = tcp_p50 - eng_p50;
        let wait = eng_p50 - forward;
        report.metric(format!("net.overhead_us.p50.{tag}"), net_overhead, "us");
        report.metric(format!("engine.latency_us.p50.{tag}"), eng_p50, "us");
        report.metric(
            format!("engine.latency_us.p99.{tag}"),
            percentile(&inproc.latency, 0.99).unwrap_or(f64::NAN),
            "us",
        );
        report.metric(format!("batch.wait_us.p50.{tag}"), wait, "us");
        report.metric(format!("batch.size_mean.{tag}"), mean_batch, "count");
        let admitted = d.admitted.max(1) as f64;
        report.metric(
            format!("batch.shed_ratio.{tag}"),
            d.shed as f64 / admitted,
            "ratio",
        );
        report.metric(
            format!("batch.expired_ratio.{tag}"),
            d.expired as f64 / admitted,
            "ratio",
        );
        let mean_req = d.shard_requests.iter().sum::<u64>() as f64 / SHARDS as f64;
        let max_req = d.shard_requests.iter().copied().max().unwrap_or(0) as f64;
        report.metric(
            format!("shard.imbalance.{tag}"),
            max_req / mean_req.max(1.0),
            "ratio",
        );
        report.metric(
            format!("protocol.encode_ns.{tag}"),
            median(&tcp.encode_ns),
            "ns",
        );
        report.metric(
            format!("protocol.decode_ns.{tag}"),
            median(&tcp.decode_ns),
            "ns",
        );
        report.metric(
            format!("gen.late_us.p99.{tag}"),
            rank_value(&tcp.late, 0.99),
            "us",
        );
        report.metric(format!("rung_rps.{tag}"), tcp.rps, "1/s");
        report.detail(format!("trace.{tag}.inproc"), rung_detail(&inproc));
        if tag == "light" {
            // Net overhead + batch wait + forward time account for the
            // client p50 by construction; what can fail is a component
            // going negative (a direct forward slower than the engine's
            // whole latency, or TCP faster than in-process).
            let tol = crate::RECONCILE_TOLERANCE * tcp_p50;
            report.check(
                "light rung: net overhead + batch wait + forward reconcile with the client p50",
                net_overhead >= -tol && wait >= -tol && forward >= 0.0,
            );
            report.detail(
                "reconcile.serve_lineup.light",
                format!(
                    "{{\"client_p50_us\": {}, \"net_us\": {}, \"batch_wait_us\": {}, \"forward_us\": {}, \"tolerance\": {}}}",
                    num(tcp_p50), num(net_overhead), num(wait), num(forward), num(crate::RECONCILE_TOLERANCE)
                ),
            );
        }
    }
    Ok(())
}

/// This workload's per-layer metrics.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (family, execution) in ROSTER {
        let name = format!("{}-{}", family.name(), execution.name());
        out.push((format!("registry.load_ms.{name}"), "ms"));
        out.push((format!("nn.forward_us.{name}.b1"), "us"));
        out.push((format!("nn.forward_us.{name}.b8"), "us"));
    }
    for tag in ["light", "top"] {
        for (metric, unit) in [
            ("net.overhead_us.p50", "us"),
            ("engine.latency_us.p50", "us"),
            ("engine.latency_us.p99", "us"),
            ("batch.wait_us.p50", "us"),
            ("batch.size_mean", "count"),
            ("batch.shed_ratio", "ratio"),
            ("batch.expired_ratio", "ratio"),
            ("shard.imbalance", "ratio"),
            ("protocol.encode_ns", "ns"),
            ("protocol.decode_ns", "ns"),
            ("gen.late_us.p99", "us"),
            ("rung_rps", "1/s"),
        ] {
            out.push((format!("{metric}.{tag}"), unit));
        }
    }
    out
}
