//! Gossip-overlay dissemination trajectory: weighted Bracha riding
//! [`OverlayNode`] versus the full-mesh flood yardstick, across
//! substrates (`BENCH_gossip.json`, schema table `swiper_bench::GOSSIP`).
//!
//! Simulator cells sweep n ∈ {64, 256, 1024} with seeded delay schedules
//! and record reach, rounds-to-full-delivery (max eager hops), total
//! messages, and messages and bytes per unique first-receipt delivery —
//! msgs/delivery is the economy figure the overlay must keep strictly
//! below the n²-flood baseline of `n` at n ≥ 256. The `fullmesh` cells
//! run the *same* machinery with every peer in the active view (eager
//! push to everyone = reliable flooding), so the comparison holds the
//! workload, the repair path and the deliveries semantics fixed and
//! varies only the view.
//! Threaded cells drive the overlay on the [`ThreadedRuntime`] (channel
//! and loopback-TCP socket transports) with timers scaled to the
//! microsecond clock, recording latency percentiles and the
//! determinism-twin verdict.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin gossip_scale -- \
//!     [--ci-smoke] [--threaded-only] [--seed S] [--out PATH] [--diff BASELINE]
//! ```
//!
//! `--ci-smoke` drops the n=1024 overlay cell and the n=256 fullmesh cell
//! (the two slow ones); `--threaded-only` runs just the runtime cells
//! (the nightly soak mode) and `--seed` perturbs their seeds so the soak
//! covers fresh schedules; `--diff` gates the planned cells against a
//! committed baseline. Baseline or not, every fresh row is held to
//! `swiper_bench::gossip_invariants` (reach 100%, overlay beats the
//! flood), threaded cells assert the message conservation law
//! `total == delivered + dropped`, and any twin divergence fails the run.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use swiper_bench::{gate, gossip_invariants, twin_ok, Row, GOSSIP};
use swiper_core::Weights;
use swiper_net::{
    DelayModel, Metrics, OverlayCodec, OverlayConfig, OverlayMsg, OverlayNode, OverlayStats,
    Protocol, SendNodes, Simulation, SocketTransport, ThreadedRuntime,
};
use swiper_protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode};
use swiper_protocols::wire::BrachaCodec;

const PAYLOAD: &[u8] = b"gossip_scale payload";

struct Args {
    ci_smoke: bool,
    threaded_only: bool,
    seed: u64,
    out: String,
    diff: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ci_smoke: false,
        threaded_only: false,
        seed: 0,
        out: "BENCH_gossip.json".into(),
        diff: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--ci-smoke" => args.ci_smoke = true,
            "--threaded-only" => args.threaded_only = true,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => args.out = value("--out")?,
            "--diff" => args.diff = Some(value("--diff")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Skewed-but-bounded stake: every party holds between 1 and 97.
fn stake(n: usize) -> Weights {
    Weights::new((0..n as u64).map(|p| 1 + (p * 7919) % 97).collect()).expect("positive stake")
}

/// Weighted Bracha (node 0 the sender) wrapped in the overlay; the shared
/// stats block is attached only when measuring (twin replays run bare so
/// they do not double-count).
fn fleet(
    n: usize,
    seed: u64,
    cfg: &OverlayConfig,
    stats: Option<&Arc<Mutex<OverlayStats>>>,
) -> SendNodes<OverlayMsg<BrachaMsg>> {
    let weights = stake(n);
    (0..n)
        .map(|me| {
            let config = BrachaConfig::weighted(weights.clone());
            let inner: Box<dyn Protocol<Msg = BrachaMsg> + Send> = if me == 0 {
                Box::new(BrachaNode::sender(config, 0, PAYLOAD.to_vec()))
            } else {
                Box::new(BrachaNode::new(config, 0))
            };
            let mut node = OverlayNode::new(inner, weights.clone(), cfg.clone(), seed);
            if let Some(s) = stats {
                node = node.with_stats(Arc::clone(s));
            }
            Box::new(node) as _
        })
        .collect()
}

/// Overlay config for a backend: `fullmesh` pins every peer into the
/// active view and disables pruning, turning eager push into reliable
/// n²-flooding — the measured baseline.
fn config_for(backend: &str, n: usize) -> OverlayConfig {
    match backend {
        "fullmesh" => {
            OverlayConfig { active_degree: n - 1, prune: false, ..OverlayConfig::default() }
        }
        _ => OverlayConfig::default(),
    }
}

/// The identity of one sweep cell.
fn cell(backend: &str, substrate: &str, n: usize, seed: u64) -> Row {
    Row::default()
        .with("bench", "gossip_scale")
        .with("backend", backend)
        .with("substrate", substrate)
        .with("n", n as u64)
        .with("seed", seed)
}

/// The columns every substrate measures.
fn row_from(
    cell: Row,
    wall_ms: u64,
    outputs: &[Option<Vec<u8>>],
    metrics: &Metrics,
    stats: &OverlayStats,
) -> Row {
    let n = outputs.len();
    let reached = outputs.iter().filter(|o| o.as_deref() == Some(PAYLOAD)).count();
    let msgs = metrics.total_messages();
    let deliveries = stats.deliveries.max(1);
    cell.with("wall_ms", wall_ms)
        .with("reach_pct", (reached * 100 / n) as u64)
        .with("rounds", u64::from(stats.max_hops))
        .with("msgs", msgs)
        .with("deliveries", stats.deliveries)
        .with("msgs_per_delivery_x100", msgs * 100 / deliveries)
        .with("payload_msgs_per_delivery_x100", stats.eager_sent * 100 / deliveries)
        .with("bytes_per_delivery", metrics.total_bytes() / deliveries)
        .with("baseline_msgs_per_delivery", n as u64)
        .with("mean_degree_x100", (stats.mean_degree() * 100.0).round() as u64)
}

/// One seeded simulator cell: deterministic counters; no latency axis and
/// no twin, so the row carries neither.
fn run_sim_cell(backend: &str, n: usize, seed: u64) -> Row {
    let cfg = config_for(backend, n);
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let t0 = Instant::now();
    let nodes = fleet(n, seed, &cfg, Some(&stats)).into_iter().map(|b| b as _).collect();
    let report = Simulation::new(nodes, seed)
        .with_delay(DelayModel::Uniform(1, 20))
        .with_max_events(400_000_000)
        .run();
    let wall_ms = t0.elapsed().as_millis() as u64;
    let s = stats.lock().expect("sim is single-threaded");
    row_from(cell(backend, "sim", n, seed), wall_ms, &report.outputs, &report.metrics, &s)
}

/// One threaded-runtime cell: latency percentiles and the twin verdict.
/// Timers are scaled ×500 because the runtime clock ticks microseconds
/// where the simulator ticks abstract units.
fn run_threaded_cell(substrate: &str, n: usize, seed: u64, workers: usize) -> Row {
    let cfg = OverlayConfig::default().scaled_by(500);
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let t0 = Instant::now();
    let full = if substrate == "socket" {
        let transport: SocketTransport<OverlayMsg<BrachaMsg>, OverlayCodec<BrachaCodec>> =
            SocketTransport::loopback(n).expect("loopback sockets");
        ThreadedRuntime::new(fleet(n, seed, &cfg, Some(&stats)))
            .with_transport(transport)
            .with_workers(workers)
            .run_traced()
    } else {
        ThreadedRuntime::new(fleet(n, seed, &cfg, Some(&stats)))
            .with_workers(workers)
            .run_traced()
    };
    let wall_ms = t0.elapsed().as_millis().max(1) as u64;
    let metrics = &full.report.metrics;
    // Conservation law: every sent message is delivered or drop-accounted.
    assert_eq!(
        metrics.total_messages(),
        metrics.delivered_messages() + full.dropped,
        "gossip_scale: {substrate} n={n} seed={seed}: message conservation violated"
    );
    let s = stats.lock().expect("workers joined");
    row_from(cell("overlay", substrate, n, seed), wall_ms, &full.report.outputs, metrics, &s)
        .with("p50_us", full.latency.p50_us)
        .with("p95_us", full.latency.p95_us)
        .with("p99_us", full.latency.p99_us)
        .with("twin_ok", u64::from(twin_ok(&full, fleet(n, seed, &cfg, None))))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gossip_scale: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The cells are planned before anything runs (`Schema::scoped`).
    // (backend, n, seed, slow): slow cells are dropped under --ci-smoke.
    let sim_cells: Vec<(&str, usize, u64, bool)> = [
        ("overlay", 64, 1, false),
        ("overlay", 256, 7, false),
        ("overlay", 1024, 7, true),
        ("fullmesh", 64, 1, false),
        ("fullmesh", 256, 7, true),
    ]
    .into_iter()
    .filter(|&(.., slow)| !(args.threaded_only || slow && args.ci_smoke))
    .collect();
    // (substrate, n, seed, workers): --seed perturbs the runtime cells
    // (soak mode); 0 keeps the baseline identities.
    let threaded_cells =
        [("threaded", 24, 5 + args.seed * 101, 4), ("socket", 16, 8 + args.seed * 101, 3)];
    let mut planned: Vec<Row> =
        sim_cells.iter().map(|&(backend, n, seed, _)| cell(backend, "sim", n, seed)).collect();
    planned
        .extend(threaded_cells.iter().map(|&(sub, n, seed, _)| cell("overlay", sub, n, seed)));

    let mut rows: Vec<Row> =
        sim_cells.iter().map(|&(backend, n, seed, _)| run_sim_cell(backend, n, seed)).collect();
    rows.extend(
        threaded_cells.iter().map(|&(sub, n, seed, w)| run_threaded_cell(sub, n, seed, w)),
    );
    gate(&GOSSIP, &rows, &args.out, args.diff.as_deref(), &planned, gossip_invariants(&rows))
}
