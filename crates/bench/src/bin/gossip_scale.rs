//! Gossip-overlay dissemination trajectory: weighted Bracha riding
//! [`OverlayNode`] versus the full-mesh flood yardstick, across
//! substrates (`BENCH_gossip.json`, schema `swiper-bench-gossip/v1`).
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
//! covers fresh schedules; `--diff` gates the covered rows against a
//! committed baseline via `diff_gossip_rows`, which also holds every
//! fresh row to the reach-100% and beats-the-flood invariants. Threaded
//! cells additionally assert the message conservation law
//! `total == delivered + dropped`, and any twin divergence fails the run
//! on its own, baseline or not.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use swiper_bench::{
    diff_gossip_rows, parse_gossip_json, render_gossip_json, GossipBenchRow, TextTable,
};
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

fn desend<M>(nodes: SendNodes<M>) -> Vec<Box<dyn Protocol<Msg = M>>> {
    nodes.into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect()
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

#[allow(clippy::too_many_arguments)]
fn row_from(
    backend: &str,
    substrate: &str,
    n: usize,
    seed: u64,
    wall_ms: u64,
    reached: usize,
    metrics: &Metrics,
    stats: &OverlayStats,
) -> GossipBenchRow {
    let msgs = metrics.total_messages();
    let deliveries = stats.deliveries.max(1);
    GossipBenchRow {
        bench: "gossip_scale".into(),
        backend: backend.into(),
        substrate: substrate.into(),
        n: n as u64,
        seed,
        wall_ms,
        reach_pct: (reached * 100 / n) as u64,
        rounds: u64::from(stats.max_hops),
        msgs,
        deliveries: stats.deliveries,
        msgs_per_delivery_x100: msgs * 100 / deliveries,
        bytes_per_delivery: metrics.total_bytes() / deliveries,
        baseline_msgs_per_delivery: n as u64,
        mean_degree_x100: (stats.mean_degree() * 100.0).round() as u64,
        p50_us: 0,
        p95_us: 0,
        p99_us: 0,
        twin_ok: 1,
    }
}

/// One seeded simulator cell: deterministic counters, no latency axis.
fn run_sim_cell(backend: &str, n: usize, seed: u64) -> GossipBenchRow {
    let cfg = config_for(backend, n);
    let stats = Arc::new(Mutex::new(OverlayStats::default()));
    let t0 = Instant::now();
    let report = Simulation::new(desend(fleet(n, seed, &cfg, Some(&stats))), seed)
        .with_delay(DelayModel::Uniform(1, 20))
        .with_max_events(400_000_000)
        .run();
    let wall_ms = t0.elapsed().as_millis() as u64;
    let reached = report.outputs.iter().filter(|o| o.as_deref() == Some(PAYLOAD)).count();
    let s = stats.lock().expect("sim is single-threaded");
    row_from(backend, "sim", n, seed, wall_ms, reached, &report.metrics, &s)
}

/// One threaded-runtime cell: latency percentiles and the twin verdict.
/// Timers are scaled ×500 because the runtime clock ticks microseconds
/// where the simulator ticks abstract units.
fn run_threaded_cell(substrate: &str, n: usize, seed: u64, workers: usize) -> GossipBenchRow {
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
    // Conservation law: every sent message is delivered or drop-accounted.
    assert_eq!(
        full.report.metrics.total_messages(),
        full.report.metrics.delivered_messages() + full.dropped,
        "gossip_scale: {substrate} n={n} seed={seed}: message conservation violated"
    );
    let reached = full.report.outputs.iter().filter(|o| o.as_deref() == Some(PAYLOAD)).count();
    let twin_ok = full
        .trace
        .replay(desend(fleet(n, seed, &cfg, None)))
        .map(|r| r.outputs == full.report.outputs && r.metrics == full.report.metrics)
        .unwrap_or(false);
    let s = stats.lock().expect("workers joined");
    let mut row =
        row_from("overlay", substrate, n, seed, wall_ms, reached, &full.report.metrics, &s);
    row.p50_us = full.latency.p50_us;
    row.p95_us = full.latency.p95_us;
    row.p99_us = full.latency.p99_us;
    row.twin_ok = u64::from(twin_ok);
    row
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gossip_scale: {e}");
            return ExitCode::FAILURE;
        }
    };

    // (backend, n, seed, slow): slow cells are dropped under --ci-smoke.
    let sim_cells: &[(&str, usize, u64, bool)] = &[
        ("overlay", 64, 1, false),
        ("overlay", 256, 7, false),
        ("overlay", 1024, 7, true),
        ("fullmesh", 64, 1, false),
        ("fullmesh", 256, 7, true),
    ];
    let mut rows = Vec::new();
    if !args.threaded_only {
        for &(backend, n, seed, slow) in sim_cells {
            if slow && args.ci_smoke {
                continue;
            }
            rows.push(run_sim_cell(backend, n, seed));
        }
    }
    // --seed perturbs the runtime cells (soak mode); 0 keeps the
    // baseline identities.
    rows.push(run_threaded_cell("threaded", 24, 5 + args.seed * 101, 4));
    rows.push(run_threaded_cell("socket", 16, 8 + args.seed * 101, 3));

    let mut table = TextTable::new(vec![
        "backend",
        "substrate",
        "n",
        "seed",
        "wall_ms",
        "reach%",
        "rounds",
        "msgs",
        "msgs/delivery",
        "bytes/delivery",
        "flood baseline",
        "degree",
        "p99_us",
        "twin",
    ]);
    for r in &rows {
        table.row(vec![
            r.backend.clone(),
            r.substrate.clone(),
            r.n.to_string(),
            r.seed.to_string(),
            r.wall_ms.to_string(),
            r.reach_pct.to_string(),
            r.rounds.to_string(),
            r.msgs.to_string(),
            format!("{:.2}", r.msgs_per_delivery()),
            r.bytes_per_delivery.to_string(),
            r.baseline_msgs_per_delivery.to_string(),
            format!("{:.2}", r.mean_degree_x100 as f64 / 100.0),
            r.p99_us.to_string(),
            if r.twin_ok == 1 { "ok".into() } else { "DIVERGED".to_string() },
        ]);
    }
    print!("{}", table.render());

    std::fs::write(&args.out, render_gossip_json(&rows)).expect("write benchmark file");
    println!("wrote {}", args.out);

    // The fresh-row invariants (reach 100%, overlay beats the flood at
    // n ≥ 256) are checked even without a baseline: diff against empty.
    let mut baseline = Vec::new();
    let mut baseline_path = String::from("(none)");
    if let Some(path) = &args.diff {
        let doc = std::fs::read_to_string(path).expect("read baseline");
        baseline = match parse_gossip_json(&doc) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("gossip_scale: baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        baseline_path = path.clone();
    }
    // Gate only the cells this sweep covered, so --ci-smoke can diff
    // against the committed full sweep.
    let covered: Vec<GossipBenchRow> =
        baseline.into_iter().filter(|b| rows.iter().any(|r| r.key() == b.key())).collect();
    let problems = diff_gossip_rows(&covered, &rows, 20);
    for p in &problems {
        eprintln!("gossip_scale: REGRESSION: {p}");
    }
    let twins_ok = rows.iter().all(|r| r.twin_ok == 1);
    if !twins_ok {
        eprintln!("gossip_scale: twin replay DIVERGED — the determinism contract is broken");
    }
    if problems.is_empty() && twins_ok {
        println!("diff vs {baseline_path}: clean ({} rows)", covered.len());
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
