//! Threaded-runtime scaling sweep — the deployed-seam benchmark
//! trajectory (`BENCH_runtime.json`).
//!
//! For each protocol chain ∈ {bracha, aba, smr} × population size ×
//! worker-thread count, the driver runs the *same automata the simulator
//! tests* on the [`ThreadedRuntime`], measures commit throughput,
//! delivered-message throughput and send→process latency percentiles, and
//! replays the recorded delivery trace on the simulator substrate — every
//! cell carries a `twin_ok` flag and the binary exits non-zero if any
//! replay diverges (the determinism-twin contract, see
//! `docs/ARCHITECTURE.md`).
//!
//! * **bracha** — reliable broadcast of a large seeded payload: it ships
//!   once per receiver and is hashed once per node, every vote is a
//!   33-byte digest message, so the cell times the runtime's fan-out of
//!   `n` large sends and `2n²` small ones.
//! * **aba** — binary agreement with split inputs; threshold-coin crypto
//!   per round.
//! * **smr** — a round-pipelined ledger ([`SmrNode`]); commits/sec is the
//!   pipeline's end-to-end rate.
//!
//! The columns of `BENCH_runtime.json` and how each is gated are the
//! `swiper_bench::RUNTIME` schema table.
//!
//! ```text
//! cargo run --release -p swiper-bench --bin runtime_scale -- \
//!     [--ci-smoke] [--out PATH] [--diff BASELINE] [--seed S]
//! ```
//!
//! `--ci-smoke` runs a reduced sweep (one population per chain, fewer
//! worker counts) for the nightly soak; `--diff` compares against a
//! committed baseline, scoped to the cells this sweep planned, and exits
//! non-zero on any regression.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_bench::{current_rss_kb, gate, peak_rss_kb, twin_ok, Row, RUNTIME};
use swiper_core::Weights;
use swiper_net::{
    MessageSize, RunReport, SendNodes, SocketTransport, ThreadedRuntime, WireCodec,
};
use swiper_protocols::aba::{AbaNode, AbaSetup};
use swiper_protocols::bracha::{BrachaConfig, BrachaNode};
use swiper_protocols::smr::SmrNode;
use swiper_protocols::wire::{AbaCodec, BrachaCodec, SmrCodec};

/// Rounds of the SMR pipeline per run.
const SMR_ROUNDS: u64 = 30;
/// SMR batch size in bytes.
const SMR_BATCH: usize = 4096;
/// Bracha payload size in bytes (cloned per receiver by the sender's one
/// broadcast, hashed once per node on arrival).
const BRACHA_PAYLOAD: usize = 32 * 1024;

struct Args {
    ci_smoke: bool,
    out: String,
    diff: Option<String>,
    seed: u64,
    /// Transport backends to sweep: `channel`, `socket`, or both.
    transports: Vec<&'static str>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ci_smoke: false,
        out: "BENCH_runtime.json".into(),
        diff: None,
        seed: 1,
        transports: vec!["channel", "socket"],
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value =
            |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--ci-smoke" => args.ci_smoke = true,
            "--out" => args.out = value("--out")?,
            "--diff" => args.diff = Some(value("--diff")?),
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--transport" => {
                args.transports = match value("--transport")?.as_str() {
                    "channel" => vec!["channel"],
                    "socket" => vec!["socket"],
                    "both" => vec!["channel", "socket"],
                    other => {
                        return Err(format!(
                            "--transport: `{other}` (want channel, socket or both)"
                        ))
                    }
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// The identity of one sweep cell.
fn cell(protocol: &str, transport: &str, n: usize, workers: usize) -> Row {
    Row::default()
        .with("bench", "runtime_scale")
        .with("protocol", protocol)
        .with("transport", transport)
        .with("n", n as u64)
        .with("workers", workers as u64)
}

/// Runs one sweep cell: the chain on the threaded runtime over the given
/// transport backend, then the twin replay on fresh automata from the same
/// constructors.
fn run_cell<M, F, C, K>(cell: Row, n: usize, workers: usize, make: F, commits_of: K) -> Row
where
    M: Clone + MessageSize + Send + 'static,
    F: Fn() -> SendNodes<M>,
    C: WireCodec<M> + Default,
    K: Fn(&RunReport) -> u64,
{
    let runtime = ThreadedRuntime::new(make()).with_workers(workers);
    let full = if cell.text("transport") == Some("socket") {
        let wire: SocketTransport<M, C> =
            SocketTransport::loopback(n).expect("bind loopback sockets");
        runtime.with_transport(wire).run_traced()
    } else {
        runtime.run_traced()
    };
    // RSS at quiescence: the runtime has joined its workers and the trace
    // is fully materialized, so `VmRSS` here is the footprint this cell
    // actually held — sampled before the twin replay allocates its own
    // copy.
    let rss_kb = match current_rss_kb() {
        0 => peak_rss_kb(),
        kb => kb,
    };
    let commits = commits_of(&full.report);
    let wall_us = full.wall.as_micros().max(1) as u64;
    let msgs = full.report.metrics.delivered_messages();
    let per_sec = |count: u64| count.saturating_mul(1_000_000) / wall_us;
    let row = cell
        .with("wall_ms", wall_us / 1000)
        .with("commits", commits)
        .with("commits_per_sec", per_sec(commits))
        .with("msgs", msgs)
        .with("msgs_per_sec", per_sec(msgs))
        .with("p50_us", full.latency.p50_us)
        .with("p95_us", full.latency.p95_us)
        .with("p99_us", full.latency.p99_us)
        .with("peak_rss_kb", rss_kb)
        .with("twin_ok", u64::from(twin_ok(&full, make())));
    match std::thread::available_parallelism() {
        Ok(cores) => row.with("cores", cores.get() as u64),
        Err(_) => row,
    }
}

fn bracha_nodes(n: usize, seed: u64) -> SendNodes<swiper_protocols::bracha::BrachaMsg> {
    let mut rng = StdRng::seed_from_u64(seed);
    let payload: Vec<u8> = (0..BRACHA_PAYLOAD).map(|_| rng.random::<u8>()).collect();
    (0..n)
        .map(|me| {
            if me == 0 {
                Box::new(BrachaNode::sender(BrachaConfig::nominal(n), 0, payload.clone())) as _
            } else {
                Box::new(BrachaNode::new(BrachaConfig::nominal(n), 0)) as _
            }
        })
        .collect()
}

fn aba_nodes(n: usize, seed: u64) -> SendNodes<swiper_protocols::aba::AbaMsg> {
    let setup = AbaSetup::nominal(n, 0, &mut StdRng::seed_from_u64(seed));
    (0..n).map(|me| Box::new(AbaNode::new(setup.clone(), me % 2 == 0)) as _).collect()
}

fn smr_nodes(n: usize, seed: u64) -> SendNodes<swiper_protocols::smr::SmrMsg> {
    // Mildly skewed stake so the leader schedule is genuinely weighted.
    let weights = Weights::new((0..n).map(|p| 10 + (p as u64 % 7)).collect()).expect("n > 0");
    (0..n)
        .map(|me| Box::new(SmrNode::new(me, weights.clone(), seed, SMR_ROUNDS, SMR_BATCH)) as _)
        .collect()
}

/// Nodes that produced an output (delivered / decided).
fn outputs_count(report: &RunReport) -> u64 {
    report.outputs.iter().filter(|o| o.is_some()).count() as u64
}

/// Sum of committed rounds across SMR replicas (first 8 output bytes).
fn smr_commits(report: &RunReport) -> u64 {
    report
        .outputs
        .iter()
        .flatten()
        .map(|out| u64::from_le_bytes(out[..8].try_into().expect("8-byte count prefix")))
        .sum()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("runtime_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    let worker_counts: &[usize] = if args.ci_smoke { &[1, 2] } else { &[1, 2, 4] };
    let bracha_sizes: &[usize] = if args.ci_smoke { &[16] } else { &[16, 32] };
    let aba_sizes: &[usize] = if args.ci_smoke { &[8] } else { &[8, 16] };
    let smr_sizes: &[usize] = if args.ci_smoke { &[8] } else { &[8, 16] };

    // The cells are planned before anything runs (`Schema::scoped`).
    let mut plan = Vec::new();
    for &transport in &args.transports {
        for (protocol, sizes) in
            [("bracha", bracha_sizes), ("aba", aba_sizes), ("smr", smr_sizes)]
        {
            for &n in sizes {
                for &w in worker_counts.iter().filter(|&&w| w <= n) {
                    plan.push((protocol, transport, n, w));
                }
            }
        }
    }
    let planned: Vec<Row> = plan.iter().map(|&(p, t, n, w)| cell(p, t, n, w)).collect();
    let run = |&(protocol, transport, n, w): &(&str, &str, usize, usize)| {
        let (cell, seed) = (cell(protocol, transport, n, w), args.seed);
        match protocol {
            "bracha" => run_cell::<_, _, BrachaCodec, _>(
                cell,
                n,
                w,
                || bracha_nodes(n, seed),
                outputs_count,
            ),
            "aba" => {
                run_cell::<_, _, AbaCodec, _>(cell, n, w, || aba_nodes(n, seed), outputs_count)
            }
            _ => run_cell::<_, _, SmrCodec, _>(cell, n, w, || smr_nodes(n, seed), smr_commits),
        }
    };
    let rows: Vec<Row> = plan.iter().map(run).collect();
    gate(&RUNTIME, &rows, &args.out, args.diff.as_deref(), &planned, Vec::new())
}
