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
//! `commits` (protocol progress at quiescence) is schedule-independent
//! and regression-gated exactly, as is `twin_ok`; wall time is gated with
//! 20% tolerance above the 250 ms floor; message counts, latency and RSS
//! are informational (see `swiper_bench::diff_runtime_rows`).
//!
//! ```text
//! cargo run --release -p swiper-bench --bin runtime_scale -- \
//!     [--ci-smoke] [--out PATH] [--diff BASELINE] [--seed S]
//! ```
//!
//! `--ci-smoke` runs a reduced sweep (one population per chain, fewer
//! worker counts) for the nightly soak; `--diff` compares against a
//! committed baseline, restricted to the cells the current sweep covers,
//! and exits non-zero on any regression.

use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swiper_bench::{
    current_rss_kb, diff_runtime_rows, parse_runtime_json, peak_rss_kb, render_runtime_json,
    RuntimeBenchRow, TextTable,
};
use swiper_core::Weights;
use swiper_net::{
    MessageSize, Protocol, RunReport, SendNodes, SocketTransport, ThreadedRuntime, WireCodec,
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

/// Runs one sweep cell: the chain on the threaded runtime over the given
/// transport backend, then the twin replay. Returns the row plus whether
/// the twin held.
fn run_cell<M, F, C, K>(
    protocol: &str,
    transport: &str,
    n: usize,
    workers: usize,
    make: F,
    commits_of: K,
) -> (RuntimeBenchRow, bool)
where
    M: Clone + MessageSize + Send + 'static,
    F: Fn() -> SendNodes<M>,
    C: WireCodec<M> + Default,
    K: Fn(&RunReport) -> u64,
{
    let runtime = ThreadedRuntime::new(make()).with_workers(workers);
    let full = if transport == "socket" {
        let wire: SocketTransport<M, C> =
            SocketTransport::loopback(n).expect("bind loopback sockets");
        runtime.with_transport(wire).run_traced()
    } else {
        runtime.run_traced()
    };
    // RSS at quiescence: the runtime has joined its workers and the trace
    // is fully materialized, so `VmRSS` here is the footprint this cell
    // actually held — sampled before the twin replay allocates its own
    // copy. `VmHWM`-delta attribution degenerates to 0 for any cell that
    // fits inside an earlier cell's peak; the quiescent sample (with the
    // process peak as a non-Linux-safe fallback) is nonzero for every
    // row.
    let rss_kb = match current_rss_kb() {
        0 => peak_rss_kb(),
        kb => kb,
    };
    // The twin: fresh automata, same constructors, replayed on the
    // simulator substrate. Outputs and metrics must match bit for bit.
    let fresh: Vec<Box<dyn Protocol<Msg = M>>> =
        make().into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect();
    let twin_ok = match full.trace.replay(fresh) {
        Ok(r) => {
            let ok = r.outputs == full.report.outputs && r.metrics == full.report.metrics;
            if !ok {
                eprintln!(
                    "runtime_scale: {protocol}/{transport}/n={n}/w={workers}: twin replay \
                           ran but outputs or metrics differ"
                );
            }
            ok
        }
        Err(e) => {
            eprintln!("runtime_scale: {protocol}/{transport}/n={n}/w={workers}: {e}");
            false
        }
    };
    let commits = commits_of(&full.report);
    let wall_us = full.wall.as_micros().max(1) as u64;
    let msgs = full.report.metrics.delivered_messages();
    let per_sec = |count: u64| count.saturating_mul(1_000_000) / wall_us;
    let row = RuntimeBenchRow {
        bench: "runtime_scale".into(),
        protocol: protocol.into(),
        transport: transport.into(),
        n: n as u64,
        workers: workers as u64,
        wall_ms: wall_us / 1000,
        commits,
        commits_per_sec: per_sec(commits),
        msgs,
        msgs_per_sec: per_sec(msgs),
        p50_us: full.latency.p50_us,
        p95_us: full.latency.p95_us,
        p99_us: full.latency.p99_us,
        peak_rss_kb: rss_kb,
        twin_ok: u64::from(twin_ok),
    };
    (row, twin_ok)
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

    let mut rows = Vec::new();
    let mut all_twins_ok = true;
    let sweep = |rows: &mut Vec<RuntimeBenchRow>, ok: &mut bool, transport: &str| {
        for &n in bracha_sizes {
            for &w in worker_counts.iter().filter(|&&w| w <= n) {
                let (row, twin) = run_cell::<_, _, BrachaCodec, _>(
                    "bracha",
                    transport,
                    n,
                    w,
                    || bracha_nodes(n, args.seed),
                    outputs_count,
                );
                rows.push(row);
                *ok &= twin;
            }
        }
        for &n in aba_sizes {
            for &w in worker_counts.iter().filter(|&&w| w <= n) {
                let (row, twin) = run_cell::<_, _, AbaCodec, _>(
                    "aba",
                    transport,
                    n,
                    w,
                    || aba_nodes(n, args.seed),
                    outputs_count,
                );
                rows.push(row);
                *ok &= twin;
            }
        }
        for &n in smr_sizes {
            for &w in worker_counts.iter().filter(|&&w| w <= n) {
                let (row, twin) = run_cell::<_, _, SmrCodec, _>(
                    "smr",
                    transport,
                    n,
                    w,
                    || smr_nodes(n, args.seed),
                    smr_commits,
                );
                rows.push(row);
                *ok &= twin;
            }
        }
    };
    for transport in &args.transports {
        sweep(&mut rows, &mut all_twins_ok, transport);
    }

    let mut table = TextTable::new(vec![
        "protocol",
        "transport",
        "n",
        "workers",
        "wall_ms",
        "commits",
        "commits/s",
        "msgs",
        "msgs/s",
        "p50_us",
        "p95_us",
        "p99_us",
        "twin",
    ]);
    for r in &rows {
        table.row(vec![
            r.protocol.clone(),
            r.transport.clone(),
            r.n.to_string(),
            r.workers.to_string(),
            r.wall_ms.to_string(),
            r.commits.to_string(),
            r.commits_per_sec.to_string(),
            r.msgs.to_string(),
            r.msgs_per_sec.to_string(),
            r.p50_us.to_string(),
            r.p95_us.to_string(),
            r.p99_us.to_string(),
            if r.twin_ok == 1 { "ok".into() } else { "DIVERGED".to_string() },
        ]);
    }
    print!("{}", table.render());

    std::fs::write(&args.out, render_runtime_json(&rows)).expect("write benchmark file");
    println!("wrote {}", args.out);

    let mut ok = all_twins_ok;
    if !all_twins_ok {
        eprintln!("runtime_scale: twin replay DIVERGED — the determinism contract is broken");
    }
    if let Some(baseline_path) = &args.diff {
        let doc = std::fs::read_to_string(baseline_path).expect("read baseline");
        let baseline = match parse_runtime_json(&doc) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("runtime_scale: baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Gate only the cells this sweep covered, so --ci-smoke can diff
        // against the committed full sweep.
        let covered: Vec<RuntimeBenchRow> =
            baseline.into_iter().filter(|b| rows.iter().any(|r| r.key() == b.key())).collect();
        let problems = diff_runtime_rows(&covered, &rows, 20);
        for p in &problems {
            eprintln!("runtime_scale: REGRESSION: {p}");
        }
        if problems.is_empty() {
            println!("diff vs {baseline_path}: clean ({} rows)", covered.len());
        }
        ok &= problems.is_empty();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
