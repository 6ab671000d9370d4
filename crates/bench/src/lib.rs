//! Shared experiment plumbing for the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's experiment index); this library holds the
//! parameter sets, measurement records and small table/CSV writers they
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use swiper_core::{
    Mode, Ratio, Solution, Swiper, TicketAssignment, WeightQualification, WeightRestriction,
    WeightSeparation, Weights,
};

/// The WR/WQ parameter pairs of Table 2 (each WR pair `(aw, an)` is the
/// Theorem 2.2 mirror of the WQ pair `(1-aw, 1-an)` printed below it).
pub fn table2_wr_settings() -> Vec<(Ratio, Ratio)> {
    vec![
        (Ratio::of(1, 4), Ratio::of(1, 3)),
        (Ratio::of(1, 3), Ratio::of(3, 8)),
        (Ratio::of(1, 3), Ratio::of(1, 2)),
        (Ratio::of(2, 3), Ratio::of(3, 4)),
    ]
}

/// The WS parameter pairs of Table 2.
pub fn table2_ws_settings() -> Vec<(Ratio, Ratio)> {
    vec![
        (Ratio::of(1, 4), Ratio::of(1, 3)),
        (Ratio::of(1, 3), Ratio::of(1, 2)),
        (Ratio::of(2, 3), Ratio::of(3, 4)),
    ]
}

/// The `(alpha_w, alpha_n)` pairs tracked in the right-hand columns of
/// Figures 1–5.
pub fn figure_pairs() -> Vec<(Ratio, Ratio)> {
    table2_wr_settings()
}

/// Measurements of one solver run.
#[derive(Debug, Clone, Copy)]
pub struct SolveMeasurement {
    /// Total tickets allocated.
    pub total_tickets: u128,
    /// Largest per-party allocation.
    pub max_tickets: u64,
    /// Parties holding at least one ticket.
    pub holders: usize,
    /// The theoretical bound for the instance.
    pub bound: u64,
}

/// Runs Weight Restriction and extracts the figure metrics.
///
/// # Panics
///
/// Panics when the instance is infeasible (the harness constructs only
/// feasible ones).
pub fn measure_wr(
    weights: &Weights,
    alpha_w: Ratio,
    alpha_n: Ratio,
    mode: Mode,
) -> SolveMeasurement {
    let params = WeightRestriction::new(alpha_w, alpha_n).expect("feasible parameters");
    let sol = Swiper::with_mode(mode).solve_restriction(weights, &params).expect("solvable");
    measurement_of(&sol.assignment, sol.ticket_bound)
}

/// Runs Weight Qualification (via the Theorem 2.2 reduction).
///
/// # Panics
///
/// Panics when the instance is infeasible.
pub fn measure_wq(
    weights: &Weights,
    beta_w: Ratio,
    beta_n: Ratio,
    mode: Mode,
) -> SolveMeasurement {
    let params = WeightQualification::new(beta_w, beta_n).expect("feasible parameters");
    let sol = Swiper::with_mode(mode).solve_qualification(weights, &params).expect("solvable");
    measurement_of(&sol.assignment, sol.ticket_bound)
}

/// Runs Weight Separation.
///
/// # Panics
///
/// Panics when the instance is infeasible.
pub fn measure_ws(
    weights: &Weights,
    alpha: Ratio,
    beta: Ratio,
    mode: Mode,
) -> SolveMeasurement {
    let params = WeightSeparation::new(alpha, beta).expect("feasible parameters");
    let sol = Swiper::with_mode(mode).solve_separation(weights, &params).expect("solvable");
    measurement_of(&sol.assignment, sol.ticket_bound)
}

fn measurement_of(t: &TicketAssignment, bound: u64) -> SolveMeasurement {
    SolveMeasurement {
        total_tickets: t.total(),
        max_tickets: t.max_tickets(),
        holders: t.holders(),
        bound,
    }
}

impl From<&Solution> for SolveMeasurement {
    fn from(sol: &Solution) -> Self {
        measurement_of(&sol.assignment, sol.ticket_bound)
    }
}

/// Schema tag written into (and required from) `BENCH_solver.json`.
pub const BENCH_SOLVER_SCHEMA: &str = "swiper-bench-solver/v1";

/// One measurement row of the machine-checked benchmark trajectory
/// (`BENCH_solver.json`). Counter fields are bit-deterministic for a given
/// seed and code version; `wall_ms` and `peak_rss_kb` are environmental.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Benchmark family, e.g. `solver_scale`.
    pub bench: String,
    /// Case within the family, e.g. `cold` / `warm` / `certified`.
    pub case_name: String,
    /// Population size.
    pub n: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: u64,
    /// Total tickets allocated by the published solution.
    pub tickets: u128,
    /// Exact-DP invocations across the run.
    pub dp_invocations: u64,
    /// Checks settled by replaying a delta-stable certificate.
    pub certificate_skips: u64,
    /// Family members materialized and checked.
    pub candidates_checked: u64,
    /// Probes answered by the incremental family cursor reusing its
    /// interval state instead of rebuilding candidates from scratch.
    pub cursor_advances: u64,
    /// Estimated probes the sampling-guided bracket avoided versus a cold
    /// bisection of the full `[0, bound]` range.
    pub probes_saved: u64,
    /// Checks settled by a certificate found under a *nearby* stored
    /// total (coarse key); disjoint from `certificate_skips`.
    pub coarse_cert_hits: u64,
    /// RNG seed the weight generator ran with — rows are reproducible
    /// from `(bench, case, n, seed)` alone.
    pub seed: u64,
    /// Per-cell growth of the process peak RSS in kilobytes: `VmHWM`
    /// delta across the cell's measured phase. `VmHWM` is a
    /// process-lifetime high-water mark, so this is a monotone-floor
    /// decomposition — a cell whose footprint fits inside an earlier
    /// cell's peak reports 0, never an inherited peak. Informational,
    /// never regression-gated; 0 when `/proc` is unavailable.
    pub peak_rss_kb: u64,
}

impl BenchRow {
    /// The `(bench, case, n)` identity rows are matched on when diffing.
    pub fn key(&self) -> (String, String, u64) {
        (self.bench.clone(), self.case_name.clone(), self.n)
    }

    fn to_json_line(&self) -> String {
        format!(
            "    {{\"bench\":\"{}\",\"case\":\"{}\",\"n\":{},\"seed\":{},\"wall_ms\":{},\
             \"tickets\":{},\
             \"dp_invocations\":{},\"certificate_skips\":{},\"candidates_checked\":{},\
             \"cursor_advances\":{},\"probes_saved\":{},\"coarse_cert_hits\":{},\
             \"peak_rss_kb\":{}}}",
            self.bench,
            self.case_name,
            self.n,
            self.seed,
            self.wall_ms,
            self.tickets,
            self.dp_invocations,
            self.certificate_skips,
            self.candidates_checked,
            self.cursor_advances,
            self.probes_saved,
            self.coarse_cert_hits,
            self.peak_rss_kb
        )
    }
}

/// Serializes rows as the `BENCH_solver.json` document: a schema header
/// plus one row object per line (line-oriented so the lenient parser and
/// plain `diff` both stay useful). Hand-rolled — the vendored serde shim
/// is marker-only.
pub fn render_bench_json(rows: &[BenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{BENCH_SOLVER_SCHEMA}\",");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.to_json_line());
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_solver.json` document produced by
/// [`render_bench_json`]. Lenient and line-oriented: any line containing a
/// `"bench"` key is treated as a row; missing numeric fields default to 0
/// so older files with fewer columns still diff.
///
/// # Errors
///
/// Returns a description when the schema tag is absent or unexpected.
pub fn parse_bench_json(doc: &str) -> Result<Vec<BenchRow>, String> {
    if !doc.contains(&format!("\"schema\": \"{BENCH_SOLVER_SCHEMA}\"")) {
        return Err(format!("missing or unexpected schema tag (want {BENCH_SOLVER_SCHEMA})"));
    }
    let mut rows = Vec::new();
    for line in doc.lines() {
        let Some(bench) = json_str_field(line, "bench") else { continue };
        rows.push(BenchRow {
            bench,
            case_name: json_str_field(line, "case").unwrap_or_default(),
            n: json_num_field(line, "n").unwrap_or(0) as u64,
            wall_ms: json_num_field(line, "wall_ms").unwrap_or(0) as u64,
            tickets: json_num_field(line, "tickets").unwrap_or(0),
            dp_invocations: json_num_field(line, "dp_invocations").unwrap_or(0) as u64,
            certificate_skips: json_num_field(line, "certificate_skips").unwrap_or(0) as u64,
            candidates_checked: json_num_field(line, "candidates_checked").unwrap_or(0) as u64,
            cursor_advances: json_num_field(line, "cursor_advances").unwrap_or(0) as u64,
            probes_saved: json_num_field(line, "probes_saved").unwrap_or(0) as u64,
            coarse_cert_hits: json_num_field(line, "coarse_cert_hits").unwrap_or(0) as u64,
            seed: json_num_field(line, "seed").unwrap_or(0) as u64,
            peak_rss_kb: json_num_field(line, "peak_rss_kb").unwrap_or(0) as u64,
        });
    }
    Ok(rows)
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tail = &line[line.find(&format!("\"{key}\":\""))? + key.len() + 4..];
    Some(tail[..tail.find('"')?].to_string())
}

fn json_num_field(line: &str, key: &str) -> Option<u128> {
    let tail = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Schema tag written into (and required from) `BENCH_epochs.json`.
pub const BENCH_EPOCHS_SCHEMA: &str = "swiper-bench-epochs/v1";

/// One scenario row of the epoch-replay trajectory (`BENCH_epochs.json`):
/// a chain × churn replay through the incremental re-solve loop. The
/// headline counter is `bracket_divergence` — epochs where the warm
/// bracket settled on a different (equally valid) local minimum than cold
/// bisection, the non-monotone dips discussed in `Swiper::resolve_from`.
/// Previously this telemetry only existed as a text summary line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochBenchRow {
    /// Benchmark family, always `epochs`.
    pub bench: String,
    /// Chain the snapshot stream replayed, e.g. `aptos`.
    pub chain: String,
    /// Churned parties per epoch, percent of the population.
    pub churn_pct: u64,
    /// Epochs replayed.
    pub epochs: u64,
    /// Epochs where the warm bracket landed on a different local minimum
    /// than cold bisection (published results stay cold-identical).
    pub bracket_divergence: u64,
    /// Certificate skips across the replay (exact-total key).
    pub cert_skips: u64,
    /// Warm-pass DP invocations with certificates on.
    pub warm_dp: u64,
    /// Warm-pass DP invocations with certificates off.
    pub plain_dp: u64,
    /// Fresh cold-solve DP invocations (the no-machinery yardstick).
    pub cold_dp: u64,
    /// Verdict-cache hit rate over the replay, rounded percent.
    pub hit_rate_pct: u64,
}

impl EpochBenchRow {
    /// The `(bench, chain, churn_pct)` identity rows are matched on.
    pub fn key(&self) -> (String, String, u64) {
        (self.bench.clone(), self.chain.clone(), self.churn_pct)
    }

    fn to_json_line(&self) -> String {
        format!(
            "    {{\"bench\":\"{}\",\"chain\":\"{}\",\"churn_pct\":{},\"epochs\":{},\
             \"bracket_divergence\":{},\"cert_skips\":{},\"warm_dp\":{},\"plain_dp\":{},\
             \"cold_dp\":{},\"hit_rate_pct\":{}}}",
            self.bench,
            self.chain,
            self.churn_pct,
            self.epochs,
            self.bracket_divergence,
            self.cert_skips,
            self.warm_dp,
            self.plain_dp,
            self.cold_dp,
            self.hit_rate_pct
        )
    }
}

/// Serializes epoch-replay rows as the `BENCH_epochs.json` document (same
/// line-oriented shape as [`render_bench_json`]).
pub fn render_epochs_json(rows: &[EpochBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{BENCH_EPOCHS_SCHEMA}\",");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.to_json_line());
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_epochs.json` document produced by
/// [`render_epochs_json`]. Lenient and line-oriented, like
/// [`parse_bench_json`].
///
/// # Errors
///
/// Returns a description when the schema tag is absent or unexpected.
pub fn parse_epochs_json(doc: &str) -> Result<Vec<EpochBenchRow>, String> {
    if !doc.contains(&format!("\"schema\": \"{BENCH_EPOCHS_SCHEMA}\"")) {
        return Err(format!("missing or unexpected schema tag (want {BENCH_EPOCHS_SCHEMA})"));
    }
    let mut rows = Vec::new();
    for line in doc.lines() {
        let Some(bench) = json_str_field(line, "bench") else { continue };
        let num = |key: &str| json_num_field(line, key).unwrap_or(0) as u64;
        rows.push(EpochBenchRow {
            bench,
            chain: json_str_field(line, "chain").unwrap_or_default(),
            churn_pct: num("churn_pct"),
            epochs: num("epochs"),
            bracket_divergence: num("bracket_divergence"),
            cert_skips: num("cert_skips"),
            warm_dp: num("warm_dp"),
            plain_dp: num("plain_dp"),
            cold_dp: num("cold_dp"),
            hit_rate_pct: num("hit_rate_pct"),
        });
    }
    Ok(rows)
}

/// Compares a fresh epoch-replay run against a committed baseline.
///
/// The replay is seed-deterministic, so the solver-work counters
/// (`epochs`, `cert_skips`, `warm_dp`, `plain_dp`, `cold_dp`,
/// `hit_rate_pct`) must match exactly. `bracket_divergence` is
/// **informational**: it counts epochs where the warm bracket settled on a
/// different (equally valid) local minimum than cold bisection — a
/// legitimate degree of freedom of the accelerated path, not a regression
/// signal — so it is never gated. Baseline rows missing from the fresh run
/// are regressions; extra fresh rows are not.
pub fn diff_epochs_rows(baseline: &[EpochBenchRow], fresh: &[EpochBenchRow]) -> Vec<String> {
    let mut problems = Vec::new();
    for old in baseline {
        let Some(new) = fresh.iter().find(|r| r.key() == old.key()) else {
            problems.push(format!(
                "row {}/{}/churn={}% missing from fresh run",
                old.bench, old.chain, old.churn_pct
            ));
            continue;
        };
        let id = format!("{}/{}/churn={}%", old.bench, old.chain, old.churn_pct);
        let counters = [
            ("epochs", old.epochs, new.epochs),
            ("cert_skips", old.cert_skips, new.cert_skips),
            ("warm_dp", old.warm_dp, new.warm_dp),
            ("plain_dp", old.plain_dp, new.plain_dp),
            ("cold_dp", old.cold_dp, new.cold_dp),
            ("hit_rate_pct", old.hit_rate_pct, new.hit_rate_pct),
        ];
        for (name, was, now) in counters {
            if was != now {
                problems.push(format!("{id}: {name} changed {was} -> {now}"));
            }
        }
    }
    problems
}

/// Schema tag written into (and required from) `BENCH_runtime.json`.
pub const BENCH_RUNTIME_SCHEMA: &str = "swiper-bench-runtime/v1";

/// One measurement row of the threaded-runtime trajectory
/// (`BENCH_runtime.json`): a protocol chain driven to quiescence on the
/// [`ThreadedRuntime`](swiper_net::ThreadedRuntime) and replay-checked
/// against its simulator twin.
///
/// `commits` (protocol-level progress at quiescence) and `twin_ok` are
/// schedule-independent and regression-gated exactly; wall time is gated
/// with tolerance above [`BENCH_WALL_FLOOR_MS`]; message counts, latency
/// percentiles and RSS vary with the OS schedule and are informational.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeBenchRow {
    /// Benchmark family, e.g. `runtime_scale`.
    pub bench: String,
    /// Protocol chain: `bracha` / `aba` / `smr`.
    pub protocol: String,
    /// Transport backend the runtime ran on: `channel` (in-process
    /// inboxes) or `socket` (loopback TCP through the wire codecs).
    pub transport: String,
    /// Population size.
    pub n: u64,
    /// Worker threads the runtime ran with.
    pub workers: u64,
    /// Wall-clock milliseconds of the run.
    pub wall_ms: u64,
    /// Protocol-level progress at quiescence (deliveries, decisions, or
    /// committed rounds — deterministic for an honest chain).
    pub commits: u64,
    /// Commit throughput, rounded commits per second.
    pub commits_per_sec: u64,
    /// Messages delivered (schedule-dependent for halting protocols).
    pub msgs: u64,
    /// Delivery throughput, rounded messages per second.
    pub msgs_per_sec: u64,
    /// Median send→process latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Resident set size in kilobytes sampled at quiescence (workers
    /// joined, queues drained), falling back to the process `VmHWM` peak
    /// when `VmRSS` is unavailable. The earlier `VmHWM`-delta scheme
    /// reported 0 for any cell whose footprint fit inside a predecessor's
    /// peak, which zeroed most rows of a sweep; a quiescent sample is
    /// nonzero for every live process. Informational, never
    /// regression-gated.
    pub peak_rss_kb: u64,
    /// 1 when the delivery trace replayed bit-identically on the
    /// simulator twin, 0 otherwise.
    pub twin_ok: u64,
}

impl RuntimeBenchRow {
    /// The `(bench, protocol, transport, n, workers)` identity rows are
    /// matched on when diffing.
    pub fn key(&self) -> (String, String, String, u64, u64) {
        (
            self.bench.clone(),
            self.protocol.clone(),
            self.transport.clone(),
            self.n,
            self.workers,
        )
    }

    fn to_json_line(&self) -> String {
        format!(
            "    {{\"bench\":\"{}\",\"protocol\":\"{}\",\"transport\":\"{}\",\"n\":{},\
             \"workers\":{},\
             \"wall_ms\":{},\"commits\":{},\"commits_per_sec\":{},\"msgs\":{},\
             \"msgs_per_sec\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\
             \"peak_rss_kb\":{},\"twin_ok\":{}}}",
            self.bench,
            self.protocol,
            self.transport,
            self.n,
            self.workers,
            self.wall_ms,
            self.commits,
            self.commits_per_sec,
            self.msgs,
            self.msgs_per_sec,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.peak_rss_kb,
            self.twin_ok
        )
    }
}

/// Serializes runtime rows as the `BENCH_runtime.json` document (same
/// line-oriented shape as [`render_bench_json`]).
pub fn render_runtime_json(rows: &[RuntimeBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{BENCH_RUNTIME_SCHEMA}\",");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.to_json_line());
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_runtime.json` document produced by
/// [`render_runtime_json`]. Lenient and line-oriented, like
/// [`parse_bench_json`].
///
/// # Errors
///
/// Returns a description when the schema tag is absent or unexpected.
pub fn parse_runtime_json(doc: &str) -> Result<Vec<RuntimeBenchRow>, String> {
    if !doc.contains(&format!("\"schema\": \"{BENCH_RUNTIME_SCHEMA}\"")) {
        return Err(format!("missing or unexpected schema tag (want {BENCH_RUNTIME_SCHEMA})"));
    }
    let mut rows = Vec::new();
    for line in doc.lines() {
        let Some(bench) = json_str_field(line, "bench") else { continue };
        let num = |key: &str| json_num_field(line, key).unwrap_or(0) as u64;
        rows.push(RuntimeBenchRow {
            bench,
            protocol: json_str_field(line, "protocol").unwrap_or_default(),
            // Rows written before the transport axis existed are channel
            // rows: that was the only backend.
            transport: json_str_field(line, "transport").unwrap_or_else(|| "channel".into()),
            n: num("n"),
            workers: num("workers"),
            wall_ms: num("wall_ms"),
            commits: num("commits"),
            commits_per_sec: num("commits_per_sec"),
            msgs: num("msgs"),
            msgs_per_sec: num("msgs_per_sec"),
            p50_us: num("p50_us"),
            p95_us: num("p95_us"),
            p99_us: num("p99_us"),
            peak_rss_kb: num("peak_rss_kb"),
            twin_ok: num("twin_ok"),
        });
    }
    Ok(rows)
}

/// Compares a fresh runtime-benchmark run against a committed baseline.
///
/// `commits` and `twin_ok` must match exactly (they are
/// schedule-independent; a `twin_ok` flip means the determinism-twin
/// contract broke). Wall time regresses when it exceeds the baseline by
/// more than `tol_pct` percent and both sides are above
/// [`BENCH_WALL_FLOOR_MS`]. Message counts, latency percentiles and RSS
/// are never gated. Baseline rows missing from the fresh run are
/// regressions; extra fresh rows are not.
pub fn diff_runtime_rows(
    baseline: &[RuntimeBenchRow],
    fresh: &[RuntimeBenchRow],
    tol_pct: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for old in baseline {
        let Some(new) = fresh.iter().find(|r| r.key() == old.key()) else {
            problems.push(format!(
                "row {}/{}/{}/n={}/w={} missing from fresh run",
                old.bench, old.protocol, old.transport, old.n, old.workers
            ));
            continue;
        };
        let id = format!(
            "{}/{}/{}/n={}/w={}",
            old.bench, old.protocol, old.transport, old.n, old.workers
        );
        if old.commits != new.commits {
            problems.push(format!("{id}: commits changed {} -> {}", old.commits, new.commits));
        }
        if old.twin_ok != new.twin_ok {
            problems.push(format!(
                "{id}: twin replay status changed {} -> {}",
                old.twin_ok, new.twin_ok
            ));
        }
        if old.wall_ms >= BENCH_WALL_FLOOR_MS
            && new.wall_ms >= BENCH_WALL_FLOOR_MS
            && new.wall_ms.saturating_mul(100) > old.wall_ms.saturating_mul(100 + tol_pct)
        {
            problems.push(format!(
                "{id}: wall_ms regressed {} -> {} (> {tol_pct}%)",
                old.wall_ms, new.wall_ms
            ));
        }
    }
    problems
}

/// Schema tag written into (and required from) `BENCH_gossip.json`.
pub const BENCH_GOSSIP_SCHEMA: &str = "swiper-bench-gossip/v1";

/// One measurement row of the gossip-overlay dissemination trajectory
/// (`BENCH_gossip.json`): weighted Bracha driven over a dissemination
/// backend (`overlay` partial-view gossip, or the `fullmesh` yardstick)
/// on one substrate (`sim` seeded simulator, or `threaded` runtime).
///
/// Simulator rows are seed-deterministic, so their counters are
/// regression-gated exactly; threaded rows gate `reach_pct` and `twin_ok`
/// exactly and wall time with tolerance, everything else being
/// OS-schedule noise. The headline economy claim — overlay
/// msgs/delivery strictly below the n²-flood baseline of `n` at
/// `n >= 256` — is gated unconditionally on every fresh overlay row by
/// [`diff_gossip_rows`], baseline present or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipBenchRow {
    /// Benchmark family, e.g. `gossip_scale`.
    pub bench: String,
    /// Dissemination backend: `overlay` or `fullmesh`.
    pub backend: String,
    /// Execution substrate: `sim` or `threaded`.
    pub substrate: String,
    /// Population size.
    pub n: u64,
    /// RNG seed (overlay view construction and the delay schedule).
    pub seed: u64,
    /// Wall-clock milliseconds of the run.
    pub wall_ms: u64,
    /// Nodes that delivered the payload, percent of the population.
    pub reach_pct: u64,
    /// Maximum eager-hop count observed — rounds to full delivery.
    pub rounds: u64,
    /// Total messages the run sent (overlay control + data frames).
    pub msgs: u64,
    /// Unique first-receipt payload deliveries across the fleet.
    pub deliveries: u64,
    /// Messages per delivery, fixed-point ×100 (e.g. `1042` = 10.42).
    pub msgs_per_delivery_x100: u64,
    /// Bytes sent (every frame, payload and control) per delivery.
    pub bytes_per_delivery: u64,
    /// The n²-flood yardstick in the same unit: a reliable full-mesh
    /// flood costs `n` messages per delivery (n² messages, n deliveries).
    pub baseline_msgs_per_delivery: u64,
    /// Mean active-view degree across the fleet, fixed-point ×100.
    pub mean_degree_x100: u64,
    /// Median send→process latency, microseconds (threaded rows only).
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds (threaded rows only).
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds (threaded rows only).
    pub p99_us: u64,
    /// 1 when the delivery trace replayed bit-identically on the
    /// simulator twin (threaded rows; simulator rows write 1).
    pub twin_ok: u64,
}

impl GossipBenchRow {
    /// The `(bench, backend, substrate, n, seed)` identity rows are
    /// matched on when diffing.
    pub fn key(&self) -> (String, String, String, u64, u64) {
        (self.bench.clone(), self.backend.clone(), self.substrate.clone(), self.n, self.seed)
    }

    /// Messages per delivery as a float, for display.
    pub fn msgs_per_delivery(&self) -> f64 {
        self.msgs_per_delivery_x100 as f64 / 100.0
    }

    fn to_json_line(&self) -> String {
        format!(
            "    {{\"bench\":\"{}\",\"backend\":\"{}\",\"substrate\":\"{}\",\"n\":{},\
             \"seed\":{},\"wall_ms\":{},\"reach_pct\":{},\"rounds\":{},\"msgs\":{},\
             \"deliveries\":{},\"msgs_per_delivery_x100\":{},\"bytes_per_delivery\":{},\
             \"baseline_msgs_per_delivery\":{},\"mean_degree_x100\":{},\
             \"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"twin_ok\":{}}}",
            self.bench,
            self.backend,
            self.substrate,
            self.n,
            self.seed,
            self.wall_ms,
            self.reach_pct,
            self.rounds,
            self.msgs,
            self.deliveries,
            self.msgs_per_delivery_x100,
            self.bytes_per_delivery,
            self.baseline_msgs_per_delivery,
            self.mean_degree_x100,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.twin_ok
        )
    }
}

/// Serializes gossip rows as the `BENCH_gossip.json` document (same
/// line-oriented shape as [`render_bench_json`]).
pub fn render_gossip_json(rows: &[GossipBenchRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{BENCH_GOSSIP_SCHEMA}\",");
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.to_json_line());
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parses a `BENCH_gossip.json` document produced by
/// [`render_gossip_json`]. Lenient and line-oriented, like
/// [`parse_bench_json`].
///
/// # Errors
///
/// Returns a description when the schema tag is absent or unexpected.
pub fn parse_gossip_json(doc: &str) -> Result<Vec<GossipBenchRow>, String> {
    if !doc.contains(&format!("\"schema\": \"{BENCH_GOSSIP_SCHEMA}\"")) {
        return Err(format!("missing or unexpected schema tag (want {BENCH_GOSSIP_SCHEMA})"));
    }
    let mut rows = Vec::new();
    for line in doc.lines() {
        let Some(bench) = json_str_field(line, "bench") else { continue };
        let num = |key: &str| json_num_field(line, key).unwrap_or(0) as u64;
        rows.push(GossipBenchRow {
            bench,
            backend: json_str_field(line, "backend").unwrap_or_default(),
            substrate: json_str_field(line, "substrate").unwrap_or_default(),
            n: num("n"),
            seed: num("seed"),
            wall_ms: num("wall_ms"),
            reach_pct: num("reach_pct"),
            rounds: num("rounds"),
            msgs: num("msgs"),
            deliveries: num("deliveries"),
            msgs_per_delivery_x100: num("msgs_per_delivery_x100"),
            bytes_per_delivery: num("bytes_per_delivery"),
            baseline_msgs_per_delivery: num("baseline_msgs_per_delivery"),
            mean_degree_x100: num("mean_degree_x100"),
            p50_us: num("p50_us"),
            p95_us: num("p95_us"),
            p99_us: num("p99_us"),
            twin_ok: num("twin_ok"),
        });
    }
    Ok(rows)
}

/// Population size from which the overlay-beats-flooding economy gate
/// applies: below it the log-degree overlay and the mesh are too close
/// for the comparison to be meaningful.
pub const GOSSIP_ECONOMY_FLOOR_N: u64 = 256;

/// Compares a fresh gossip-overlay run against a committed baseline.
///
/// Simulator rows (`substrate == "sim"`) are seed-deterministic, so
/// `reach_pct`, `rounds`, `msgs`, `deliveries`, `msgs_per_delivery_x100`,
/// `bytes_per_delivery` and `mean_degree_x100` must all match exactly. Threaded rows gate
/// `reach_pct` and `twin_ok` exactly and wall time with `tol_pct` above
/// [`BENCH_WALL_FLOOR_MS`]; their message counts and latency percentiles
/// are OS-schedule noise. Baseline rows missing from the fresh run are
/// regressions; extra fresh rows are not.
///
/// Independently of any baseline, every fresh row is held to the
/// acceptance invariants: reach must be 100%, and `overlay` rows at
/// `n >= `[`GOSSIP_ECONOMY_FLOOR_N`] must spend strictly fewer messages
/// per delivery than the n²-flood baseline.
pub fn diff_gossip_rows(
    baseline: &[GossipBenchRow],
    fresh: &[GossipBenchRow],
    tol_pct: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    for old in baseline {
        let Some(new) = fresh.iter().find(|r| r.key() == old.key()) else {
            problems.push(format!(
                "row {}/{}/{}/n={}/seed={} missing from fresh run",
                old.bench, old.backend, old.substrate, old.n, old.seed
            ));
            continue;
        };
        let id = format!(
            "{}/{}/{}/n={}/seed={}",
            old.bench, old.backend, old.substrate, old.n, old.seed
        );
        let exact: &[(&str, u64, u64)] = if old.substrate == "sim" {
            &[
                ("reach_pct", old.reach_pct, new.reach_pct),
                ("rounds", old.rounds, new.rounds),
                ("msgs", old.msgs, new.msgs),
                ("deliveries", old.deliveries, new.deliveries),
                (
                    "msgs_per_delivery_x100",
                    old.msgs_per_delivery_x100,
                    new.msgs_per_delivery_x100,
                ),
                ("bytes_per_delivery", old.bytes_per_delivery, new.bytes_per_delivery),
                ("mean_degree_x100", old.mean_degree_x100, new.mean_degree_x100),
            ]
        } else {
            &[
                ("reach_pct", old.reach_pct, new.reach_pct),
                ("twin_ok", old.twin_ok, new.twin_ok),
            ]
        };
        for &(name, was, now) in exact {
            if was != now {
                problems.push(format!("{id}: {name} changed {was} -> {now}"));
            }
        }
        if old.wall_ms >= BENCH_WALL_FLOOR_MS
            && new.wall_ms >= BENCH_WALL_FLOOR_MS
            && new.wall_ms.saturating_mul(100) > old.wall_ms.saturating_mul(100 + tol_pct)
        {
            problems.push(format!(
                "{id}: wall_ms regressed {} -> {} (> {tol_pct}%)",
                old.wall_ms, new.wall_ms
            ));
        }
    }
    for row in fresh {
        let id = format!(
            "{}/{}/{}/n={}/seed={}",
            row.bench, row.backend, row.substrate, row.n, row.seed
        );
        if row.reach_pct != 100 {
            problems.push(format!("{id}: reach {}% != 100%", row.reach_pct));
        }
        if row.backend == "overlay"
            && row.n >= GOSSIP_ECONOMY_FLOOR_N
            && row.msgs_per_delivery_x100 >= row.baseline_msgs_per_delivery.saturating_mul(100)
        {
            problems.push(format!(
                "{id}: msgs/delivery {:.2} does not beat the n²-flood baseline of {}",
                row.msgs_per_delivery(),
                row.baseline_msgs_per_delivery
            ));
        }
    }
    problems
}

/// Wall-clock floor below which timing rows are treated as noise and not
/// regression-gated.
pub const BENCH_WALL_FLOOR_MS: u64 = 250;

/// Compares a fresh benchmark run against a committed baseline and
/// returns human-readable regression descriptions (empty = pass).
///
/// Deterministic counters (`tickets`, `dp_invocations`,
/// `certificate_skips`, `candidates_checked`, `cursor_advances`,
/// `probes_saved`, `coarse_cert_hits`) must match exactly; wall
/// time regresses when it exceeds the baseline by more than `tol_pct`
/// percent and both sides are above [`BENCH_WALL_FLOOR_MS`]. Peak RSS is
/// reported but never gated (container-dependent). Baseline rows missing
/// from the fresh run are regressions; extra fresh rows are not.
pub fn diff_bench_rows(baseline: &[BenchRow], fresh: &[BenchRow], tol_pct: u64) -> Vec<String> {
    let mut problems = Vec::new();
    for old in baseline {
        let Some(new) = fresh.iter().find(|r| r.key() == old.key()) else {
            problems.push(format!(
                "row {}/{}/n={} missing from fresh run",
                old.bench, old.case_name, old.n
            ));
            continue;
        };
        let id = format!("{}/{}/n={}", old.bench, old.case_name, old.n);
        let counters = [
            ("tickets", old.tickets, new.tickets),
            ("dp_invocations", u128::from(old.dp_invocations), u128::from(new.dp_invocations)),
            (
                "certificate_skips",
                u128::from(old.certificate_skips),
                u128::from(new.certificate_skips),
            ),
            (
                "candidates_checked",
                u128::from(old.candidates_checked),
                u128::from(new.candidates_checked),
            ),
            (
                "cursor_advances",
                u128::from(old.cursor_advances),
                u128::from(new.cursor_advances),
            ),
            ("probes_saved", u128::from(old.probes_saved), u128::from(new.probes_saved)),
            (
                "coarse_cert_hits",
                u128::from(old.coarse_cert_hits),
                u128::from(new.coarse_cert_hits),
            ),
        ];
        for (name, was, now) in counters {
            if was != now {
                problems.push(format!("{id}: {name} changed {was} -> {now}"));
            }
        }
        if old.wall_ms >= BENCH_WALL_FLOOR_MS
            && new.wall_ms >= BENCH_WALL_FLOOR_MS
            && new.wall_ms.saturating_mul(100) > old.wall_ms.saturating_mul(100 + tol_pct)
        {
            problems.push(format!(
                "{id}: wall_ms regressed {} -> {} (> {tol_pct}%)",
                old.wall_ms, new.wall_ms
            ));
        }
    }
    problems
}

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmHWM`). Returns 0 when unavailable (non-Linux).
///
/// `VmHWM` is monotone over the process lifetime: it never decreases, so
/// in a multi-cell sweep every cell after the largest would inherit its
/// peak. Benchmark binaries must therefore report **per-cell deltas** —
/// sample before the measured phase and subtract (`saturating_sub`), as
/// the [`BenchRow::peak_rss_kb`] / [`RuntimeBenchRow::peak_rss_kb`]
/// schema docs specify.
pub fn peak_rss_kb() -> u64 {
    proc_status_kb("VmHWM:")
}

/// Current resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmRSS`). Returns 0 when unavailable (non-Linux).
///
/// Unlike [`peak_rss_kb`] this is *not* monotone: sampled at quiescence
/// (workers joined, queues drained) it attributes the footprint actually
/// held by a benchmark cell even when an earlier, larger cell already
/// raised the process high-water mark — exactly the case where the
/// `VmHWM` delta degenerates to 0.
pub fn current_rss_kb() -> u64 {
    proc_status_kb("VmRSS:")
}

fn proc_status_kb(key: &str) -> u64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A minimal aligned-column table printer for terminal reports.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(line, "| {:width$} ", c, width = widths[i]);
            }
            line.push('|');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: String =
            widths.iter().map(|w| format!("|{}", "-".repeat(w + 2))).collect::<String>() + "|";
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Writes a CSV file (creating parent directories) from a header and rows.
///
/// # Panics
///
/// Panics on I/O errors — experiment harness semantics: fail loudly.
pub fn write_csv<P: AsRef<Path>>(path: P, header: &[&str], rows: &[Vec<String>]) {
    let path = path.as_ref();
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("create output directory");
    }
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    fs::write(path, out).expect("write csv");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_match_table2() {
        assert_eq!(table2_wr_settings().len(), 4);
        assert_eq!(table2_ws_settings().len(), 3);
        for (a, b) in table2_wr_settings() {
            assert!(a < b);
        }
        for (a, b) in table2_ws_settings() {
            assert!(a < b);
        }
    }

    #[test]
    fn measurements_are_consistent() {
        let w = Weights::new(vec![50, 30, 20, 10, 5]).unwrap();
        let m = measure_wr(&w, Ratio::of(1, 3), Ratio::of(1, 2), Mode::Full);
        assert!(m.total_tickets <= u128::from(m.bound));
        assert!(u128::from(m.max_tickets) <= m.total_tickets);
        assert!(m.holders <= 5);
    }

    fn row(case: &str, n: u64, wall: u64, dp: u64) -> BenchRow {
        BenchRow {
            bench: "solver_scale".into(),
            case_name: case.into(),
            n,
            wall_ms: wall,
            tickets: 123_456_789_012_345_678_901u128,
            dp_invocations: dp,
            certificate_skips: 3,
            candidates_checked: 40,
            cursor_advances: 7,
            probes_saved: 2,
            coarse_cert_hits: 1,
            seed: 42,
            peak_rss_kb: 10_000,
        }
    }

    #[test]
    fn bench_json_roundtrips() {
        let rows = vec![row("cold", 1000, 12, 5), row("certified", 1_000_000, 900, 0)];
        let doc = render_bench_json(&rows);
        assert_eq!(parse_bench_json(&doc).unwrap(), rows);
        assert!(parse_bench_json("{}").is_err(), "schema tag is mandatory");
    }

    #[test]
    fn rows_without_the_accelerator_columns_parse_as_zero() {
        // Baselines written before the cursor/sampler/coarse counters (and
        // the seed column) existed must keep parsing — the lenient parser
        // defaults every missing numeric field to 0.
        let doc = format!(
            "{{\n  \"schema\": \"{BENCH_SOLVER_SCHEMA}\",\n  \"rows\": [\n    \
             {{\"bench\":\"solver_scale\",\"case\":\"cold\",\"n\":1000,\"wall_ms\":12,\
             \"tickets\":307,\"dp_invocations\":2,\"certificate_skips\":0,\
             \"candidates_checked\":17,\"peak_rss_kb\":100}}\n  ]\n}}\n"
        );
        let rows = parse_bench_json(&doc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tickets, 307);
        assert_eq!(rows[0].cursor_advances, 0);
        assert_eq!(rows[0].probes_saved, 0);
        assert_eq!(rows[0].coarse_cert_hits, 0);
        assert_eq!(rows[0].seed, 0);
    }

    #[test]
    fn bench_diff_gates_the_accelerator_counters_exactly() {
        let base = vec![row("warm", 1_000_000, 400, 0)];
        for field in ["cursor_advances", "probes_saved", "coarse_cert_hits"] {
            let mut drift = base.clone();
            match field {
                "cursor_advances" => drift[0].cursor_advances += 1,
                "probes_saved" => drift[0].probes_saved += 1,
                _ => drift[0].coarse_cert_hits += 1,
            }
            let problems = diff_bench_rows(&base, &drift, 20);
            assert_eq!(problems.len(), 1, "{field} must be exact-gated");
            assert!(problems[0].contains(field), "{problems:?}");
        }
    }

    #[test]
    fn bench_diff_gates_counters_exactly_and_wall_with_tolerance() {
        let base = vec![row("cold", 1000, 400, 5)];
        // Identical: clean.
        assert!(diff_bench_rows(&base, &base, 20).is_empty());
        // Counter drift: flagged regardless of magnitude.
        let mut drift = base.clone();
        drift[0].dp_invocations = 6;
        assert_eq!(diff_bench_rows(&base, &drift, 20).len(), 1);
        // Wall within tolerance: clean; beyond: flagged; below floor: noise.
        let mut slow = base.clone();
        slow[0].wall_ms = 470;
        assert!(diff_bench_rows(&base, &slow, 20).is_empty());
        slow[0].wall_ms = 500;
        assert_eq!(diff_bench_rows(&base, &slow, 20).len(), 1);
        let mut tiny = base.clone();
        tiny[0].wall_ms = 10;
        let mut tiny_slow = tiny.clone();
        tiny_slow[0].wall_ms = 100;
        assert!(diff_bench_rows(&tiny, &tiny_slow, 20).is_empty());
        // Missing row: flagged.
        assert_eq!(diff_bench_rows(&base, &[], 20).len(), 1);
    }

    #[test]
    fn epochs_json_roundtrips() {
        let rows = vec![
            EpochBenchRow {
                bench: "epochs".into(),
                chain: "aptos".into(),
                churn_pct: 1,
                epochs: 16,
                bracket_divergence: 2,
                cert_skips: 40,
                warm_dp: 3,
                plain_dp: 9,
                cold_dp: 30,
                hit_rate_pct: 87,
            },
            EpochBenchRow {
                bench: "epochs".into(),
                chain: "tezos".into(),
                churn_pct: 20,
                epochs: 16,
                bracket_divergence: 0,
                cert_skips: 0,
                warm_dp: 12,
                plain_dp: 12,
                cold_dp: 31,
                hit_rate_pct: 40,
            },
        ];
        let doc = render_epochs_json(&rows);
        assert_eq!(parse_epochs_json(&doc).unwrap(), rows);
        assert!(parse_epochs_json("{}").is_err(), "schema tag is mandatory");
        assert!(
            parse_epochs_json(&render_bench_json(&[])).is_err(),
            "solver documents must not pass as epochs documents"
        );
    }

    #[test]
    fn epochs_diff_gates_solver_counters_but_not_bracket_divergence() {
        let base = vec![EpochBenchRow {
            bench: "epochs".into(),
            chain: "aptos".into(),
            churn_pct: 5,
            epochs: 16,
            bracket_divergence: 2,
            cert_skips: 40,
            warm_dp: 3,
            plain_dp: 9,
            cold_dp: 30,
            hit_rate_pct: 87,
        }];
        assert!(diff_epochs_rows(&base, &base).is_empty());
        // bracket_divergence is informational: free to drift.
        let mut bracket = base.clone();
        bracket[0].bracket_divergence = 7;
        assert!(diff_epochs_rows(&base, &bracket).is_empty());
        // The solver-work counters are exact.
        for field in ["epochs", "cert_skips", "warm_dp", "plain_dp", "cold_dp", "hit_rate_pct"]
        {
            let mut drift = base.clone();
            match field {
                "epochs" => drift[0].epochs += 1,
                "cert_skips" => drift[0].cert_skips += 1,
                "warm_dp" => drift[0].warm_dp += 1,
                "plain_dp" => drift[0].plain_dp += 1,
                "cold_dp" => drift[0].cold_dp += 1,
                _ => drift[0].hit_rate_pct += 1,
            }
            let problems = diff_epochs_rows(&base, &drift);
            assert_eq!(problems.len(), 1, "{field} must be exact-gated");
            assert!(problems[0].contains(field), "{problems:?}");
        }
        // Missing row: flagged.
        assert_eq!(diff_epochs_rows(&base, &[]).len(), 1);
    }

    fn gossip_row(backend: &str, substrate: &str, n: u64, seed: u64) -> GossipBenchRow {
        GossipBenchRow {
            bench: "gossip_scale".into(),
            backend: backend.into(),
            substrate: substrate.into(),
            n,
            seed,
            wall_ms: 80,
            reach_pct: 100,
            rounds: 6,
            msgs: 26_000,
            deliveries: 2560,
            msgs_per_delivery_x100: 1015,
            bytes_per_delivery: 1450,
            baseline_msgs_per_delivery: n,
            mean_degree_x100: 900,
            p50_us: 0,
            p95_us: 0,
            p99_us: 0,
            twin_ok: 1,
        }
    }

    #[test]
    fn gossip_json_roundtrips() {
        let mut threaded = gossip_row("overlay", "threaded", 64, 5);
        threaded.p50_us = 40;
        threaded.p99_us = 900;
        let rows = vec![
            gossip_row("overlay", "sim", 256, 7),
            gossip_row("fullmesh", "sim", 64, 1),
            threaded,
        ];
        let doc = render_gossip_json(&rows);
        assert_eq!(parse_gossip_json(&doc).unwrap(), rows);
        assert!(parse_gossip_json("{}").is_err(), "schema tag is mandatory");
        assert!(
            parse_gossip_json(&render_bench_json(&[])).is_err(),
            "solver documents must not pass as gossip documents"
        );
    }

    #[test]
    fn gossip_diff_gates_sim_counters_exactly_and_threaded_loosely() {
        let base = vec![gossip_row("overlay", "sim", 256, 7)];
        assert!(diff_gossip_rows(&base, &base, 20).is_empty());
        // Simulator rows are seed-deterministic: any counter drift flags.
        let mut drift = base.clone();
        drift[0].msgs += 1;
        assert_eq!(diff_gossip_rows(&base, &drift, 20).len(), 1);
        let mut rounds = base.clone();
        rounds[0].rounds += 1;
        assert_eq!(diff_gossip_rows(&base, &rounds, 20).len(), 1);
        let mut bytes = base.clone();
        bytes[0].bytes_per_delivery += 1;
        assert_eq!(diff_gossip_rows(&base, &bytes, 20).len(), 1);
        // Threaded rows: message counts are schedule noise, but reach and
        // the twin flag are exact.
        let tbase = vec![gossip_row("overlay", "threaded", 64, 5)];
        let mut tnoise = tbase.clone();
        tnoise[0].msgs = 1;
        tnoise[0].p99_us = 9999;
        tnoise[0].rounds += 3;
        assert!(diff_gossip_rows(&tbase, &tnoise, 20).is_empty());
        let mut twin = tbase.clone();
        twin[0].twin_ok = 0;
        assert_eq!(diff_gossip_rows(&tbase, &twin, 20).len(), 1);
        // Missing row: flagged.
        assert_eq!(diff_gossip_rows(&base, &[], 20).len(), 1);
    }

    #[test]
    fn gossip_diff_holds_fresh_rows_to_the_acceptance_invariants() {
        // Partial reach flags with or without a matching baseline row.
        let mut unreached = vec![gossip_row("overlay", "sim", 64, 1)];
        unreached[0].reach_pct = 98;
        assert_eq!(diff_gossip_rows(&[], &unreached, 20).len(), 1);
        // Above the economy floor, overlay msgs/delivery must beat the
        // n²-flood yardstick of n…
        let mut pricey = vec![gossip_row("overlay", "sim", 256, 7)];
        pricey[0].msgs_per_delivery_x100 = 256 * 100;
        let problems = diff_gossip_rows(&[], &pricey, 20);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("baseline"), "{problems:?}");
        // …but small populations and the fullmesh yardstick itself are
        // exempt.
        let mut small = vec![gossip_row("overlay", "sim", 64, 1)];
        small[0].msgs_per_delivery_x100 = 64 * 100;
        assert!(diff_gossip_rows(&[], &small, 20).is_empty());
        let mut mesh = vec![gossip_row("fullmesh", "sim", 256, 7)];
        mesh[0].msgs_per_delivery_x100 = 256 * 100;
        assert!(diff_gossip_rows(&[], &mesh, 20).is_empty());
    }

    fn runtime_row(protocol: &str, n: u64, workers: u64, wall: u64) -> RuntimeBenchRow {
        RuntimeBenchRow {
            bench: "runtime_scale".into(),
            protocol: protocol.into(),
            transport: "channel".into(),
            n,
            workers,
            wall_ms: wall,
            commits: n,
            commits_per_sec: 1000,
            msgs: 5000,
            msgs_per_sec: 90_000,
            p50_us: 40,
            p95_us: 200,
            p99_us: 900,
            peak_rss_kb: 20_000,
            twin_ok: 1,
        }
    }

    #[test]
    fn runtime_json_roundtrips() {
        let mut socket = runtime_row("bracha", 20, 1, 300);
        socket.transport = "socket".into();
        let rows =
            vec![runtime_row("bracha", 20, 1, 300), socket, runtime_row("smr", 10, 4, 800)];
        let doc = render_runtime_json(&rows);
        assert_eq!(parse_runtime_json(&doc).unwrap(), rows);
        assert!(parse_runtime_json("{}").is_err(), "schema tag is mandatory");
        assert!(
            parse_runtime_json(&render_bench_json(&[])).is_err(),
            "solver documents must not pass as runtime documents"
        );
    }

    #[test]
    fn rows_without_a_transport_column_parse_as_channel() {
        // Baselines written before the transport axis existed must keep
        // diffing as channel rows.
        let doc = format!(
            "{{\n  \"schema\": \"{BENCH_RUNTIME_SCHEMA}\",\n  \"rows\": [\n    \
             {{\"bench\":\"runtime_scale\",\"protocol\":\"aba\",\"n\":8,\"workers\":2,\
             \"wall_ms\":10,\"commits\":8,\"twin_ok\":1}}\n  ]\n}}\n"
        );
        let rows = parse_runtime_json(&doc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].transport, "channel");
    }

    #[test]
    fn transport_is_part_of_the_row_identity() {
        // A socket row never matches a channel baseline (and vice versa):
        // the two backends have independent trajectories.
        let channel = vec![runtime_row("bracha", 20, 1, 300)];
        let mut socket = channel.clone();
        socket[0].transport = "socket".into();
        assert_eq!(diff_runtime_rows(&channel, &socket, 20).len(), 1, "baseline row unmatched");
        let both = vec![channel[0].clone(), socket[0].clone()];
        assert!(diff_runtime_rows(&both, &both, 20).is_empty());
    }

    #[test]
    fn runtime_diff_gates_commits_twin_and_wall() {
        let base = vec![runtime_row("aba", 20, 2, 400)];
        assert!(diff_runtime_rows(&base, &base, 20).is_empty());
        // Schedule-dependent columns may drift freely.
        let mut drift = base.clone();
        drift[0].msgs = 9999;
        drift[0].p99_us = 1;
        drift[0].peak_rss_kb = 1;
        assert!(diff_runtime_rows(&base, &drift, 20).is_empty());
        // Commits and the twin flag are exact.
        let mut commits = base.clone();
        commits[0].commits = 19;
        assert_eq!(diff_runtime_rows(&base, &commits, 20).len(), 1);
        let mut twin = base.clone();
        twin[0].twin_ok = 0;
        assert_eq!(diff_runtime_rows(&base, &twin, 20).len(), 1);
        // Wall: tolerated within tol_pct above the floor, noise below it.
        let mut slow = base.clone();
        slow[0].wall_ms = 500;
        assert_eq!(diff_runtime_rows(&base, &slow, 20).len(), 1);
        let mut tiny = base.clone();
        tiny[0].wall_ms = 10;
        let mut tiny_slow = tiny.clone();
        tiny_slow[0].wall_ms = 100;
        assert!(diff_runtime_rows(&tiny, &tiny_slow, 20).is_empty());
        // Missing row: flagged.
        assert_eq!(diff_runtime_rows(&base, &[], 20).len(), 1);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let s = t.render();
        assert!(s.contains("| a   | bb |"));
        assert!(s.lines().count() == 4);
    }
}
