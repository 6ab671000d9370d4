//! Shared experiment plumbing for the table/figure binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's experiment index); this library holds the
//! parameter sets, measurement records and small table/CSV writers they
//! share, plus the one bench schema behind the four gated `BENCH_*.json`
//! files: a generic [`Row`], the [`Schema`] tables ([`SOLVER`],
//! [`EPOCHS`], [`RUNTIME`], [`GOSSIP`]) and the [`gate`] driver.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use swiper_core::{
    Mode, Ratio, Solution, Swiper, TicketAssignment, WeightQualification, WeightRestriction,
    WeightSeparation, Weights,
};
use swiper_net::{MessageSize, Protocol, RuntimeReport, SendNodes};

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

/// One cell of a bench [`Row`]: a label or an unsigned count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A label such as a chain, protocol or backend name.
    Str(String),
    /// A counter or measurement (`u128`: ticket totals outgrow `u64`).
    Num(u128),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Num(n) => write!(f, "{n}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Num(n.into())
    }
}

impl From<u128> for Value {
    fn from(n: u128) -> Self {
        Value::Num(n)
    }
}

/// One measurement row of a `BENCH_*.json` file: ordered `(field, value)`
/// pairs. A column the cell did not measure is simply absent — the row
/// never claims a zero it did not observe.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row(Vec<(&'static str, Value)>);

impl Row {
    /// Builder form of [`Row::set`].
    #[must_use]
    pub fn with(mut self, field: &'static str, value: impl Into<Value>) -> Self {
        self.set(field, value);
        self
    }

    /// Sets `field`, replacing an earlier value.
    pub fn set(&mut self, field: &'static str, value: impl Into<Value>) {
        let value = value.into();
        match self.0.iter_mut().find(|(name, _)| *name == field) {
            Some(cell) => cell.1 = value,
            None => self.0.push((field, value)),
        }
    }

    /// The value of `field`, if the row carries it.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.0.iter().find(|(name, _)| *name == field).map(|(_, v)| v)
    }

    /// The numeric value of `field`, if the row carries one.
    pub fn num(&self, field: &str) -> Option<u128> {
        match self.get(field) {
            Some(&Value::Num(n)) => Some(n),
            _ => None,
        }
    }

    /// The label in `field`, if the row carries one.
    pub fn text(&self, field: &str) -> Option<&str> {
        match self.get(field) {
            Some(Value::Str(s)) => Some(s),
            _ => None,
        }
    }
}

/// How [`Schema::diff`] holds one column of a fresh run to the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Part of the row identity: baseline and fresh rows are matched on
    /// the values of all `Key` fields.
    Key,
    /// Seed-deterministic: must equal the baseline exactly.
    Exact,
    /// [`Gate::Exact`] on rows whose field `.0` holds the label `.1`,
    /// [`Gate::Info`] on the others.
    ExactIf(&'static str, &'static str),
    /// [`Gate::Exact`] on rows whose field `.0` does *not* hold `.1`.
    ExactUnless(&'static str, &'static str),
    /// Wall-clock milliseconds: regresses when it exceeds the baseline by
    /// more than [`BENCH_WALL_TOL_PCT`] percent and both sides are at or
    /// above [`BENCH_WALL_FLOOR_MS`].
    Wall,
    /// Environmental or schedule-dependent: recorded, never gated.
    Info,
}

impl Gate {
    fn exact_for(self, row: &Row) -> bool {
        match self {
            Gate::Exact => true,
            Gate::ExactIf(field, label) => row.text(field) == Some(label),
            Gate::ExactUnless(field, label) => row.text(field) != Some(label),
            Gate::Key | Gate::Wall | Gate::Info => false,
        }
    }
}

/// One column of a [`Schema`].
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// JSON key.
    pub name: &'static str,
    /// How a fresh run is held to the baseline on this column.
    pub gate: Gate,
    /// JSON literal the lenient parser substitutes when a row lacks the
    /// column (older files with fewer columns still diff); `None` leaves
    /// the column absent.
    default: Option<&'static str>,
}

impl Field {
    /// A count; rows without it parse as 0.
    pub const fn num(name: &'static str, gate: Gate) -> Self {
        Field { name, gate, default: Some("0") }
    }

    /// A label; rows without it parse as the empty string.
    pub const fn text(name: &'static str, gate: Gate) -> Self {
        Field { name, gate, default: Some("\"\"") }
    }

    /// A column only some rows measure; rows without it stay without it.
    pub const fn optional(name: &'static str, gate: Gate) -> Self {
        Field { name, gate, default: None }
    }
}

/// Wall-clock floor below which timing rows are treated as noise and not
/// regression-gated.
pub const BENCH_WALL_FLOOR_MS: u128 = 250;

/// Percent a [`Gate::Wall`] column may exceed its baseline by.
pub const BENCH_WALL_TOL_PCT: u128 = 20;

/// The shape of one `BENCH_*.json` file: its schema tag and its columns in
/// file order. Adding a column is one [`Field`] line in one of the four
/// tables below — rendering, parsing, diffing and the terminal table all
/// follow from it.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    /// Schema tag written into (and required from) the document.
    pub tag: &'static str,
    /// Columns in file order. The first is the family name every row line
    /// carries; the parser recognises rows by it.
    pub fields: &'static [Field],
}

impl Schema {
    /// The values of the [`Gate::Key`] fields: the identity rows are
    /// matched on.
    pub fn key<'a>(&self, row: &'a Row) -> Vec<Option<&'a Value>> {
        self.key_fields().map(|f| row.get(f.name)).collect()
    }

    fn key_fields(&self) -> impl Iterator<Item = &'static Field> {
        self.fields.iter().filter(|f| f.gate == Gate::Key)
    }

    /// Human-readable form of [`Schema::key`], e.g.
    /// `runtime_scale/bracha/socket/n=16/workers=2`.
    pub fn id(&self, row: &Row) -> String {
        let parts = self.key_fields().filter_map(|f| match row.get(f.name)? {
            Value::Str(s) => Some(s.clone()),
            Value::Num(n) => Some(format!("{}={n}", f.name)),
        });
        parts.collect::<Vec<_>>().join("/")
    }

    /// Serializes rows as the document: a schema header plus one row
    /// object per line (line-oriented so the lenient parser and plain
    /// `diff` both stay useful). Hand-rolled — the vendored serde shim is
    /// marker-only.
    ///
    /// # Panics
    ///
    /// Panics when a row carries a field the schema does not list.
    pub fn render(&self, rows: &[Row]) -> String {
        let mut out = format!("{{\n  \"schema\": \"{}\",\n  \"rows\": [\n", self.tag);
        for (i, row) in rows.iter().enumerate() {
            for (name, _) in &row.0 {
                assert!(
                    self.fields.iter().any(|f| f.name == *name),
                    "{}: no `{name}`",
                    self.tag
                );
            }
            let cells = self.fields.iter().filter_map(|f| match row.get(f.name)? {
                Value::Str(s) => Some(format!("\"{}\":\"{s}\"", f.name)),
                Value::Num(n) => Some(format!("\"{}\":{n}", f.name)),
            });
            let line = cells.collect::<Vec<_>>().join(",");
            let _ =
                writeln!(out, "    {{{line}}}{}", if i + 1 == rows.len() { "" } else { "," });
        }
        out + "  ]\n}\n"
    }

    /// Parses a document produced by [`Schema::render`]. Lenient and
    /// line-oriented: any line carrying the first field is a row, and a
    /// column the line lacks takes its [`Field`] default.
    ///
    /// # Errors
    ///
    /// Returns a description when the schema tag is absent or unexpected.
    pub fn parse(&self, doc: &str) -> Result<Vec<Row>, String> {
        if !doc.contains(&format!("\"schema\": \"{}\"", self.tag)) {
            return Err(format!("missing or unexpected schema tag (want {})", self.tag));
        }
        let row_lines = doc.lines().filter(|l| json_field(l, self.fields[0].name).is_some());
        let parse_row = |line: &str| {
            let cells = self.fields.iter().filter_map(|f| {
                let value = json_field(line, f.name).or_else(|| json_value(f.default?));
                Some((f.name, value?))
            });
            Row(cells.collect())
        };
        Ok(row_lines.map(parse_row).collect())
    }

    /// Compares a fresh run against baseline rows and returns
    /// human-readable regression descriptions (empty = pass), each column
    /// held as its [`Gate`] says. A baseline row missing from the fresh
    /// run is a regression — scope the baseline with [`Schema::scoped`]
    /// first; extra fresh rows are not.
    pub fn diff(&self, baseline: &[Row], fresh: &[Row]) -> Vec<String> {
        let mut problems = Vec::new();
        for old in baseline {
            let id = self.id(old);
            let Some(new) = fresh.iter().find(|r| self.key(r) == self.key(old)) else {
                problems.push(format!("row {id} missing from fresh run"));
                continue;
            };
            let show = |v: Option<&Value>| v.map_or("absent".into(), Value::to_string);
            for f in self.fields {
                let (was, now) = (old.get(f.name), new.get(f.name));
                if f.gate.exact_for(old) && was != now {
                    let (was, now) = (show(was), show(now));
                    problems.push(format!("{id}: {} changed {was} -> {now}", f.name));
                }
                let (was, now) = (old.num(f.name).unwrap_or(0), new.num(f.name).unwrap_or(0));
                if f.gate == Gate::Wall
                    && was.min(now) >= BENCH_WALL_FLOOR_MS
                    && now * 100 > was * (100 + BENCH_WALL_TOL_PCT)
                {
                    problems.push(format!(
                        "{id}: {} regressed {was} -> {now} (> {BENCH_WALL_TOL_PCT}%)",
                        f.name
                    ));
                }
            }
        }
        problems
    }

    /// The baseline rows whose key is among the `planned` cells' keys —
    /// what a sweep was *asked* to produce, decided before it ran, so a
    /// sweep that silently loses a cell fails its diff while a shortened
    /// sweep still diffs against the committed full file.
    pub fn scoped(&self, baseline: Vec<Row>, planned: &[Row]) -> Vec<Row> {
        let planned: Vec<_> = planned.iter().map(|p| self.key(p)).collect();
        baseline.into_iter().filter(|b| planned.contains(&self.key(b))).collect()
    }

    /// Renders rows as an aligned terminal table, one column per field
    /// (`-` where a row does not carry it).
    pub fn table(&self, rows: &[Row]) -> String {
        let mut table = TextTable::new(self.fields.iter().map(|f| f.name).collect());
        for row in rows {
            let cell = |f: &Field| row.get(f.name).map_or("-".into(), Value::to_string);
            table.row(self.fields.iter().map(cell).collect());
        }
        table.render()
    }
}

fn json_field(line: &str, key: &str) -> Option<Value> {
    json_value(&line[line.find(&format!("\"{key}\":"))? + key.len() + 3..])
}

fn json_value(text: &str) -> Option<Value> {
    if let Some(tail) = text.strip_prefix('"') {
        return Some(Value::Str(tail[..tail.find('"')?].into()));
    }
    let digits = &text[..text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len())];
    digits.parse().ok().map(Value::Num)
}

/// `BENCH_solver.json`, written by `solver_scale`: WR(1/3, 1/2) on seeded
/// whale-skewed populations, solved cold, warm and certified. Counters
/// are bit-deterministic for a given seed and code version; `wall_ms` and
/// `peak_rss_kb` are environmental.
pub const SOLVER: Schema = Schema {
    tag: "swiper-bench-solver/v1",
    fields: &[
        // Benchmark family, always `solver_scale`.
        Field::text("bench", Gate::Key),
        // Case within the family: `cold` / `warm` / `certified`.
        Field::text("case", Gate::Key),
        // Population size.
        Field::num("n", Gate::Key),
        // RNG seed the weight generator ran with — rows are reproducible
        // from `(bench, case, n, seed)` alone.
        Field::num("seed", Gate::Info),
        // Wall-clock milliseconds.
        Field::num("wall_ms", Gate::Wall),
        // Total tickets allocated by the published solution.
        Field::num("tickets", Gate::Exact),
        // Exact-DP invocations across the run.
        Field::num("dp_invocations", Gate::Exact),
        // Checks settled by replaying a delta-stable certificate.
        Field::num("certificate_skips", Gate::Exact),
        // Family members materialized and checked.
        Field::num("candidates_checked", Gate::Exact),
        // Probes answered by the incremental family cursor reusing its
        // interval state instead of rebuilding candidates from scratch.
        Field::num("cursor_advances", Gate::Exact),
        // O(n) grid-count passes the family cursor ran to find the grid
        // intervals of the probed totals.
        Field::num("grid_counts", Gate::Exact),
        // Estimated probes the sampling-guided bracket avoided versus a
        // cold bisection of the full `[0, bound]` range.
        Field::num("probes_saved", Gate::Exact),
        // Checks settled by a certificate found under a *nearby* stored
        // total (coarse key); disjoint from `certificate_skips`.
        Field::num("coarse_cert_hits", Gate::Exact),
        // Per-cell growth of the process peak RSS in kilobytes: `VmHWM`
        // delta across the cell's measured phase. `VmHWM` is a
        // process-lifetime high-water mark, so this is a monotone-floor
        // decomposition — a cell whose footprint fits inside an earlier
        // cell's peak reports 0, never an inherited peak. 0 when `/proc`
        // is unavailable.
        Field::num("peak_rss_kb", Gate::Info),
    ],
};

/// Solver invariant beyond the per-field gates: the certified n = 10⁶ row
/// must settle at least one check from certificates (exact or coarse), or
/// the coarse certificate index has stopped hitting at scale.
pub fn solver_invariants(fresh: &[Row]) -> Vec<String> {
    let count = |r: &Row, f| r.num(f).unwrap_or(0);
    let at_scale = fresh
        .iter()
        .filter(|r| r.text("case") == Some("certified") && count(r, "n") == 1_000_000);
    at_scale
        .filter(|r| count(r, "certificate_skips") + count(r, "coarse_cert_hits") == 0)
        .map(|r| format!("{}: warm replay settled zero checks from certificates", SOLVER.id(r)))
        .collect()
}

/// `BENCH_epochs.json`, written by `epochs`: one chain × churn replay
/// through the incremental re-solve loop per row. The replay is
/// seed-deterministic, so the solver-work counters are exact; the schema
/// has no [`Gate::Wall`] column, so its diff cannot flake on a slow host.
pub const EPOCHS: Schema = Schema {
    tag: "swiper-bench-epochs/v1",
    fields: &[
        // Benchmark family, always `epochs`.
        Field::text("bench", Gate::Key),
        // Chain the snapshot stream replayed, e.g. `Aptos`.
        Field::text("chain", Gate::Key),
        // Churned parties per epoch, percent of the population.
        Field::num("churn_pct", Gate::Key),
        // Epochs replayed.
        Field::num("epochs", Gate::Exact),
        // Epochs where the warm bracket landed on a different (equally
        // valid) local minimum than cold bisection — the non-monotone
        // dips discussed in `Swiper::resolve_from`. A legitimate degree
        // of freedom of the accelerated path (published results stay
        // cold-identical), so never gated.
        Field::num("bracket_divergence", Gate::Info),
        // Certificate skips across the replay (exact-total key).
        Field::num("cert_skips", Gate::Exact),
        // Warm-pass DP invocations with certificates on.
        Field::num("warm_dp", Gate::Exact),
        // Warm-pass DP invocations with certificates off.
        Field::num("plain_dp", Gate::Exact),
        // Fresh cold-solve DP invocations (the no-machinery yardstick).
        Field::num("cold_dp", Gate::Exact),
        // Verdict-cache hit rate over the replay, rounded percent.
        Field::num("hit_rate_pct", Gate::Exact),
        // Microseconds inside `Reconfigurator::advance` summed over the
        // replay, certificates on (verified mode: warm pass plus the
        // cold re-derivation through the shared cache).
        Field::optional("certified_us", Gate::Info),
        // The same loop with certificates off; the gap to `certified_us`
        // is what certificates are worth in wall-clock terms.
        Field::optional("plain_us", Gate::Info),
        // Microseconds of the independent fresh cold solves.
        Field::optional("cold_us", Gate::Info),
    ],
};

/// `BENCH_runtime.json`, written by `runtime_scale`: a protocol chain
/// driven to quiescence on the `ThreadedRuntime` and replay-checked
/// against its simulator twin. `commits` and `twin_ok` are
/// schedule-independent; message counts, latency percentiles and RSS vary
/// with the OS schedule.
pub const RUNTIME: Schema = Schema {
    tag: "swiper-bench-runtime/v1",
    fields: &[
        // Benchmark family, always `runtime_scale`.
        Field::text("bench", Gate::Key),
        // Protocol chain: `bracha` / `aba` / `smr`.
        Field::text("protocol", Gate::Key),
        // Transport backend: `channel` (in-process inboxes) or `socket`
        // (loopback TCP through the wire codecs). Rows written before the
        // axis existed are channel rows: that was the only backend.
        Field { name: "transport", gate: Gate::Key, default: Some("\"channel\"") },
        // Population size.
        Field::num("n", Gate::Key),
        // Worker threads the runtime ran with.
        Field::num("workers", Gate::Key),
        // Wall-clock milliseconds of the run.
        Field::num("wall_ms", Gate::Wall),
        // Protocol-level progress at quiescence (deliveries, decisions,
        // or committed rounds — deterministic for an honest chain).
        Field::num("commits", Gate::Exact),
        // Commit throughput, rounded commits per second.
        Field::num("commits_per_sec", Gate::Info),
        // Messages delivered (schedule-dependent for halting protocols).
        Field::num("msgs", Gate::Info),
        // Delivery throughput, rounded messages per second.
        Field::num("msgs_per_sec", Gate::Info),
        // Send→process latency percentiles, microseconds.
        Field::num("p50_us", Gate::Info),
        Field::num("p95_us", Gate::Info),
        Field::num("p99_us", Gate::Info),
        // Resident set size in kilobytes sampled at quiescence (workers
        // joined, queues drained), falling back to the process `VmHWM`
        // peak when `VmRSS` is unavailable: a `VmHWM` delta reads 0 for
        // any cell that fits inside a predecessor's peak.
        Field::num("peak_rss_kb", Gate::Info),
        // 1 when the delivery trace replayed bit-identically on the
        // simulator twin, 0 otherwise; a flip means the determinism-twin
        // contract broke.
        Field::num("twin_ok", Gate::Exact),
        // Cores the host offered (`available_parallelism`): a row measured
        // on one or two cores says so instead of reading as "workers do
        // not scale".
        Field::optional("cores", Gate::Info),
    ],
};

/// `BENCH_gossip.json`, written by `gossip_scale`: weighted Bracha over a
/// dissemination backend on one substrate. Simulator rows are
/// seed-deterministic, so their counters are exact; on the runtime
/// substrates message counts are OS-schedule noise and the twin verdict is
/// the exact column.
pub const GOSSIP: Schema = Schema {
    tag: "swiper-bench-gossip/v1",
    fields: &[
        // Benchmark family, always `gossip_scale`.
        Field::text("bench", Gate::Key),
        // Dissemination backend: `overlay` or `fullmesh`.
        Field::text("backend", Gate::Key),
        // Execution substrate: `sim`, `threaded` or `socket`.
        Field::text("substrate", Gate::Key),
        // Population size.
        Field::num("n", Gate::Key),
        // RNG seed (overlay view construction and the delay schedule).
        Field::num("seed", Gate::Key),
        // Wall-clock milliseconds of the run.
        Field::num("wall_ms", Gate::Wall),
        // Nodes that delivered the payload, percent of the population.
        Field::num("reach_pct", Gate::Exact),
        // Maximum eager-hop count observed — rounds to full delivery.
        Field::num("rounds", Gate::ExactIf("substrate", "sim")),
        // Total messages the run sent (overlay control + data frames).
        Field::num("msgs", Gate::ExactIf("substrate", "sim")),
        // Unique first-receipt payload deliveries across the fleet.
        Field::num("deliveries", Gate::ExactIf("substrate", "sim")),
        // Messages per delivery, fixed-point ×100 (`1042` = 10.42).
        Field::num("msgs_per_delivery_x100", Gate::ExactIf("substrate", "sim")),
        // Payload-bearing `Eager` frames per delivery, fixed-point ×100: 100
        // is a spanning tree; the rest of `msgs_per_delivery_x100` is the
        // overlay's control traffic and the inner protocol's unicasts.
        Field::num("payload_msgs_per_delivery_x100", Gate::ExactIf("substrate", "sim")),
        // Bytes sent (every frame, payload and control) per delivery.
        Field::num("bytes_per_delivery", Gate::ExactIf("substrate", "sim")),
        // The n²-flood yardstick in the same unit: a reliable full-mesh
        // flood costs `n` messages per delivery.
        Field::num("baseline_msgs_per_delivery", Gate::Info),
        // Mean active-view degree across the fleet, fixed-point ×100.
        Field::num("mean_degree_x100", Gate::ExactIf("substrate", "sim")),
        // Send→process latency percentiles, microseconds. Runtime rows
        // only: the simulator has no clock to time against.
        Field::optional("p50_us", Gate::Info),
        Field::optional("p95_us", Gate::Info),
        Field::optional("p99_us", Gate::Info),
        // 1 when the delivery trace replayed bit-identically on the
        // simulator twin. Runtime rows only: a simulator run has no twin.
        Field::optional("twin_ok", Gate::ExactUnless("substrate", "sim")),
    ],
};

/// Population size from which the overlay-beats-flooding economy gate
/// applies: below it the log-degree overlay and the mesh are too close
/// for the comparison to be meaningful.
pub const GOSSIP_ECONOMY_FLOOR_N: u128 = 256;

/// Gossip acceptance invariants every fresh row is held to, baseline or
/// not: reach must be 100%, and `overlay` rows at
/// `n >= `[`GOSSIP_ECONOMY_FLOOR_N`] must spend strictly fewer messages
/// per delivery than the n²-flood baseline of `n`.
pub fn gossip_invariants(fresh: &[Row]) -> Vec<String> {
    let mut problems = Vec::new();
    for row in fresh {
        let (id, count) = (GOSSIP.id(row), |f| row.num(f).unwrap_or(0));
        if count("reach_pct") != 100 {
            problems.push(format!("{id}: reach {}% != 100%", count("reach_pct")));
        }
        let (cost, flood) =
            (count("msgs_per_delivery_x100"), count("baseline_msgs_per_delivery"));
        if row.text("backend") == Some("overlay")
            && count("n") >= GOSSIP_ECONOMY_FLOOR_N
            && cost >= flood * 100
        {
            problems.push(format!(
                "{id}: msgs/delivery {:.2} does not beat the n²-flood baseline of {flood}",
                cost as f64 / 100.0
            ));
        }
    }
    problems
}

/// Whether a traced runtime run replays bit-identically — same outputs,
/// same metrics — on `fresh` automata, which must be constructed exactly
/// as the live run's were. Says why on stderr when it does not.
pub fn twin_ok<M: Clone + MessageSize>(full: &RuntimeReport, fresh: SendNodes<M>) -> bool {
    let fresh = fresh.into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect();
    match full.trace.replay(fresh) {
        Ok(r) if r.outputs == full.report.outputs && r.metrics == full.report.metrics => true,
        Ok(_) => {
            eprintln!("twin replay ran but outputs or metrics differ");
            false
        }
        Err(e) => {
            eprintln!("{e}");
            false
        }
    }
}

/// The shared tail of the four gated bench bins: prints the table, writes
/// `out`, diffs against the `diff` baseline scoped to the `planned` cells
/// ([`Schema::scoped`]), and turns `problems` — the bin's own findings,
/// plus any fresh row whose `twin_ok` is 0, plus the diff's — into
/// `REGRESSION:` lines and the exit code.
pub fn gate(
    schema: &Schema,
    rows: &[Row],
    out: &str,
    diff: Option<&str>,
    planned: &[Row],
    mut problems: Vec<String>,
) -> ExitCode {
    print!("{}", schema.table(rows));
    fs::write(out, schema.render(rows)).expect("write benchmark file");
    println!("wrote {out}");
    let diverged = rows.iter().filter(|r| r.num("twin_ok") == Some(0));
    problems.extend(diverged.map(|r| {
        format!("{}: twin replay DIVERGED — the determinism contract is broken", schema.id(r))
    }));
    if let Some(path) = diff {
        let doc = fs::read_to_string(path).map_err(|e| e.to_string());
        match doc.and_then(|doc| schema.parse(&doc)) {
            Ok(baseline) => {
                let total = baseline.len();
                let in_scope = schema.scoped(baseline, planned);
                let found = schema.diff(&in_scope, rows);
                println!(
                    "diff vs {path}: {} problem(s) on {} planned baseline rows ({} out of scope)",
                    found.len(),
                    in_scope.len(),
                    total - in_scope.len()
                );
                problems.extend(found);
            }
            Err(e) => problems.push(format!("baseline {path}: {e}")),
        }
    }
    verdict(&problems)
}

/// Prints one `REGRESSION:` line per problem; success iff there are none.
pub fn verdict(problems: &[String]) -> ExitCode {
    for p in problems {
        eprintln!("REGRESSION: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Peak resident set size of this process in kilobytes, from
/// `/proc/self/status` (`VmHWM`). Returns 0 when unavailable (non-Linux).
///
/// `VmHWM` is monotone over the process lifetime: it never decreases, so
/// in a multi-cell sweep every cell after the largest would inherit its
/// peak. Benchmark binaries must therefore report **per-cell deltas** —
/// sample before the measured phase and subtract (`saturating_sub`), as
/// the `peak_rss_kb` column of [`SOLVER`] specifies.
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

    /// The four schemas, each with the file this PR commits for it.
    const COMMITTED: [(Schema, &str); 4] = [
        (SOLVER, include_str!("../../../BENCH_solver.json")),
        (EPOCHS, include_str!("../../../BENCH_epochs.json")),
        (RUNTIME, include_str!("../../../BENCH_runtime.json")),
        (GOSSIP, include_str!("../../../BENCH_gossip.json")),
    ];

    #[test]
    fn committed_files_roundtrip_byte_for_byte() {
        for (schema, doc) in COMMITTED {
            let rows = schema.parse(doc).unwrap();
            assert!(!rows.is_empty(), "{}", schema.tag);
            assert_eq!(schema.render(&rows), doc, "{}", schema.tag);
        }
    }

    #[test]
    fn a_document_parses_under_its_own_schema_only() {
        for (i, (schema, _)) in COMMITTED.iter().enumerate() {
            assert!(schema.parse("{}").is_err(), "schema tag is mandatory");
            for (j, (other, doc)) in COMMITTED.iter().enumerate() {
                assert_eq!(
                    schema.parse(doc).is_ok(),
                    i == j,
                    "{} on {}",
                    schema.tag,
                    other.tag
                );
            }
        }
    }

    /// Every field of every committed row, perturbed in turn: the diff
    /// reports exactly one problem, naming the field, when the field's
    /// gate class covers that row, and nothing otherwise.
    #[test]
    fn every_field_is_gated_as_its_class_says() {
        for (schema, doc) in COMMITTED {
            for mut base in schema.parse(doc).unwrap() {
                // Lift walls above the noise floor so the Wall class bites.
                for f in schema.fields.iter().filter(|f| f.gate == Gate::Wall) {
                    base.set(f.name, 400u64);
                }
                let baseline = [base.clone()];
                assert!(schema.diff(&baseline, &baseline).is_empty());
                for f in schema.fields {
                    let mut fresh = base.clone();
                    match base.get(f.name) {
                        Some(Value::Str(s)) => fresh.set(f.name, format!("{s}x").as_str()),
                        Some(Value::Num(n)) => fresh.set(f.name, n * 2 + 1),
                        None => fresh.set(f.name, 1u64),
                    }
                    let problems = schema.diff(&baseline, &[fresh]);
                    let id = format!("{} `{}`: {problems:?}", schema.id(&base), f.name);
                    if f.gate == Gate::Key {
                        assert_eq!(problems.len(), 1, "{id}");
                        assert!(problems[0].contains("missing from fresh run"), "{id}");
                    } else if f.gate == Gate::Wall || f.gate.exact_for(&base) {
                        assert_eq!(problems.len(), 1, "{id}");
                        assert!(problems[0].contains(&format!(": {} ", f.name)), "{id}");
                    } else {
                        assert!(problems.is_empty(), "{id}");
                    }
                }
            }
        }
        // The conditional classes saw both sides: the committed gossip
        // file carries simulator rows and runtime rows.
        let gossip = GOSSIP.parse(COMMITTED[3].1).unwrap();
        assert!(gossip.iter().any(|r| r.text("substrate") == Some("sim")));
        assert!(gossip.iter().any(|r| r.num("twin_ok") == Some(1)));
    }

    fn document(schema: &Schema, row_line: &str) -> String {
        format!(
            "{{\n  \"schema\": \"{}\",\n  \"rows\": [\n    {row_line}\n  ]\n}}\n",
            schema.tag
        )
    }

    #[test]
    fn rows_without_the_accelerator_columns_parse_as_zero() {
        // Baselines written before the cursor/sampler/coarse counters (and
        // the seed column) existed must keep parsing — the lenient parser
        // defaults every missing numeric field to 0.
        let doc = document(
            &SOLVER,
            "{\"bench\":\"solver_scale\",\"case\":\"cold\",\"n\":1000,\"wall_ms\":12,\
             \"tickets\":307,\"dp_invocations\":2,\"certificate_skips\":0,\
             \"candidates_checked\":17,\"peak_rss_kb\":100}",
        );
        let rows = SOLVER.parse(&doc).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].num("tickets"), Some(307));
        for absent in
            ["cursor_advances", "grid_counts", "probes_saved", "coarse_cert_hits", "seed"]
        {
            assert_eq!(rows[0].num(absent), Some(0), "{absent}");
        }
    }

    /// A runtime row as written before the transport axis existed.
    fn old_runtime_row() -> Row {
        let doc = document(
            &RUNTIME,
            "{\"bench\":\"runtime_scale\",\"protocol\":\"aba\",\"n\":8,\"workers\":2,\
             \"commits\":8,\"twin_ok\":1}",
        );
        RUNTIME.parse(&doc).unwrap().remove(0)
    }

    fn runtime_row(transport: &str, wall: u64) -> Row {
        old_runtime_row().with("transport", transport).with("wall_ms", wall)
    }

    #[test]
    fn rows_without_a_transport_column_parse_as_channel() {
        // Baselines written before the transport axis existed must keep
        // diffing as channel rows; columns only some rows measure stay
        // absent instead of reading as a measured zero.
        let row = old_runtime_row();
        assert_eq!(row.text("transport"), Some("channel"));
        assert_eq!(row.get("cores"), None);
    }

    #[test]
    fn transport_is_part_of_the_row_identity() {
        // A socket row never matches a channel baseline (and vice versa):
        // the two backends have independent trajectories.
        let both = [runtime_row("channel", 300), runtime_row("socket", 300)];
        let problems = RUNTIME.diff(&both[..1], &both[1..]);
        assert_eq!(problems.len(), 1, "baseline row unmatched: {problems:?}");
        assert!(RUNTIME.diff(&both, &both).is_empty());
    }

    #[test]
    fn wall_is_gated_with_tolerance_above_the_floor_only() {
        let wall = |was, now| {
            RUNTIME.diff(&[runtime_row("channel", was)], &[runtime_row("channel", now)])
        };
        assert!(wall(400, 470).is_empty(), "within 20%");
        assert_eq!(wall(400, 500).len(), 1, "beyond 20%");
        assert!(wall(10, 100).is_empty(), "both below the floor: noise");
        assert!(wall(500, 400).is_empty(), "faster is never a regression");
    }

    #[test]
    fn the_baseline_is_scoped_by_what_was_planned_not_by_what_ran() {
        let cell = |churn: u64| Row::default().with("bench", "epochs").with("churn_pct", churn);
        let baseline = vec![cell(1), cell(5), cell(20)];
        // Planned 1% and 5%, but the run lost the 5% cell: one problem.
        // The 20% row was never asked for: out of scope, no problem.
        let in_scope = EPOCHS.scoped(baseline, &[cell(1), cell(5)]);
        assert_eq!(in_scope.len(), 2);
        let problems = EPOCHS.diff(&in_scope, &[cell(1)]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("churn_pct=5 missing from fresh run"), "{problems:?}");
    }

    fn gossip_row(backend: &str, n: u64, reach_pct: u64, cost_x100: u64) -> Row {
        Row::default()
            .with("bench", "gossip_scale")
            .with("backend", backend)
            .with("n", n)
            .with("reach_pct", reach_pct)
            .with("msgs_per_delivery_x100", cost_x100)
            .with("baseline_msgs_per_delivery", n)
    }

    #[test]
    fn gossip_invariants_hold_fresh_rows_to_the_acceptance_criteria() {
        // Partial reach flags.
        assert_eq!(gossip_invariants(&[gossip_row("overlay", 64, 98, 1015)]).len(), 1);
        // Above the economy floor, overlay msgs/delivery must beat the
        // n²-flood yardstick of n…
        let problems = gossip_invariants(&[gossip_row("overlay", 256, 100, 256 * 100)]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("baseline"), "{problems:?}");
        assert!(gossip_invariants(&[gossip_row("overlay", 256, 100, 1015)]).is_empty());
        // …but small populations and the fullmesh yardstick itself are
        // exempt.
        assert!(gossip_invariants(&[gossip_row("overlay", 64, 100, 64 * 100)]).is_empty());
        assert!(gossip_invariants(&[gossip_row("fullmesh", 256, 100, 256 * 100)]).is_empty());
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
