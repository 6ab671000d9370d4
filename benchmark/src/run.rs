//! Measuring one workload: repeat its episode, reduce to named metrics.
//!
//! **Which statistic.** Every episode of a seed does identical work, so
//! a run samples each piece of that work once per episode: each stage of
//! the timed region, each operation, the set-up. The run's value for a
//! piece is the *lowest decile* of its samples ([`typical`]), and a metric
//! is built from those: `episode_ms` is the sum over the stages,
//! `op_ms_p50` the median over the operations.
//!
//! Per piece, not per episode, so that one disturbed solve does not spoil
//! the other fifteen of its episode: a quarter-second stage finds a quiet
//! moment of the shared host far more often than a two-second episode.
//! A low quantile, because interference adds time and comes in phases that
//! outlast several episodes: under two neighbours that were busy for 8–25 s
//! at a time, the medians of ten runs of `solver_epochs` spread 12–22 %
//! and the low quantiles 4–6 %. Not the minimum, because now and then a
//! sample runs a fifth faster than the rest (presumably the sibling
//! hyperthread idle), and on a quiet host the minimum of 20–40 samples
//! spread up to twice as far as their decile. With fewer than eleven
//! samples the decile is the minimum. The report prints the episodes'
//! median and quartiles beside each metric; tails are `e2e.op_ms_p99`'s job.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use crate::spec::spec;
use crate::stats;
use crate::trace::{self_times, Tracer};
use crate::workloads::{ms, Config, Episode, Workload};

/// How long to keep repeating the episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// A fixed number of (untraced) episodes.
    Reps(usize),
    /// Start another episode while it is expected to end within this
    /// long; at least one runs.
    Seconds(f64),
}

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    pub budget: Budget,
    /// Alternate untraced and traced episodes and report per-layer
    /// metrics; otherwise every episode is untraced and the report is
    /// end-to-end.
    pub trace: bool,
}

/// The run's value for one piece of work sampled once per episode: the
/// nearest-rank lowest decile, so a value that was observed.
pub fn typical(samples: &[f64]) -> f64 {
    stats::percentile(samples, 10.0).unwrap_or(0.0)
}

/// [`typical`] of each position of the episodes' `series` (all of one
/// length: every episode of a seed runs the same stages and operations).
fn typical_by_position(episodes: &[Episode], series: fn(&Episode) -> &[f64]) -> Vec<f64> {
    let len = episodes.iter().map(|e| series(e).len()).min().unwrap_or(0);
    (0..len)
        .map(|i| typical(&episodes.iter().map(|e| series(e)[i]).collect::<Vec<f64>>()))
        .collect()
}

/// Median, quartiles and count of one timing's per-episode samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub samples: usize,
}

impl Summary {
    fn of(samples: &[f64]) -> Summary {
        let median = stats::median(samples).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(samples).unwrap_or((median, median));
        Summary { median, q1, q3, samples: samples.len() }
    }
}

/// What a run of one workload measured.
#[derive(Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub workers: usize,
    pub nproc: usize,
    pub episodes: usize,
    pub traced_episodes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// First failed correctness check, if any.
    pub error: Option<String>,
    /// The metrics to report, by name: end-to-end for an untraced plan,
    /// per-layer for a traced one.
    pub metrics: BTreeMap<String, f64>,
    /// The untraced episodes' timings, for the report.
    pub detail: Vec<(&'static str, Summary)>,
    /// Spans of the last traced episode, as a JSON document.
    pub trace_json: Option<String>,
    /// Per-span-name `(self ns, count)` of the last traced episode.
    pub self_times: Vec<(&'static str, u64, u64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.error.is_none() && self.failed == 0
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// `max(1, nproc − 1)`: the socket pump thread gets the remaining core.
pub fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// Peak resident set of this process so far, MB (`VmHWM`; 0 off Linux).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Two small hashing loops: the `crypto` layer has no boundary the
/// workloads cross from outside, so its two hot calls are timed directly.
fn crypto_layers(out: &mut BTreeMap<String, f64>) {
    let blob = vec![0xA5u8; 32 * 1024];
    let reps = 64;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(swiper_crypto::hash::digest(std::hint::black_box(&blob)));
    }
    let mb = (reps * blob.len()) as f64 / 1e6;
    out.insert("crypto.hash_mb_per_s".into(), mb / t.elapsed().as_secs_f64());
    let (a, b) = ([7u8; 8], [9u8; 40]);
    let reps = 20_000;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(swiper_crypto::hash::digest_parts(std::hint::black_box(&[
            &a, &b,
        ])));
    }
    out.insert("crypto.hash_ns_small".into(), t.elapsed().as_nanos() as f64 / reps as f64);
}

/// Set-ups repeated on their own after one episode.
const EXTRA_SETUPS_PER_EPISODE: usize = 8;

/// Set-up repeated on its own after an episode that took `episode`, for
/// at most a twentieth of that time. A deployed workload's set-up takes a
/// fraction of a millisecond; sampling it all through the run, not only at
/// the episodes' own set-ups, is what makes its decile repeatable. A
/// set-up too long for the allowance (an epoch-0 solve) is steady enough
/// without.
fn setups_alone(w: Workload, cfg: &Config, episode: Duration, setup: Duration) -> Vec<f64> {
    let cfg = Config { setup_only: true, ..*cfg };
    let (started, allowance) = (Instant::now(), episode.mul_f64(0.05));
    let mut out = Vec::new();
    while out.len() < EXTRA_SETUPS_PER_EPISODE && started.elapsed() + setup <= allowance {
        match w.episode(&cfg, &mut Tracer::new(false)) {
            Ok(ep) => out.push(ep.setup.as_secs_f64()),
            Err(_) => break,
        }
    }
    out
}

/// The per-layer metrics of a traced plan.
fn per_layer(
    plain: &[Episode],
    traced: &[Episode],
    unattributed_ms: &[f64],
    spans: usize,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    // Median over the traced episodes that report a value. (A layer the
    // workload never enters reports none; the result line reads 0.)
    let names: BTreeSet<&'static str> =
        traced.iter().flat_map(|e| e.layers.keys().copied()).collect();
    for name in names {
        let vals: Vec<f64> =
            traced.iter().filter_map(|e| e.layers.get(name).copied()).collect();
        m.insert(name.into(), stats::median(&vals).unwrap_or(0.0));
    }
    crypto_layers(&mut m);
    let ratio = |m: &mut BTreeMap<String, f64>, name: &str, num: &str, den: f64| {
        if let Some(&n) = m.get(num).filter(|_| den > 0.0) {
            m.insert(name.into(), n / den);
        }
    };
    let ops_per_episode = traced.first().map_or(0.0, |e| e.attempted as f64);
    ratio(&mut m, "net.msgs_per_op", "net.msgs", ops_per_episode);
    ratio(&mut m, "net.bytes_per_op", "net.bytes", ops_per_episode);
    let twin_s = m.get("net.twin_replay_ms").map_or(0.0, |ms| ms / 1e3);
    ratio(&mut m, "net.twin_events_per_s", "net.twin_events", twin_s);

    let walls = |eps: &[Episode]| eps.iter().map(|e| ms(e.wall)).collect::<Vec<f64>>();
    let (plain_ms, traced_ms) = (typical(&walls(plain)), typical(&walls(traced)));
    if plain_ms > 0.0 {
        m.insert("bench.trace_overhead_pct".into(), (traced_ms - plain_ms) / plain_ms * 100.0);
    }
    m.insert("bench.unattributed_ms".into(), stats::median(unattributed_ms).unwrap_or(0.0));
    m.insert("bench.spans".into(), spans as f64);
    m.insert("bench.peak_rss_mb".into(), peak_rss_mb());

    // End-to-end figures only some workloads have the samples for, taken
    // on this run's untraced episodes.
    let wall_s: f64 = plain.iter().map(|e| e.wall.as_secs_f64()).sum();
    let ops: u64 = plain.iter().map(|e| e.attempted - e.failed).sum();
    if wall_s > 0.0 {
        m.insert("e2e.ops_per_s".into(), ops as f64 / wall_s);
    }
    let op_ms: Vec<f64> = plain.iter().flat_map(|e| e.op_ms.iter().copied()).collect();
    m.insert("e2e.op_ms_p99".into(), stats::percentile(&op_ms, 99.0).unwrap_or(0.0));
    let failed: u64 = plain.iter().chain(traced).map(|e| e.failed).sum();
    m.insert("e2e.failed_ops".into(), failed as f64);
    m
}

/// Runs the plan. A failed check ends the run; what was measured until
/// then is still reported, with `error` set.
pub fn run(plan: &Plan) -> Outcome {
    let w = plan.workload;
    let cfg = Config {
        seed: plan.seed,
        quick: plan.quick,
        workers: workers(),
        full_checks: false,
        setup_only: false,
    };
    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut last_tracer: Option<Tracer> = None;
    let mut unattributed_ms = Vec::new();
    let mut extra_setups = Vec::new();
    let mut error = None;

    let started = Instant::now();
    let mut last = Duration::ZERO;
    loop {
        let done = plain.len() + traced.len();
        let go_on = match plan.budget {
            Budget::Reps(r) => plain.len() < r,
            Budget::Seconds(s) => done == 0 || (started.elapsed() + last).as_secs_f64() <= s,
        };
        // A traced plan needs one episode of each kind whatever the budget.
        let owed = plan.trace && traced.is_empty();
        if !(go_on || owed) {
            break;
        }
        let trace_this = plan.trace && traced.len() < plain.len();
        let first_of_kind = if trace_this { traced.is_empty() } else { plain.is_empty() };
        let cfg = Config { full_checks: first_of_kind, ..cfg };
        let mut tracer = Tracer::new(trace_this);
        let t = Instant::now();
        let root = tracer.enter("bench.episode", done as u64);
        let result = w.episode(&cfg, &mut tracer);
        tracer.exit(root);
        last = t.elapsed();
        if let (Ok(ep), false) = (&result, plan.trace) {
            extra_setups.extend(setups_alone(w, &cfg, last, ep.setup));
        }
        match result {
            Ok(ep) if trace_this => {
                unattributed_ms.push(self_times(tracer.spans())[0] as f64 / 1e6);
                traced.push(ep);
                last_tracer = Some(tracer);
            }
            Ok(ep) => plain.push(ep),
            Err(e) => {
                error = Some(e);
                break;
            }
        }
    }

    // Counts a seeded scheduler produces must not move between episodes,
    // nor may a solver's assignments from the ones the first episode verified.
    let mut all = plain.iter().chain(&traced);
    if let (None, Some(first)) = (&error, all.next()) {
        if let Some(other) = all.find(|e| e.exact != first.exact) {
            error = Some(format!(
                "outputs differ between episodes of one seed: {:?} vs {:?}",
                first.exact, other.exact
            ));
        }
    }

    let sample = |f: fn(&Episode) -> f64| plain.iter().map(f).collect::<Vec<f64>>();
    let mut setup_s = sample(|e| e.setup.as_secs_f64());
    setup_s.extend(extra_setups);
    let detail = vec![
        ("setup_s", Summary::of(&setup_s)),
        ("episode_ms", Summary::of(&sample(|e| ms(e.wall)))),
        // Each episode's median operation interval.
        ("op_ms_p50", Summary::of(&sample(|e| stats::median(&e.op_ms).unwrap_or(0.0)))),
    ];

    let metrics = if plan.trace {
        let spans = last_tracer.as_ref().map_or(0, |t| t.spans().len());
        per_layer(&plain, &traced, &unattributed_ms, spans)
    } else {
        let stages = typical_by_position(&plain, |e| &e.stage_ms);
        let ops = typical_by_position(&plain, |e| &e.op_ms);
        BTreeMap::from([
            ("setup_s".to_string(), typical(&setup_s)),
            ("episode_ms".to_string(), stages.iter().sum()),
            ("op_ms_p50".to_string(), stats::median(&ops).unwrap_or(0.0)),
            (
                "cost_per_op".to_string(),
                stats::median(&sample(|e| e.cost_per_op)).unwrap_or(0.0),
            ),
        ])
    };
    // A name `BENCHMARK.json` does not define would vanish from the result
    // line unnoticed.
    let defined = if plan.trace { &spec().per_layer } else { &spec().end_to_end };
    if let Some(stray) = metrics.keys().find(|k| !defined.iter().any(|m| &m.name == *k)) {
        error.get_or_insert(format!("metric `{stray}` is not defined in BENCHMARK.json"));
    }

    Outcome {
        workload: w,
        workers: cfg.workers,
        nproc: nproc(),
        episodes: plain.len(),
        traced_episodes: traced.len(),
        attempted: plain.iter().chain(&traced).map(|e| e.attempted).sum(),
        failed: plain.iter().chain(&traced).map(|e| e.failed).sum(),
        error,
        metrics,
        detail,
        trace_json: last_tracer.as_ref().map(|t| t.to_json(w.name(), plan.seed)),
        self_times: last_tracer.as_ref().map(Tracer::self_time_by_name).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_is_the_minimum_of_few_samples_and_the_decile_of_many() {
        assert_eq!(typical(&[]), 0.0);
        assert_eq!(typical(&[5.0, 3.0, 4.0]), 3.0);
        let many: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(typical(&many), 4.0);
    }

    #[test]
    fn a_disturbed_stage_spoils_only_its_own_position() {
        let episode = |stage_ms: Vec<f64>| Episode { stage_ms, ..Episode::default() };
        // Every episode has one slow stage, each time another one.
        let episodes = [
            episode(vec![9.0, 2.0, 3.0]),
            episode(vec![1.0, 9.0, 3.0]),
            episode(vec![1.0, 2.0, 9.0]),
        ];
        assert_eq!(typical_by_position(&episodes, |e| &e.stage_ms), vec![1.0, 2.0, 3.0]);
        assert!(typical_by_position(&[], |e| &e.stage_ms).is_empty());
    }
}
