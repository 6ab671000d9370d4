//! Probe-transparency and naming tests.
//!
//! The per-layer numbers are only worth reading if the probes that take
//! them change nothing: a run through `TimedNode`/`TimedCodec`/
//! `TimedOracle` must produce the outputs, `Metrics`, `SolveStats` and
//! twin verdict of the bare run. And the names the binary emits must be
//! exactly the names `BENCHMARK.json` defines.

use std::collections::BTreeSet;
use std::sync::Arc;

use swiper_core::{CachingOracle, FullOracle, Instance, Swiper, Weights};
use swiper_net::{
    DelayModel, Protocol, SendNodes, Simulation, SocketTransport, ThreadedRuntime,
    DEFAULT_LINK_CAPACITY,
};
use swiper_protocols::smr::{SmrMsg, SmrNode};
use swiper_protocols::wire::SmrCodec;
use swiper_weights::Chain;

use crate::json::Json;
use crate::probes::{CallSink, CodecStats, TimedCodec, TimedOracle};
use crate::report::result_line;
use crate::run::{self, Budget, Plan};
use crate::spec::spec;
use crate::trace::Tracer;
use crate::workloads::{commit_sink, smr_fleet, solve_timed, Problem, Workload, BATCH_BYTES};

const REPLICAS: usize = 8;
const ROUNDS: u64 = 20;

fn stake() -> Weights {
    Weights::new((0..REPLICAS as u64).map(|p| 10 + p % 7).collect()).unwrap()
}

fn bare_smr() -> SendNodes<SmrMsg> {
    (0..REPLICAS)
        .map(|me| Box::new(SmrNode::new(me, stake(), 5, ROUNDS, BATCH_BYTES)) as _)
        .collect()
}

fn unsend<M>(nodes: SendNodes<M>) -> Vec<Box<dyn Protocol<Msg = M>>> {
    nodes.into_iter().map(|b| b as Box<dyn Protocol<Msg = M>>).collect()
}

#[test]
fn timed_nodes_do_not_change_a_simulated_run() {
    let simulate =
        |nodes| Simulation::new(unsend(nodes), 11).with_delay(DelayModel::Uniform(1, 20)).run();
    let bare = simulate(bare_smr());
    let calls = CallSink::default();
    let probed = simulate(smr_fleet(&stake(), 5, ROUNDS, &commit_sink(REPLICAS), Some(&calls)));
    assert_eq!(probed.outputs, bare.outputs);
    assert_eq!(probed.metrics, bare.metrics);
    assert_eq!((probed.events, probed.elapsed), (bare.events, bare.elapsed));
    assert!(bare.outputs.iter().all(Option::is_some), "every replica finished");
    // One timed callback per start and per delivered message.
    let calls = calls.lock().unwrap();
    assert_eq!(calls.callbacks(), REPLICAS as u64 + bare.metrics.delivered_messages());
    assert_eq!(calls.class_msgs[0], bare.metrics.delivered_messages());
    assert_eq!(calls.class_bytes[0], bare.metrics.delivered_bytes());
}

#[test]
fn probed_socket_run_replays_bit_identically_on_bare_automata() {
    let calls = CallSink::default();
    let commits = commit_sink(REPLICAS);
    let codec_stats = Arc::new(CodecStats::default());
    let transport = SocketTransport::with_codec(
        REPLICAS,
        DEFAULT_LINK_CAPACITY,
        TimedCodec::new(SmrCodec, Some(&codec_stats)),
    )
    .expect("bind loopback sockets");
    let wire = transport.clone();
    let probed = ThreadedRuntime::new(smr_fleet(&stake(), 5, ROUNDS, &commits, Some(&calls)))
        .with_transport(transport)
        .with_workers(2)
        .run_traced();
    assert_eq!(wire.decode_errors(), 0);

    // The twin verdict, against automata that carry no probe at all.
    let twin = probed.trace.replay(unsend(bare_smr())).expect("no divergence");
    assert_eq!(twin.outputs, probed.report.outputs);
    assert_eq!(twin.metrics, probed.report.metrics);

    // And the same ledger as a bare socket run (SMR's output does not
    // depend on the schedule).
    let bare = ThreadedRuntime::new(bare_smr())
        .with_transport(SocketTransport::<_, SmrCodec>::loopback(REPLICAS).unwrap())
        .with_workers(2)
        .run_traced();
    assert_eq!(bare.report.outputs, probed.report.outputs);

    // The probes saw the whole run.
    let sent = probed.report.metrics.total_messages();
    assert_eq!(codec_stats.encodes(), sent);
    assert_eq!(probed.dropped, 0, "SMR replicas never halt");
    assert_eq!(codec_stats.decodes(), sent);
    assert_eq!(
        calls.lock().unwrap().callbacks(),
        REPLICAS as u64 + probed.report.metrics.delivered_messages()
    );
    let commits = commits.lock().unwrap();
    assert!(
        commits.iter().all(|c| c.len() == ROUNDS as usize + 1),
        "start + one stamp per round"
    );
    assert!(commits.iter().all(|c| c.windows(2).all(|w| w[0] <= w[1])));
}

#[test]
fn timed_oracle_does_not_change_a_solve() {
    let w = Chain::Aptos.weights();
    let bare = Swiper::new().solve_restriction(&w, &Problem::wr()).unwrap();
    let (probed, _, (checks, busy)) =
        solve_timed(Problem::Wr, &w, 0, &mut Tracer::new(true)).unwrap();
    assert_eq!(probed, bare, "assignment, bound and SolveStats");
    assert!(checks > 0 && checks <= bare.stats.candidates_checked);
    assert!(busy > std::time::Duration::ZERO);
    let (untraced, _, (no_checks, _)) =
        solve_timed(Problem::Wr, &w, 0, &mut Tracer::new(false)).unwrap();
    assert_eq!((untraced, no_checks), (bare, 0));
}

#[test]
fn timed_oracles_around_the_cache_do_not_change_a_warm_resolve() {
    let base = Chain::Aptos.weights();
    let mut moved = base.as_slice().to_vec();
    moved[3] += moved[3] / 20;
    let moved = Weights::new(moved).unwrap();
    let inst = |w: &Weights| Instance::restriction(w.clone(), Problem::wr());
    let solver = Swiper::new();

    let mut bare = CachingOracle::new(FullOracle::new()).with_certificates(true);
    let cold = solver.solve_instance_with(&mut bare, &inst(&base)).unwrap();
    let warm = solver.resolve_from_with(&mut bare, &cold, &inst(&moved)).unwrap();

    let mut probed = TimedOracle::new(
        CachingOracle::new(TimedOracle::new(FullOracle::new())).with_certificates(true),
    );
    let cold_p = solver.solve_instance_with(&mut probed, &inst(&base)).unwrap();
    let warm_p = solver.resolve_from_with(&mut probed, &cold_p, &inst(&moved)).unwrap();
    assert_eq!((cold_p, warm_p), (cold, warm), "assignments, bounds and SolveStats");
    let (outer_checks, outer_busy) = probed.timing();
    let (inner_checks, inner_busy) = probed.inner().inner().timing();
    assert!(outer_checks >= inner_checks && outer_busy >= inner_busy);
}

fn quick(workload: Workload, trace: bool) -> run::Outcome {
    let plan = Plan { workload, seed: 3, quick: true, budget: Budget::Reps(1), trace };
    let outcome = run::run(&plan);
    assert!(outcome.correct(), "{}: {:?}", workload.name(), outcome.error);
    outcome
}

#[test]
fn names_are_well_formed_and_unique() {
    let s = spec();
    let mut seen = BTreeSet::new();
    let workloads = s.workloads.iter().map(|(n, _)| n);
    for name in workloads.chain(s.end_to_end.iter().chain(&s.per_layer).map(|m| &m.name)) {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        assert!(!name.is_empty() && name.len() <= 64 && name.chars().all(ok), "{name}");
        assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
        assert!(seen.insert(name.clone()), "{name} is defined twice");
    }
    let listed: Vec<&str> = s.workloads.iter().map(|(n, _)| &n[..]).collect();
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, built);
    assert!(s.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(s
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    assert_eq!(s.run_seconds.fract(), 0.0);
    assert!((1.0..=60.0).contains(&s.run_seconds));
}

/// Every name a run emits is defined in `BENCHMARK.json`, and every name
/// defined there is emitted by some workload (all six run here, shrunk).
#[test]
fn emitted_names_are_exactly_the_defined_names() {
    let defined = |ms: &[crate::spec::Metric]| -> BTreeSet<String> {
        ms.iter().map(|m| m.name.clone()).collect()
    };
    let mut layers = BTreeSet::new();
    for w in Workload::ALL {
        let untraced = quick(w, false);
        let emitted: BTreeSet<String> = untraced.metrics.keys().cloned().collect();
        assert_eq!(emitted, defined(&spec().end_to_end), "{}", w.name());
        assert!(untraced.metrics.values().all(|v| v.is_finite() && *v > 0.0), "{}", w.name());

        let traced = quick(w, true);
        assert!(traced.metrics.values().all(|v| v.is_finite()), "{}", w.name());
        assert!(traced.trace_json.is_some() && traced.traced_episodes == 1);
        layers.extend(traced.metrics.keys().cloned());

        // The result line reads back with exactly the contract's keys.
        let line = result_line(&traced, &spec().per_layer);
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(|k| &k[..]).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let reported = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(reported.len(), spec().per_layer.len());
        assert!(reported.values().all(|m| m.get("value").is_some() && m.get("unit").is_some()));
    }
    assert_eq!(layers, defined(&spec().per_layer));
}
