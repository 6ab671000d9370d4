//! Seed-sweep fault injection: protocol safety invariants must hold for
//! *every* schedule the deterministic simulator can produce, so we sweep
//! seeds (= delay schedules) with adversaries in the mix and assert the
//! invariants each time. These are the repro-style robustness tests that
//! catch schedule-dependent protocol bugs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use swiper::net::adversary::{SelectiveAck, Silent};
use swiper::net::{AdaptiveDelay, DelayModel, Protocol, Simulation};
use swiper::protocols::aba::{AbaMsg, AbaNode, AbaSetup};
use swiper::protocols::avid::{AvidConfig, AvidMsg, AvidNode, TargetedFragmentSender, BOT};
use swiper::protocols::beacon::{BeaconMsg, BeaconNode, BeaconSetup};
use swiper::protocols::blackbox::{BlackBox, BlackBoxConfig, BlackBoxMsg};
use swiper::protocols::bracha::{BrachaConfig, BrachaMsg, BrachaNode, EquivocatingSender};
use swiper::protocols::ecbc::{EcbcConfig, EcbcMsg, EcbcNode, GarbageEchoer};
use swiper::protocols::smr::{ReconfigureMode, SmrInstance, SmrMsg, SmrNode};
use swiper::protocols::tight::{TargetedShareSender, TightConfig, TightMsg, TightNode};
use swiper::weights::epoch::{churn, churn_with, ChurnMode, Reconfigurator, Setting};
use swiper::weights::{gen, Chain};
use swiper::{
    CachingOracle, EpochEvent, FullOracle, Instance, Ratio, Swiper, TicketAssignment,
    TicketDelta, WeightQualification, WeightRestriction, Weights,
};

/// Seeds (= delay schedules) swept per test: 25 by default, widened in the
/// nightly CI job via `SWIPER_SWEEP_SEEDS` (e.g. 200). A set-but-invalid
/// value is a loud failure — a silently narrowed nightly sweep would keep
/// reporting green while providing none of its coverage.
fn seeds() -> std::ops::Range<u64> {
    let n = match std::env::var("SWIPER_SWEEP_SEEDS") {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("SWIPER_SWEEP_SEEDS={v:?} is not a seed count: {e}")),
        Err(_) => 25,
    };
    0..n
}

/// Proptest case count, scaled with the sweep width so the nightly job
/// also deepens the warm-resolve equivalence proptest (64 cases per PR,
/// `SWIPER_SWEEP_SEEDS` cases when that is larger).
fn sweep_cases() -> u32 {
    u32::try_from(seeds().end).unwrap_or(u32::MAX).max(64)
}

/// ABA agreement under mixed inputs + a silent party, across 25 schedules
/// and two delay models.
#[test]
fn aba_agreement_across_schedules() {
    let weights = Weights::new(vec![28, 26, 18, 16, 12]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let tickets = Swiper::new().solve_restriction(&weights, &params).unwrap().assignment;
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let setup = AbaSetup::deal(
                weights.clone(),
                &tickets,
                seed,
                &mut StdRng::seed_from_u64(seed),
            );
            let mut nodes: Vec<Box<dyn Protocol<Msg = AbaMsg>>> = Vec::new();
            for i in 0..5 {
                if i == 4 {
                    nodes.push(Box::new(Silent::new())); // 12% silent
                } else {
                    nodes.push(Box::new(AbaNode::new(setup.clone(), i % 2 == 0)));
                }
            }
            let report = Simulation::new(nodes, seed).with_delay(delay).run();
            let decisions: Vec<&Vec<u8>> =
                (0..4).filter_map(|i| report.outputs[i].as_ref()).collect();
            assert_eq!(decisions.len(), 4, "liveness violated at seed {seed} {delay:?}");
            assert!(
                decisions.windows(2).all(|w| w[0] == w[1]),
                "agreement violated at seed {seed} {delay:?}"
            );
        }
    }
}

/// Bracha agreement under an equivocating sender, across schedules: no two
/// honest parties ever deliver different payloads.
#[test]
fn bracha_equivocation_across_schedules() {
    for seed in seeds() {
        let config = BrachaConfig::nominal(7); // t = 2
        let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
        nodes.push(Box::new(EquivocatingSender { a: b"A".to_vec(), b: b"B".to_vec() }));
        nodes.push(Box::new(Silent::new())); // second Byzantine: silent
        for _ in 2..7 {
            nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
        }
        let report = Simulation::new(nodes, seed).run();
        assert!(
            report.agreement_among(&[2, 3, 4, 5, 6]),
            "equivocation split honest parties at seed {seed}"
        );
    }
}

/// Bracha totality through the pull path, across schedules: the sender
/// (20% of the stake) reaches only parties `0..4` and the lightest party
/// is silent — 25% misbehaving, under `f_w = 1/3`. Parties 4 and 5 never
/// see INITIAL; they amplify, complete their delivery quorum on digests
/// alone and must pull the payload from holders, some of which have
/// already delivered by the time the `Request` lands. Whether and when a
/// pull fires is the schedule's choice, which is why this sweeps `seeds()`
/// (CI runs it at the nightly's width on every PR).
#[test]
fn bracha_totality_by_pull_across_schedules() {
    let weights = Weights::new(vec![20, 20, 20, 20, 10, 5, 5]).unwrap();
    let payload = b"pull what the sender withheld".to_vec();
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let config = BrachaConfig::weighted(weights.clone());
            let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
            nodes.push(Box::new(SelectiveAck::new(
                BrachaNode::sender(config.clone(), 0, payload.clone()),
                vec![0, 1, 2, 3],
            )));
            for _ in 1..6 {
                nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
            }
            nodes.push(Box::new(Silent::new()));
            let report = Simulation::new(nodes, seed).with_delay(delay).run();
            for i in 1..6 {
                assert_eq!(
                    report.outputs[i].as_deref(),
                    Some(payload.as_slice()),
                    "party {i} never got the payload at seed {seed} {delay:?}"
                );
            }
        }
    }
}

/// ECBC totality with garbage echoers: whenever any honest party delivers,
/// every honest party delivers the same data, across schedules.
#[test]
fn ecbc_totality_across_schedules() {
    let blob = b"sweep the schedules".to_vec();
    for seed in seeds() {
        let config = EcbcConfig::nominal(7); // t = 2
        let mut nodes: Vec<Box<dyn Protocol<Msg = EcbcMsg>>> = Vec::new();
        nodes.push(Box::new(EcbcNode::sender(config.clone(), 0, blob.clone())));
        nodes.push(Box::new(GarbageEchoer::new(config.clone(), 0)));
        nodes.push(Box::new(GarbageEchoer::new(config.clone(), 0)));
        for _ in 3..7 {
            nodes.push(Box::new(EcbcNode::new(config.clone(), 0)));
        }
        let report = Simulation::new(nodes, seed).run();
        for i in [0usize, 3, 4, 5, 6] {
            assert_eq!(
                report.outputs[i].as_deref(),
                Some(blob.as_slice()),
                "node {i} failed at seed {seed}"
            );
        }
    }
}

/// Beacon liveness + agreement across schedules: a sub-`f_w` silent party
/// and both delay models. Audited for halt-before-duty alongside
/// `tight`/`avid`: the beacon's duty (broadcasting its own partials) is
/// discharged in `on_start`, and the sweep pins that halting on combine
/// never starves slower parties of the threshold.
#[test]
fn beacon_liveness_across_schedules() {
    let weights = Weights::new(vec![30, 25, 15, 15, 15]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights, &params).unwrap();
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let setup = BeaconSetup::deal(
                &sol.assignment,
                Ratio::of(1, 2),
                &mut StdRng::seed_from_u64(seed),
            );
            let mut nodes: Vec<Box<dyn Protocol<Msg = BeaconMsg>>> = Vec::new();
            nodes.push(Box::new(Silent::new())); // party 0: 30% < 1/3, silent
            for _ in 1..5 {
                nodes.push(Box::new(BeaconNode::new(setup.clone(), seed)));
            }
            let report = Simulation::new(nodes, seed).with_delay(delay).run();
            for i in 1..5 {
                assert!(
                    report.outputs[i].is_some(),
                    "beacon liveness violated for party {i} at seed {seed} {delay:?}"
                );
            }
            assert!(report.agreement_among(&[1, 2, 3, 4]), "seed {seed} {delay:?}");
        }
    }
}

/// Tight-threshold totality under the targeted-share adversary — the
/// schedule family that caught the halt-before-release bug (a node
/// combining from shares fed only to it, then exiting before its own
/// release duty). Every honest party must certify on every schedule.
#[test]
fn tight_totality_across_schedules() {
    let weights = Weights::new(vec![25, 25, 25, 25]).unwrap();
    let tickets = TicketAssignment::new(vec![2, 2, 1, 2]);
    let cfg = TightConfig::deal(
        weights,
        &tickets,
        Ratio::of(2, 3),
        b"sweep-the-schedules".to_vec(),
        &mut StdRng::seed_from_u64(3),
    );
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::Uniform(1, 64)] {
            let mut nodes: Vec<Box<dyn Protocol<Msg = TightMsg>>> = Vec::new();
            for _ in 0..3 {
                nodes.push(Box::new(TightNode::new(cfg.clone(), true)));
            }
            nodes.push(Box::new(TargetedShareSender::new(cfg.clone(), 0)));
            let report = Simulation::new(nodes, seed).with_delay(delay).run();
            for i in 0..3 {
                assert!(
                    report.outputs[i].is_some(),
                    "tight party {i} starved at seed {seed} {delay:?}"
                );
            }
            assert!(report.agreement_among(&[0, 1, 2]), "seed {seed} {delay:?}");
        }
    }
}

/// AVID totality under the targeted-fragment adversary — the schedule
/// family that caught the halt-before-relay bug (a node decoding from
/// fragments fed only to it, then exiting before its ack/relay duties).
/// Every honest party, the zero-ticket spectator included, must deliver.
#[test]
fn avid_totality_across_schedules() {
    let weights = Weights::new(vec![25, 25, 25, 25]).unwrap();
    let tickets = TicketAssignment::new(vec![2, 2, 0, 1]);
    let config = AvidConfig::weighted(weights, &tickets, Ratio::of(1, 2));
    let blob = b"sweep the retrieval schedules".to_vec();
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::Uniform(1, 64)] {
            let nodes: Vec<Box<dyn Protocol<Msg = AvidMsg>>> = vec![
                Box::new(AvidNode::dealer(config.clone(), 0, blob.clone())),
                Box::new(AvidNode::new(config.clone(), 0)),
                Box::new(AvidNode::new(config.clone(), 0)),
                Box::new(TargetedFragmentSender::new(0, 1)),
            ];
            let report = Simulation::new(nodes, seed).with_delay(delay).run();
            for i in 0..3 {
                let out = report.outputs[i].as_deref();
                assert_eq!(
                    out,
                    Some(blob.as_slice()),
                    "avid party {i} failed at seed {seed} {delay:?}"
                );
                assert_ne!(out, Some(BOT), "honest dealer never yields BOT");
            }
        }
    }
}

/// Epoch-crossing sweep for the black-box transformation: a Bracha
/// broadcast runs over virtual users while a churned epoch's
/// `TicketDelta` — **mixed joins and leaves included** — is spliced in
/// mid-flight, under both delay models and with a `SelectiveAck`
/// quorum-splitter in the party set. Safety (every produced output is
/// the sender's payload) must hold on every schedule and every delta;
/// liveness is asserted for every honest party on *every* delta shape,
/// shrinking and renumbering ones included — the gain-only carve-out of
/// the dense-id design is gone. The single structural precondition is
/// that the broadcast's designated sender still holds a ticket (a
/// broadcast whose sender retires before dissemination cannot complete
/// under any identity scheme); the mixed churn below never retires the
/// sender's party.
#[test]
fn blackbox_epoch_crossing_sweep() {
    let weights = gen::zipf(40, 0.8, 1 << 16);
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
    let solver = Swiper::new();
    let epoch0 = solver.solve_restriction(&weights, &params).unwrap().assignment;
    let sender_party = (0..epoch0.len()).find(|&p| epoch0.get(p) > 0).unwrap();
    let payload = b"epoch-crossing black-box".to_vec();
    let splitter: usize = 35; // light party, well under f_w = 1/4
    let chosen: Vec<usize> = (0..20).collect();
    for (churn_pct, mode) in [(1usize, ChurnMode::Drift), (5, ChurnMode::Mixed)] {
        let churned_parties = (weights.len() * churn_pct).div_ceil(100);
        for seed in seeds() {
            for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
                let mut rng = StdRng::seed_from_u64(seed ^ ((churn_pct as u64) << 32));
                let next = churn_with(mode, &weights, churned_parties, 5, &mut rng);
                let epoch1 = solver.solve_restriction(&next, &params).unwrap().assignment;
                let delta = TicketDelta::between(&epoch0, &epoch1).unwrap();
                let event =
                    EpochEvent::new(1, delta.clone(), &weights, next.clone(), seed).unwrap();
                let sender_lives = epoch1.get(sender_party) > 0;
                let config = BlackBoxConfig::new(weights.clone(), &epoch0, Ratio::of(1, 4));
                // The designated sender is epoch-0 virtual user 0, pinned
                // by *stable* identity: a dense id resolved at spawn time
                // could name a different logical user after the delta.
                let sender_id = config.mapping().stable_of(0);
                let mut nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>> =
                    Vec::new();
                for party in 0..weights.len() {
                    let payload = payload.clone();
                    let bb = BlackBox::new(config.clone(), party, move |v, roster| {
                        let bc = BrachaConfig::epochal(roster.clone());
                        if roster.stable_of(v) == sender_id {
                            BrachaNode::sender_with_id(bc, sender_id, payload.clone())
                        } else {
                            BrachaNode::with_sender_id(bc, sender_id)
                        }
                    });
                    if party == splitter {
                        nodes.push(Box::new(SelectiveAck::new(bb, chosen.clone())));
                    } else {
                        nodes.push(Box::new(bb));
                    }
                }
                let report = Simulation::new(nodes, seed)
                    .with_delay(delay)
                    .with_reconfiguration(60, event)
                    .run();
                assert_eq!(report.reconfigurations, 1, "seed {seed} churn {churn_pct}%");
                for (i, out) in report.outputs.iter().enumerate() {
                    if let Some(out) = out {
                        assert_eq!(
                            out.as_slice(),
                            payload.as_slice(),
                            "party {i} adopted a forged output at seed {seed} \
                             churn {churn_pct}% {delay:?}"
                        );
                    }
                }
                assert!(sender_lives, "mixed churn must never retire the sender's party");
                for i in (0..weights.len()).filter(|&i| i != splitter) {
                    assert!(
                        report.outputs[i].is_some(),
                        "party {i} lost liveness on a {mode:?} delta (joining {} \
                         leaving {}) at seed {seed} churn {churn_pct}% {delay:?}",
                        delta.joining(),
                        delta.leaving(),
                    );
                }
            }
        }
    }
}

/// Shrinking-and-renumbering sweep with a hand-crafted mixed delta that
/// exercises every hostile shape at once: the *first* party shrinks (so
/// every surviving dense id renumbers), one party retires entirely
/// (zero tickets — it must fall back to the vouching path), and another
/// party gains users mid-flight. Safety **and liveness** are pinned for
/// every party on every schedule under both delay models — the case the
/// dense-id design provably could not serve (its quorum votes froze
/// under stale numberings and its trackers kept epoch-0 populations).
#[test]
fn blackbox_shrinking_renumbering_sweep() {
    let weights = Weights::new(vec![40, 25, 20, 15]).unwrap();
    let old = TicketAssignment::new(vec![3, 2, 2, 1]);
    // Only 4 of the 8 epoch-1 voters survive from epoch 0: the 2/3
    // delivery quorum (6 of 8) is unreachable from survivor votes alone,
    // so this delta additionally pins the epochal catch-up for joiners
    // (`BrachaNode::on_reconfigure` re-sending INITIAL/ECHO/READY to the
    // virtual users the boundary spawned, so they can vote) — remove it
    // and every schedule that has not delivered by event 30 stalls forever.
    let new = TicketAssignment::new(vec![1, 2, 0, 5]);
    let delta = TicketDelta::between(&old, &new).unwrap();
    assert!(delta.joining() > 0 && delta.leaving() > 0, "the delta must mix joins and leaves");
    let event = EpochEvent::new(1, delta, &weights, weights.clone(), 0).unwrap();
    let payload = b"shrink, renumber, stay live".to_vec();
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let sender_id = config.mapping().stable_of(0);
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>> = (0..4)
                .map(|party| {
                    let payload = payload.clone();
                    Box::new(BlackBox::new(config.clone(), party, move |v, roster| {
                        let bc = BrachaConfig::epochal(roster.clone());
                        if roster.stable_of(v) == sender_id {
                            BrachaNode::sender_with_id(bc, sender_id, payload.clone())
                        } else {
                            BrachaNode::with_sender_id(bc, sender_id)
                        }
                    })) as _
                })
                .collect();
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(30, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            for (i, out) in report.outputs.iter().enumerate() {
                assert_eq!(
                    out.as_deref(),
                    Some(payload.as_slice()),
                    "party {i} lost safety or liveness across the shrinking delta \
                     at seed {seed} {delay:?}"
                );
            }
        }
    }
}

/// Zoo round three, first slice: the `EpochShifter` behaves honestly
/// until the first reconfiguration, then replays its entire old-epoch
/// traffic — the same logical votes arrive once under the pre-epoch
/// numbering and once after the boundary. Each node runs a census that
/// counts *distinct stable voters* with a `QuorumSet` and outputs
/// whether the tally landed exactly on the live population. Under
/// stable-id resolution the replays are duplicates and the count is
/// exact on every schedule; revert to dense-id keying (per-epoch
/// translation of `from`) and the renumbered replays count twice,
/// failing this regression.
#[test]
fn epoch_shifter_replay_cannot_double_count_votes() {
    use swiper::net::adversary::EpochShifter;
    use swiper::protocols::quorum::{Electorate, QuorumSet, Roster};

    /// One virtual user: broadcasts a hello, counts distinct stable
    /// senders, reports the tally long after the boundary.
    struct Census {
        roster: Roster,
        quorum: QuorumSet<()>,
    }
    impl Protocol for Census {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut swiper::net::Context<u64>) {
            ctx.broadcast(1);
            ctx.set_timer(900, 0);
        }
        fn on_message(&mut self, from: usize, _m: u64, _ctx: &mut swiper::net::Context<u64>) {
            self.quorum.vote((), self.roster.stable_of(from));
        }
        fn on_reconfigure(&mut self, e: &EpochEvent, _ctx: &mut swiper::net::Context<u64>) {
            self.quorum.on_epoch(e);
        }
        fn on_timer(&mut self, _id: u64, ctx: &mut swiper::net::Context<u64>) {
            let count = self.quorum.tally(&());
            ctx.output(if count == self.roster.total() as u128 {
                b"exact".to_vec()
            } else {
                format!("count={count} of {}", self.roster.total()).into_bytes()
            });
        }
    }

    let weights = Weights::new(vec![40, 30, 15, 15]).unwrap();
    let old = TicketAssignment::new(vec![2, 2, 1, 2]);
    // Party 0 shrinks: every other id renumbers. Party 2 retires; party 3
    // gains a joiner.
    let new = TicketAssignment::new(vec![1, 2, 0, 4]);
    let delta = TicketDelta::between(&old, &new).unwrap();
    let event = EpochEvent::new(1, delta, &weights, weights.clone(), 0).unwrap();
    let shifter: usize = 1;
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::Uniform(1, 64)] {
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let mut nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<u64>>>> = Vec::new();
            for party in 0..4 {
                let bb = BlackBox::new(config.clone(), party, move |_v, roster| Census {
                    roster: roster.clone(),
                    quorum: QuorumSet::new(Electorate::Roster(roster.clone()), |_| {
                        Ratio::of(0, 1)
                    }),
                });
                if party == shifter {
                    nodes.push(Box::new(EpochShifter::new(bb)));
                } else {
                    nodes.push(Box::new(bb));
                }
            }
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(14, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            for (i, out) in report.outputs.iter().enumerate() {
                assert_eq!(
                    out.as_deref(),
                    Some(b"exact".as_ref()),
                    "party {i}'s census mis-counted under the epoch-shifted replay at \
                     seed {seed} {delay:?}: {:?}",
                    out.as_deref().map(String::from_utf8_lossy)
                );
            }
        }
    }
}

/// The same epoch crossing under the `AdaptiveDelay` zoo member: vouch
/// messages — the zero-ticket catch-up path — are pinned to adversarial
/// latency while inner traffic flows normally. Outputs must still be
/// exactly the sender's payload on every schedule.
#[test]
fn blackbox_epoch_crossing_under_adaptive_vouch_delay() {
    fn is_vouch(m: &BlackBoxMsg<BrachaMsg>) -> bool {
        matches!(m, BlackBoxMsg::Vouch { .. })
    }
    let weights = gen::zipf(24, 0.9, 1 << 16);
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
    let solver = Swiper::new();
    let epoch0 = solver.solve_restriction(&weights, &params).unwrap().assignment;
    let payload = b"vouch-delayed epoch crossing".to_vec();
    for seed in seeds() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(7919));
        let next = churn(&weights, 2, 5, &mut rng);
        let epoch1 = solver.solve_restriction(&next, &params).unwrap().assignment;
        let delta = TicketDelta::between(&epoch0, &epoch1).unwrap();
        let event = EpochEvent::new(1, delta, &weights, next, seed).unwrap();
        let config = BlackBoxConfig::new(weights.clone(), &epoch0, Ratio::of(1, 4));
        let sender_id = config.mapping().stable_of(0);
        let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<BrachaMsg>>>> = (0..weights.len())
            .map(|party| {
                let payload = payload.clone();
                Box::new(BlackBox::new(config.clone(), party, move |v, roster| {
                    let bc = BrachaConfig::epochal(roster.clone());
                    if roster.stable_of(v) == sender_id {
                        BrachaNode::sender_with_id(bc, sender_id, payload.clone())
                    } else {
                        BrachaNode::with_sender_id(bc, sender_id)
                    }
                })) as _
            })
            .collect();
        let adaptive = AdaptiveDelay::new(DelayModel::Uniform(1, 24)).rule(is_vouch, 300);
        let report = Simulation::new(nodes, seed)
            .with_adaptive_delay(adaptive)
            .with_reconfiguration(40, event)
            .run();
        assert_eq!(report.reconfigurations, 1, "seed {seed}");
        for (i, out) in report.outputs.iter().enumerate() {
            if let Some(out) = out {
                assert_eq!(out.as_slice(), payload.as_slice(), "party {i} seed {seed}");
            }
        }
    }
}

/// Drives one live-vs-rebuild SMR replay: every snapshot is re-solved
/// for both tracks (WQ for dissemination, WR for the beacon), spliced
/// into a live [`SmrInstance`] and torn down + rebuilt in a baseline
/// twin, with `rounds_per_epoch` rounds prepared per epoch and two of
/// them left un-committed across each boundary. A vouch-style weighted
/// quorum set rides along, crossing each epoch's [`EpochEvent`]: its
/// electorate's weights must match every epoch's snapshot exactly — the
/// stake-refresh audit. Returns `(live, base)` fully drained, ready
/// for assertions.
fn replay_smr_live_vs_rebuild(
    snapshots: Vec<Weights>,
    proposer_count: usize,
    rounds_per_epoch: u64,
    session_seed: u64,
) -> (SmrInstance, SmrInstance) {
    use swiper::protocols::quorum::{Electorate, QuorumSet};
    let wq = WeightQualification::new(Ratio::of(1, 3), Ratio::of(1, 4)).unwrap();
    let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let mut reconf = Reconfigurator::new(
        Swiper::new(),
        vec![Setting::Qualification(wq), Setting::Restriction(wr)],
    )
    .with_rekey_seed(session_seed);
    let n = snapshots.first().expect("at least one epoch").len();
    let alive: Vec<usize> = (0..n).collect();
    let proposers: Vec<usize> = (0..proposer_count.min(n)).collect();
    let mut live: Option<SmrInstance> = None;
    let mut base: Option<SmrInstance> = None;
    let mut vouch: Option<QuorumSet<()>> = None;
    let batch = |r: u64, p: usize| format!("b{r}-{p}").into_bytes();
    reconf
        .drive_simulation(snapshots, |weights, outcome| {
            let wq_t = outcome.solutions[0].assignment.clone();
            let wr_t = outcome.solutions[1].assignment.clone();
            let vouch_q = vouch.get_or_insert_with(|| {
                QuorumSet::new(Electorate::Weighted(weights.clone()), |_| Ratio::of(1, 4))
            });
            if let Some(event) = outcome.event(1) {
                assert_eq!(event.weights(), weights, "the event carries the snapshot");
                vouch_q.on_epoch(event);
            }
            assert!(
                matches!(vouch_q.electorate(), Electorate::Weighted(w) if w == weights),
                "epoch {}: published vouch-quorum weights diverged from the snapshot",
                outcome.epoch
            );
            match (&mut live, &mut base) {
                (Some(l), Some(b)) => {
                    l.reconfigure(
                        weights.clone(),
                        wq_t.clone(),
                        wr_t.clone(),
                        ReconfigureMode::Live,
                    );
                    b.reconfigure(weights.clone(), wq_t, wr_t, ReconfigureMode::Rebuild);
                }
                _ => {
                    live = Some(SmrInstance::new(
                        weights.clone(),
                        wq_t.clone(),
                        Ratio::of(1, 4),
                        wr_t.clone(),
                        session_seed,
                    ));
                    base = Some(SmrInstance::new(
                        weights.clone(),
                        wq_t,
                        Ratio::of(1, 4),
                        wr_t,
                        session_seed,
                    ));
                }
            }
            let (l, b) = (live.as_mut().expect("init"), base.as_mut().expect("init"));
            for _ in 0..rounds_per_epoch {
                for inst in [&mut *l, &mut *b] {
                    inst.prepare(&proposers, batch);
                    if inst.pipeline_len() > 2 {
                        inst.commit(&alive);
                    }
                }
            }
        })
        .unwrap();
    let (mut l, mut b) = (live.expect("ran"), base.expect("ran"));
    while l.commit(&alive).is_some() {}
    while b.commit(&alive).is_some() {}
    (l, b)
}

/// Builds an epoch chain: the base snapshot followed by successive churn
/// in the given mode.
fn churn_chain(
    mode: ChurnMode,
    base: &Weights,
    epochs: u64,
    churned: usize,
    rng: &mut StdRng,
) -> Vec<Weights> {
    let mut snapshot = base.clone();
    (0..epochs)
        .map(|_| {
            let current = snapshot.clone();
            snapshot = churn_with(mode, &snapshot, churned, 5, rng);
            current
        })
        .collect()
}

/// Epoch-crossing sweep for live SMR: per seed, a 6-epoch churn chain —
/// drift at 1%, **mixed join/leave** at 5% — is re-solved for both
/// tracks and spliced into a live [`SmrInstance`] while a
/// teardown-rebuild twin replays the same epochs. The committed logs
/// must be bit-identical on every seed in both regimes, and the live
/// instance must never restart *more* rounds than the baseline.
#[test]
fn smr_epoch_crossing_sweep() {
    let base_weights = gen::zipf(40, 0.9, 1 << 16);
    for (churn_pct, mode) in [(1usize, ChurnMode::Drift), (5, ChurnMode::Mixed)] {
        let churned_parties = (base_weights.len() * churn_pct).div_ceil(100);
        for seed in seeds() {
            let mut rng = StdRng::seed_from_u64(seed ^ ((churn_pct as u64) << 40));
            let snapshots = churn_chain(mode, &base_weights, 6, churned_parties, &mut rng);
            let (l, b) = replay_smr_live_vs_rebuild(snapshots, 6, 3, seed);
            assert_eq!(
                l.ledger(),
                b.ledger(),
                "live ledger diverged at seed {seed} churn {churn_pct}% ({mode:?})"
            );
            assert!(
                l.restarted_rounds() <= b.restarted_rounds(),
                "live restarted more than the baseline at seed {seed} churn {churn_pct}%"
            );
            assert_eq!(
                l.survived_rounds() + l.restarted_rounds(),
                b.restarted_rounds(),
                "every boundary-crossing round is either survived or restarted \
                 (seed {seed} churn {churn_pct}%)"
            );
        }
    }
}

/// The ISSUE acceptance criterion: a 25-epoch Tezos 1%-churn live-SMR
/// replay under **mixed join/leave** deltas (joins and leaves both occur
/// across the chain, renumbering live ranges) commits the same log as
/// the teardown-rebuild baseline while strictly reducing restarted
/// rounds — no gain-only restriction anywhere.
#[test]
fn tezos_live_smr_replay_matches_baseline_with_strictly_fewer_restarts() {
    let base = Chain::Tezos.weights();
    let churned = base.len().div_ceil(100); // 1% churn
    let mut rng = StdRng::seed_from_u64(1);
    let snapshots = churn_chain(ChurnMode::Mixed, &base, 25, churned, &mut rng);
    // The chain must actually exercise both directions of ticket flow.
    let wr = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let solver = Swiper::new();
    let (mut joins, mut leaves) = (0u128, 0u128);
    let mut prev: Option<swiper::TicketAssignment> = None;
    for snapshot in &snapshots {
        let sol = solver.solve_restriction(snapshot, &wr).unwrap();
        if let Some(prev) = &prev {
            let delta = TicketDelta::between(prev, &sol.assignment).unwrap();
            joins += delta.joining();
            leaves += delta.leaving();
        }
        prev = Some(sol.assignment);
    }
    assert!(
        joins > 0 && leaves > 0,
        "mixed churn must produce joins AND leaves across the chain ({joins}/{leaves})"
    );
    let (l, b) = replay_smr_live_vs_rebuild(snapshots, 8, 4, 7);
    assert_eq!(l.ledger(), b.ledger(), "live must commit the baseline's log");
    assert!(!l.ledger().is_empty(), "the replay must commit blocks");
    assert!(
        l.restarted_rounds() < b.restarted_rounds(),
        "live reconfiguration must strictly reduce restarted rounds: {} vs {}",
        l.restarted_rounds(),
        b.restarted_rounds()
    );
    assert!(l.survived_rounds() > 0, "some rounds must survive an epoch change");
    assert!(l.rekeys() < b.rekeys(), "the beacon state must be carried when WR holds");
}

/// A replica that only forges commit votes: at start it sends, for every
/// round, `Ready(r, d)` to the replicas below `split` and `Ready(r, d′)`
/// to the rest — two digests nobody proposed — and then stays silent.
struct ReadyForger {
    n: usize,
    rounds: u64,
    split: usize,
}

/// The digest a [`ReadyForger`] claims for `round`, on side `side`.
fn forged(round: u64, side: u8) -> swiper::crypto::hash::Digest {
    swiper::crypto::hash::digest_parts(&[b"forged", &round.to_le_bytes(), &[side]])
}

impl Protocol for ReadyForger {
    type Msg = SmrMsg;

    fn on_start(&mut self, ctx: &mut swiper::net::Context<SmrMsg>) {
        for round in 0..self.rounds {
            for to in 0..self.n {
                ctx.send(to, SmrMsg::Ready(round, forged(round, u8::from(to >= self.split))));
            }
        }
    }

    fn on_message(&mut self, _: usize, _: SmrMsg, _: &mut swiper::net::Context<SmrMsg>) {}
}

/// The `smr_socket` fleet (the 16 heaviest Tezos bakers) with its six
/// lightest replicas as [`ReadyForger`]s splitting at `split`, or all
/// honest for `None`, over 5 rounds on schedule `seed`. The six hold
/// 14.3 % of the stake — under `f_w = 1/3`, yet `f + 1` replicas by
/// count. Returns the run, the honest replicas, and the fault-free run's
/// output they must all reach.
fn smr_stake_forgery_run(
    split: impl Fn(&[usize]) -> usize,
    seed: u64,
) -> (swiper::net::RunReport, Vec<usize>, Vec<u8>) {
    const N: usize = 16;
    const ROUNDS: u64 = 5;
    let weights = Weights::new(Chain::Tezos.weights().as_slice()[..N].to_vec()).unwrap();
    let mut by_stake: Vec<usize> = (0..N).collect();
    by_stake.sort_by_key(|&p| (weights.as_slice()[p], p));
    let forgers = &by_stake[..6];
    let honest: Vec<usize> = (0..N).filter(|p| !forgers.contains(p)).collect();
    let forged_stake: u128 = forgers.iter().map(|&p| u128::from(weights.as_slice()[p])).sum();
    assert!(forged_stake * 3 < weights.total(), "the forgers stay under f_w = 1/3");
    // A forger never proposes, so a round it leads commits nowhere: take
    // the first session whose leaders are all honest.
    let session = (0..)
        .find(|&s| {
            let probe = SmrNode::new(0, weights.clone(), s, ROUNDS, 64);
            (0..ROUNDS).all(|r| honest.contains(&probe.leader_of(r)))
        })
        .expect("some session");
    let fleet = |split: Option<usize>| -> Vec<Box<dyn Protocol<Msg = SmrMsg>>> {
        (0..N)
            .map(|me| match split {
                Some(split) if forgers.contains(&me) => {
                    Box::new(ReadyForger { n: N, rounds: ROUNDS, split }) as _
                }
                _ => Box::new(SmrNode::new(me, weights.clone(), session, ROUNDS, 64)) as _,
            })
            .collect()
    };
    let run =
        |split| Simulation::new(fleet(split), seed).with_delay(DelayModel::Uniform(1, 9)).run();
    let clean = run(None);
    assert!(clean.unanimity_among(&honest), "fault-free run stalled at seed {seed}");
    let expected = clean.outputs[honest[0]].clone().expect("checked");
    (run(Some(split(&honest))), honest, expected)
}

/// Validity by stake: six [`ReadyForger`]s sending every replica
/// `Ready(r, d′)` for a digest nobody proposed make no honest replica
/// commit it — every honest ledger equals the fault-free run's. Counting
/// `f + 1` readies to amplify and `n − f` to commit fails this.
#[test]
fn smr_stake_forgery_cannot_forge_a_commit() {
    for seed in seeds() {
        let (report, honest, expected) = smr_stake_forgery_run(|_| usize::MAX, seed);
        for &p in &honest {
            assert_eq!(
                report.outputs[p].as_deref(),
                Some(&expected[..]),
                "seed {seed}: replica {p} committed a ledger the leaders never proposed"
            );
        }
    }
}

/// Agreement by stake: six [`ReadyForger`]s sending `Ready(d)` to one half
/// of the honest replicas and `Ready(d′)` to the other cannot split them;
/// they all commit the fault-free ledger.
#[test]
fn smr_stake_forgery_cannot_split_the_honest_replicas() {
    for seed in seeds() {
        let (report, honest, expected) =
            smr_stake_forgery_run(|honest| honest[honest.len() / 2], seed);
        assert!(
            report.unanimity_among(&honest),
            "seed {seed}: forged readies split the honest replicas: {:?}",
            report.outputs_of(&honest)
        );
        assert_eq!(report.outputs[honest[0]].as_deref(), Some(&expected[..]), "seed {seed}");
    }
}

/// The coin carry/re-deal sweep: a nominal ABA hosted over the black-box
/// wrapper crosses an epoch that HALVES the virtual population —
/// `[2, 2, 2] -> [1, 1, 1]`, so only 3 of the 6 dealt coin shares
/// survive, strictly below the dealing generation's 4-of-6 threshold.
/// Under the retired ticket-only contract the keys stayed pinned to the
/// dealing epoch and every round not yet coined stalled forever; with
/// `AbaSetup::on_epoch` the shares re-deal deterministically over the new
/// population (2-of-3, same group secret, every replica dealing
/// identically from the event's rekey seed) and the instance keeps
/// deciding. Liveness + agreement asserted on every schedule; revert the
/// re-deal hook and the sweep stalls.
#[test]
fn aba_coin_redeal_survives_shrinking_epoch() {
    use swiper::protocols::quorum::Roster;
    let weights = Weights::new(vec![40, 35, 25]).unwrap();
    let old = TicketAssignment::new(vec![2, 2, 2]);
    let new = TicketAssignment::new(vec![1, 1, 1]);
    let delta = TicketDelta::between(&old, &new).unwrap();
    let event = EpochEvent::new(1, delta, &weights, weights.clone(), 7).unwrap();
    let total = old.total() as usize;
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let setup = AbaSetup::nominal(total, seed, &mut StdRng::seed_from_u64(seed));
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<AbaMsg>>>> = (0..3)
                .map(|party| {
                    let setup = setup.clone();
                    Box::new(BlackBox::new(config.clone(), party, move |v, roster: &Roster| {
                        // Mixed inputs so rounds genuinely need the coin.
                        AbaNode::new(setup.clone().with_roster(roster.clone()), v % 2 == 0)
                    })) as _
                })
                .collect();
            // Inject early: most schedules cross the boundary before any
            // round combines its coin, which is exactly the case where
            // the stranded 3-of-6 shares would deadlock the old keys.
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(6, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            assert!(
                report.unanimity_among(&[0, 1, 2]),
                "ABA lost liveness or agreement across the re-dealing epoch at \
                 seed {seed} {delay:?}: {:?}",
                report.outputs
            );
        }
    }
}

/// The growth half of the coin rule: a joiner-majority epoch
/// `[2, 2, 2] -> [2, 2, 6]` spawns virtual users whose factory-cloned
/// `AbaSetup` still holds the 6-share dealing-generation table. The
/// black-box wrapper now hands every mid-flight joiner the `EpochEvent`
/// before `on_start`, so it re-deals to the same 10-share generation the
/// survivors derived (resharing depends only on the group secret and the
/// event, not on which generation a replica caught up from). Without the
/// propagation the joiner indexes `shares[dense]` out of bounds (panics)
/// or signs with stranded old-generation shares and the quorums over the
/// grown population stall.
#[test]
fn aba_coin_redeal_reaches_joiners_on_growth() {
    use swiper::protocols::quorum::Roster;
    let weights = Weights::new(vec![40, 35, 25]).unwrap();
    let old = TicketAssignment::new(vec![2, 2, 2]);
    let new = TicketAssignment::new(vec![2, 2, 6]);
    let delta = TicketDelta::between(&old, &new).unwrap();
    let event = EpochEvent::new(1, delta, &weights, weights.clone(), 11).unwrap();
    let total = old.total() as usize;
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let config = BlackBoxConfig::new(weights.clone(), &old, Ratio::of(1, 4));
            let setup = AbaSetup::nominal(total, seed, &mut StdRng::seed_from_u64(seed));
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<AbaMsg>>>> = (0..3)
                .map(|party| {
                    let setup = setup.clone();
                    Box::new(BlackBox::new(config.clone(), party, move |v, roster: &Roster| {
                        AbaNode::new(setup.clone().with_roster(roster.clone()), v % 2 == 0)
                    })) as _
                })
                .collect();
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(6, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            assert!(
                report.unanimity_among(&[0, 1, 2]),
                "ABA lost liveness or agreement across the joiner-majority epoch at \
                 seed {seed} {delay:?}: {:?}",
                report.outputs
            );
        }
    }
}

/// The stale-clone revisit hazard: an epoch chain that shrinks and then
/// returns to the dealing assignment `[1,1,1,1] -> [1,0,0,1] ->
/// [1,1,1,1]`. Survivors reshare twice; the epoch-2 joiners' factory-
/// cloned setups still hold the *construction* generation, whose ticket
/// vector equals the epoch-2 assignment — so any "tickets unchanged =>
/// keys current" shortcut would carry construction keys that no longer
/// match the survivors' reshared generation, stranding the 2 surviving
/// shares below the 3-of-4 threshold forever. `AbaSetup::on_epoch`
/// reshares unconditionally on every changed epoch (resharing is
/// idempotent across catch-up depths), so joiners and survivors converge
/// bit-identically and every schedule decides.
#[test]
fn aba_coin_redeal_survives_revisited_assignment() {
    use swiper::protocols::quorum::Roster;
    let weights = Weights::new(vec![30, 20, 20, 30]).unwrap();
    let e0 = TicketAssignment::new(vec![1, 1, 1, 1]);
    let e1 = TicketAssignment::new(vec![1, 0, 0, 1]);
    let event1 = EpochEvent::new(
        1,
        TicketDelta::between(&e0, &e1).unwrap(),
        &weights,
        weights.clone(),
        5,
    )
    .unwrap();
    let event2 = EpochEvent::new(
        2,
        TicketDelta::between(&e1, &e0).unwrap(),
        &weights,
        weights.clone(),
        5,
    )
    .unwrap();
    let total = e0.total() as usize;
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let config = BlackBoxConfig::new(weights.clone(), &e0, Ratio::of(1, 4));
            let setup = AbaSetup::nominal(total, seed, &mut StdRng::seed_from_u64(seed));
            let nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<AbaMsg>>>> = (0..4)
                .map(|party| {
                    let setup = setup.clone();
                    Box::new(BlackBox::new(config.clone(), party, move |v, roster: &Roster| {
                        AbaNode::new(setup.clone().with_roster(roster.clone()), v % 2 == 0)
                    })) as _
                })
                .collect();
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(6, event1.clone())
                .with_reconfiguration(12, event2.clone())
                .run();
            assert_eq!(report.reconfigurations, 2, "seed {seed} {delay:?}");
            assert!(
                report.unanimity_among(&[0, 1, 2, 3]),
                "ABA stalled across the revisited assignment at seed {seed} {delay:?}: {:?}",
                report.outputs
            );
        }
    }
}

/// Zoo round three, next slice: the `BoundaryEquivocator` is honest
/// within every epoch but re-asserts mangled copies of its own
/// pre-boundary statements at the first `EpochEvent`. Bracha's votes are
/// bare digests, so forged bytes can enter a node only through a pull
/// reply: the sender is a `SelectiveAck` that starves parties 5 and 6,
/// they complete their delivery quorum on digests and broadcast
/// `Request`, the equivocator answers honestly — and at the boundary
/// replays that answer as `Payload(b"forged")`. The network adversary
/// helps it: honest `Payload`s crawl (1000 ticks), and the boundary falls
/// one event before the pre-reply traffic (5 INITIAL + 33 ECHO + 47
/// READY + 14 REQUEST deliveries) runs dry, so the forged reply reaches
/// a party that is still waiting, ahead of every honest one.
///
/// The defence under test is the digest check on `Payload`
/// (`digest(&bytes) == awaited`): with it the forged reply is dropped
/// and every honest party delivers the real payload on every schedule.
/// Verified by sabotage — accept any `Payload` while a pull is
/// outstanding and 94 of the default sweep's 100 starved-party outputs
/// are `b"forged"` (752 of 800 over 200 seeds), from seed 0 on.
#[test]
fn boundary_equivocator_cannot_forge_across_the_boundary() {
    use std::cell::Cell;
    use std::rc::Rc;
    use swiper::net::adversary::BoundaryEquivocator;
    let n = 7;
    let payload = b"hold the line across epochs".to_vec();
    let unit = Weights::new(vec![1; n]).unwrap();
    let tickets = TicketAssignment::new(vec![1u64; n]);
    let delta = TicketDelta::between(&tickets, &tickets).unwrap();
    let event = EpochEvent::new(1, delta, &unit, unit.clone(), 0).unwrap();
    let pre_reply_events = 5 + 33 + 47 + 14;
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 24), DelayModel::BiasAgainstLowIds(1, 40)] {
            let config = BrachaConfig::nominal(n);
            let forged_replies = Rc::new(Cell::new(0u32));
            let planted = Rc::clone(&forged_replies);
            let mut nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = Vec::new();
            nodes.push(Box::new(SelectiveAck::new(
                BrachaNode::sender(config.clone(), 0, payload.clone()),
                vec![0, 1, 2, 3, 4],
            )));
            nodes.push(Box::new(BoundaryEquivocator::new(
                BrachaNode::new(config.clone(), 0),
                move |_to, m: BrachaMsg| {
                    Some(match m {
                        BrachaMsg::Payload(_) => {
                            planted.set(planted.get() + 1);
                            BrachaMsg::Payload(b"forged".to_vec())
                        }
                        other => other,
                    })
                },
            )));
            for _ in 2..n {
                nodes.push(Box::new(BrachaNode::new(config.clone(), 0)));
            }
            let slow_honest_replies = AdaptiveDelay::new(delay)
                .rule(|m| matches!(m, BrachaMsg::Payload(p) if p != b"forged"), 1000);
            let report = Simulation::new(nodes, seed)
                .with_adaptive_delay(slow_honest_replies)
                .with_reconfiguration(pre_reply_events - 1, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            assert!(
                forged_replies.get() > 0,
                "no forged reply was planted at seed {seed} {delay:?}: the attack never ran"
            );
            for i in (0..n).filter(|&i| i != 1) {
                assert_eq!(
                    report.outputs[i].as_deref(),
                    Some(payload.as_slice()),
                    "party {i} adopted the boundary equivocation at seed {seed} {delay:?}"
                );
            }
        }
    }
}

/// VBA's first zoo-backed weighted sweep: a `SelectiveAck`
/// quorum-splitter (its votes reach only parties 0..3) plus a silent
/// party — 25% of the stake misbehaving, under `f_w = 1/3` — while a
/// **weight-drift** `EpochEvent` lands mid-protocol (the former whale
/// shrinks, party 1 grows; every hosted RBC/ABA quorum and the
/// proposal-delivery tally must reweigh in place). Agreement + external
/// validity on every schedule, liveness for the unimpeded honest
/// parties. The buffering of early ABA messages (`aba_buffer`) is the
/// zoo-pinned defense: the splitter races its chosen quorum ahead, so
/// un-chosen parties receive view-0 BVal/coin traffic before they learn
/// the leader — drop instead of buffer and they stall.
#[test]
fn vba_weighted_zoo_sweep_with_stake_drift() {
    use swiper::protocols::vba::{VbaConfig, VbaMsg, VbaNode};
    fn valid(p: &[u8]) -> bool {
        p.starts_with(b"ok:")
    }
    let weights0 = Weights::new(vec![30, 25, 20, 15, 10]).unwrap();
    let weights1 = Weights::new(vec![20, 30, 20, 15, 10]).unwrap();
    let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2)).unwrap();
    let sol = Swiper::new().solve_restriction(&weights0, &params).unwrap();
    let delta = TicketDelta::between(&sol.assignment, &sol.assignment).unwrap();
    let event = EpochEvent::new(1, delta, &weights0, weights1, 0).unwrap();
    for seed in seeds() {
        let cfg = VbaConfig::deal(
            weights0.clone(),
            &sol.assignment,
            16,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut nodes: Vec<Box<dyn Protocol<Msg = VbaMsg>>> = Vec::new();
        for p in 0..3 {
            nodes.push(Box::new(VbaNode::new(
                cfg.clone(),
                p,
                format!("ok:proposal-{p}").into_bytes(),
                valid,
            )));
        }
        nodes.push(Box::new(SelectiveAck::new(
            VbaNode::new(cfg.clone(), 3, b"ok:proposal-3".to_vec(), valid),
            vec![0, 1, 2, 3],
        )));
        nodes.push(Box::new(Silent::new()));
        let report = Simulation::new(nodes, seed).with_reconfiguration(25, event.clone()).run();
        assert_eq!(report.reconfigurations, 1, "seed {seed}");
        assert!(report.agreement_among(&[0, 1, 2, 3]), "seed {seed}");
        for p in 0..3 {
            let out = report.outputs[p]
                .as_ref()
                .unwrap_or_else(|| panic!("party {p} never decided at seed {seed}"));
            assert!(valid(out), "externally invalid decision {out:?} at seed {seed}");
        }
    }
}

/// The whale-collapse vouch regression: the stale-stake SAFETY hole the
/// weight-bearing contract closes. A Byzantine whale vouches a forged
/// output for the zero-ticket victim *before* the boundary (24 of the
/// 26.0 needed — almost complete); the epoch event then slashes the
/// whale to dust, and a Byzantine accomplice adds its vote *after* the
/// boundary. Under construction-time weights the pair holds 28 > 26 and
/// the victim adopts the forgery on any schedule that delivers it before
/// the (deliberately late) honest vouches; under `QuorumSet::on_epoch`
/// the whale's kept vote re-tallies at its current weight 2, the forged
/// quorum is revoked (6 of the 19 now needed), and the victim adopts
/// only the honest output — on every schedule.
#[test]
fn whale_collapse_revokes_stale_vouch_weight() {
    const FORGED: &[u8] = b"forged-by-stale-stake";

    /// Byzantine whale: its only act is the pre-boundary forged vouch.
    struct StaleWhale;
    impl Protocol for StaleWhale {
        type Msg = BlackBoxMsg<u64>;
        fn on_start(&mut self, ctx: &mut swiper::net::Context<Self::Msg>) {
            ctx.send(4, BlackBoxMsg::Vouch { output: FORGED.to_vec() });
        }
        fn on_message(
            &mut self,
            _f: usize,
            _m: Self::Msg,
            _c: &mut swiper::net::Context<Self::Msg>,
        ) {
        }
    }

    /// Byzantine accomplice: completes the forged quorum post-boundary.
    struct Accomplice;
    impl Protocol for Accomplice {
        type Msg = BlackBoxMsg<u64>;
        fn on_start(&mut self, _ctx: &mut swiper::net::Context<Self::Msg>) {}
        fn on_message(
            &mut self,
            _f: usize,
            _m: Self::Msg,
            _c: &mut swiper::net::Context<Self::Msg>,
        ) {
        }
        fn on_reconfigure(
            &mut self,
            _e: &EpochEvent,
            ctx: &mut swiper::net::Context<Self::Msg>,
        ) {
            ctx.send(4, BlackBoxMsg::Vouch { output: FORGED.to_vec() });
        }
    }

    /// Honest inner automaton that outputs late, so the forged vouches
    /// always race ahead of the honest ones.
    struct LateOk;
    impl Protocol for LateOk {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut swiper::net::Context<u64>) {
            ctx.set_timer(100, 0);
        }
        fn on_message(&mut self, _f: usize, _m: u64, _c: &mut swiper::net::Context<u64>) {}
        fn on_timer(&mut self, _id: u64, ctx: &mut swiper::net::Context<u64>) {
            ctx.output(b"ok".to_vec());
        }
    }

    // f_w = 1/3. Old stake: whale 24 + accomplice 4 = 28 > 78/3 (the
    // stale crossing); new stake: 2 + 4 = 6 <= 56/3 (revoked). Honest
    // parties 2 and 3 (49 of either total) vouch the real output late.
    let weights0 = Weights::new(vec![24, 4, 30, 19, 1]).unwrap();
    let weights1 = Weights::new(vec![2, 4, 30, 19, 1]).unwrap();
    let tickets = TicketAssignment::new(vec![1, 1, 1, 1, 0]);
    let delta = TicketDelta::between(&tickets, &tickets).unwrap();
    let event = EpochEvent::new(1, delta, &weights0, weights1, 0).unwrap();
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 16), DelayModel::Uniform(1, 48)] {
            let config = BlackBoxConfig::new(weights0.clone(), &tickets, Ratio::of(1, 3));
            let mut nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<u64>>>> = Vec::new();
            nodes.push(Box::new(StaleWhale));
            nodes.push(Box::new(Accomplice));
            for party in 2..4 {
                nodes
                    .push(Box::new(BlackBox::new(config.clone(), party, |_v, _roster| LateOk)));
            }
            nodes.push(Box::new(BlackBox::new(config.clone(), 4, |_v, _roster| LateOk)));
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(1, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            assert_eq!(
                report.outputs[4].as_deref(),
                Some(b"ok".as_ref()),
                "the zero-ticket victim adopted stale-stake forgery at seed {seed} \
                 {delay:?}: {:?}",
                report.outputs[4].as_deref().map(String::from_utf8_lossy)
            );
        }
    }
}

/// The growth half of the stake-refresh contract: a reweigh that
/// COMPLETES a pending quorum must fire the quorum's transition at the
/// boundary, because honest voters vote exactly once and no later vote
/// will re-run the check. Three honest dust parties vouch "ok" toward
/// the zero-ticket victim pre-boundary (29 of the 33.4 needed under the
/// whale-dominated stake); the epoch event then shifts stake onto the
/// vouchers. Every vouch was already delivered — the only way the victim
/// can ever output is the boundary transition itself. Fails with the
/// reweigh-completion check in `BlackBox::on_reconfigure` reverted.
#[test]
fn stake_growth_completes_pending_vouch_quorum_at_the_boundary() {
    /// Byzantine whale: contributes nothing but keeps the event queue
    /// non-empty past the boundary (reconfigurations only fire between
    /// deliveries).
    struct KeepAlive;
    impl Protocol for KeepAlive {
        type Msg = BlackBoxMsg<u64>;
        fn on_start(&mut self, ctx: &mut swiper::net::Context<Self::Msg>) {
            ctx.set_timer(400, 0);
            ctx.set_timer(800, 1);
        }
        fn on_message(
            &mut self,
            _f: usize,
            _m: Self::Msg,
            _c: &mut swiper::net::Context<Self::Msg>,
        ) {
        }
    }

    /// Honest inner automaton: outputs immediately, so every vouch is on
    /// the wire (and delivered) long before the boundary.
    struct InstantOk;
    impl Protocol for InstantOk {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut swiper::net::Context<u64>) {
            ctx.output(b"ok".to_vec());
        }
        fn on_message(&mut self, _f: usize, _m: u64, _c: &mut swiper::net::Context<u64>) {}
    }

    // f_w = 1/3: vouchers hold 29 <= 100/3 before the event, 89 > 100/3
    // after it. The whale (70 -> 10) never vouches.
    let weights0 = Weights::new(vec![70, 10, 10, 9, 1]).unwrap();
    let weights1 = Weights::new(vec![10, 30, 30, 29, 1]).unwrap();
    let tickets = TicketAssignment::new(vec![1, 1, 1, 1, 0]);
    let delta = TicketDelta::between(&tickets, &tickets).unwrap();
    let event = EpochEvent::new(1, delta, &weights0, weights1, 0).unwrap();
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 16), DelayModel::Uniform(1, 48)] {
            let config = BlackBoxConfig::new(weights0.clone(), &tickets, Ratio::of(1, 3));
            let mut nodes: Vec<Box<dyn Protocol<Msg = BlackBoxMsg<u64>>>> = Vec::new();
            nodes.push(Box::new(KeepAlive));
            for party in 1..4 {
                nodes.push(Box::new(BlackBox::new(config.clone(), party, |_v, _r| InstantOk)));
            }
            nodes.push(Box::new(BlackBox::new(config.clone(), 4, |_v, _r| InstantOk)));
            // 15 vouch deliveries (3 broadcasts x 5 nodes) precede the
            // keep-alive timers; the boundary lands after all of them.
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(15, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            assert_eq!(
                report.outputs[4].as_deref(),
                Some(b"ok".as_ref()),
                "the boundary-completed vouch quorum never fired for the zero-ticket \
                 victim at seed {seed} {delay:?}"
            );
        }
    }
}

/// Same transition class for weighted Bracha in the party regime: the
/// echo quorum is pending under a whale-dominated stake when the epoch
/// event shifts weight onto the echoers — with every echo already
/// delivered. The boundary itself completes each node's echo quorum:
/// `QuorumSet::on_epoch` reports it and `BrachaNode::on_reconfigure` fires
/// the READY transition locally, the only path to READY and delivery;
/// drop that and the broadcast stalls on every schedule.
#[test]
fn stake_growth_completes_pending_bracha_quorums_at_the_boundary() {
    struct KeepAlive;
    impl Protocol for KeepAlive {
        type Msg = BrachaMsg;
        fn on_start(&mut self, ctx: &mut swiper::net::Context<BrachaMsg>) {
            ctx.set_timer(400, 0);
            ctx.set_timer(800, 1);
        }
        fn on_message(
            &mut self,
            _f: usize,
            _m: BrachaMsg,
            _c: &mut swiper::net::Context<BrachaMsg>,
        ) {
        }
    }

    // Echo threshold > 2/3: echoers hold 20 of 100 pre-event (pending
    // with the whale silent), 95 of 105 post-event.
    let weights0 = Weights::new(vec![80, 10, 5, 5]).unwrap();
    let weights1 = Weights::new(vec![10, 40, 30, 25]).unwrap();
    let tickets = TicketAssignment::new(vec![1u64; 4]);
    let delta = TicketDelta::between(&tickets, &tickets).unwrap();
    let event = EpochEvent::new(1, delta, &weights0, weights1, 0).unwrap();
    let payload = b"growth completes the echo quorum".to_vec();
    for seed in seeds() {
        for delay in [DelayModel::Uniform(1, 16), DelayModel::Uniform(1, 48)] {
            let config = BrachaConfig::weighted(weights0.clone());
            let nodes: Vec<Box<dyn Protocol<Msg = BrachaMsg>>> = vec![
                Box::new(KeepAlive),
                Box::new(BrachaNode::sender(config.clone(), 1, payload.clone())),
                Box::new(BrachaNode::new(config.clone(), 1)),
                Box::new(BrachaNode::new(config.clone(), 1)),
            ];
            // 4 INITIAL + 12 ECHO deliveries, then only keep-alive timers.
            let report = Simulation::new(nodes, seed)
                .with_delay(delay)
                .with_reconfiguration(16, event.clone())
                .run();
            assert_eq!(report.reconfigurations, 1, "seed {seed} {delay:?}");
            for i in 1..4 {
                assert_eq!(
                    report.outputs[i].as_deref(),
                    Some(payload.as_slice()),
                    "party {i} stalled on a boundary-completed quorum at seed {seed} \
                     {delay:?}"
                );
            }
        }
    }
}

/// Solver determinism across platforms is seed-independent by design;
/// stress it by solving the same instance interleaved with unrelated
/// solves (shared state would show up here).
#[test]
fn solver_state_isolation() {
    let params = WeightRestriction::new(Ratio::of(1, 4), Ratio::of(1, 3)).unwrap();
    let a = Weights::new(vec![50, 30, 11, 5, 2, 1, 1]).unwrap();
    let b = Weights::new((1..=64u64).map(|i| i * i).collect()).unwrap();
    let first = Swiper::new().solve_restriction(&a, &params).unwrap();
    for _ in 0..10 {
        let _ = Swiper::new().solve_restriction(&b, &params).unwrap();
        let again = Swiper::new().solve_restriction(&a, &params).unwrap();
        assert_eq!(first.assignment, again.assignment);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(sweep_cases()))]

    /// Warm-started re-solve equivalence: on a randomly perturbed weight
    /// vector, `resolve_from` through a `CachingOracle` must agree with a
    /// cold `FullOracle` solve — identical assignments and final totals —
    /// whenever the epoch loop's verified mode would publish it, i.e. the
    /// predicate flips once between the brackets. Mild perturbations (one
    /// party ±10%) keep the flip unique on these vectors; the Tezos
    /// replay test in `swiper-weights` covers the dip/fallback behavior.
    #[test]
    fn warm_resolve_with_caching_matches_cold_full_oracle(
        mut ws in proptest::collection::vec(1u64..50_000, 4..20),
        whale in 10_000u64..1_000_000,
        churned_ix in 0usize..20,
        factor in 90u64..111,
        pw in 1u128..6, pn in 2u128..7,
    ) {
        let aw = Ratio::of(pw, 7);
        let an = Ratio::of(pn, 7);
        prop_assume!(aw < an && aw.is_proper() && an.is_proper());
        ws.push(whale);
        let old = Weights::new(ws.clone()).unwrap();
        let p = WeightRestriction::new(aw, an).unwrap();
        // Epoch delta: one party's stake moves by up to ±10%.
        let ix = churned_ix % ws.len();
        ws[ix] = (ws[ix].saturating_mul(factor) / 100).max(1);
        let new = Weights::new(ws).unwrap();
        let solver = Swiper::new();
        let prev = solver.solve_restriction(&old, &p).unwrap();
        let cold = solver.solve_restriction(&new, &p).unwrap();
        let mut oracle = CachingOracle::new(FullOracle::new());
        let inst = Instance::restriction(new.clone(), p);
        let warm = solver.resolve_from_with(&mut oracle, &prev, &inst).unwrap();
        prop_assume!(warm.total_tickets() == cold.total_tickets());
        prop_assert_eq!(&warm.assignment, &cold.assignment,
            "equal totals must mean the identical family member");
        prop_assert_eq!(warm.ticket_bound, cold.ticket_bound);
        // Verified-mode shape: a cold re-solve through the same cache is
        // bit-identical to the fresh cold solve and reuses warm verdicts.
        let verify = solver.solve_restriction_with(&mut oracle, &new, &p).unwrap();
        prop_assert_eq!(&verify.assignment, &cold.assignment);
        // Every probe of the verification pass went through the cache.
        prop_assert_eq!(verify.stats.cache_lookups(), verify.stats.candidates_checked);
    }
}
