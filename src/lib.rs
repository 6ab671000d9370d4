//! # swiper — weighted distributed protocols via weight reduction
//!
//! Facade crate for the workspace reproducing *"Swiper: a new paradigm for
//! efficient weighted distributed protocols"* (Tonkikh & Freitas,
//! PODC 2024, arXiv:2307.15561). It re-exports the solver core and gives
//! each substrate a stable module path:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`core`] | `swiper-core` | WR/WQ/WS problems, the Swiper solver, verifiers, virtual users |
//! | [`field`] | `swiper-field` | `GF(2^8)`, `F_{2^61-1}`, polynomials |
//! | [`erasure`] | `swiper-erasure` | Reed–Solomon, Welch–Berlekamp, online error correction |
//! | [`crypto`] | `swiper-crypto` | Shamir, VSS, simulated threshold crypto, Merkle, hash |
//! | [`net`] | `swiper-net` | deterministic async network simulator, epoch-schedule drivers |
//! | [`protocols`] | `swiper-protocols` | Bracha, AVID, ECBC, beacon, ABA, black-box, SSLE, checkpoints, SMR |
//! | [`weights`] | `swiper-weights` | chain replicas, generators, bootstrap, stats, the epoch reconfiguration loop |
//!
//! ## Quick start
//!
//! ```
//! use swiper::{Ratio, Swiper, Weights, WeightRestriction};
//!
//! # fn main() -> Result<(), swiper::core::CoreError> {
//! let stake = Weights::new(vec![3_400, 2_100, 900, 420, 77])?;
//! let params = WeightRestriction::new(Ratio::of(1, 3), Ratio::of(1, 2))?;
//! let solution = Swiper::new().solve_restriction(&stake, &params)?;
//! println!("(party, tickets): {:?}", solution.assignment.nonzero().collect::<Vec<_>>());
//! assert!(swiper::core::verify_restriction(&stake, &solution.assignment, &params)?);
//! # Ok(())
//! # }
//! ```
//!
//! ## Epoch machinery
//!
//! Long-lived weighted deployments reconfigure across *epochs*: stake
//! moves, the solver re-runs, and live protocol instances splice the
//! change in rather than tearing down. The workhorse types are exported
//! at the crate root:
//!
//! * [`EpochEvent`] — the weight-bearing reconfiguration unit (epoch
//!   number, [`TicketDelta`], the new per-party [`Weights`], a
//!   fingerprint of the previous ones, and a deterministic rekey seed);
//!   `net::Protocol::on_reconfigure` consumes it, and
//!   `weights::epoch::Reconfigurator` emits it per epoch and track.
//! * [`StableId`] / [`VirtualUsers`] — the `(party, offset)` identities
//!   that survive renumbering deltas, and the dense mapping of one epoch.
//! * [`Roster`] — one replica's shared, epoch-aware identity directory:
//!   the black-box wrapper and the nominal automata it hosts resolve and
//!   migrate identities through one atomically-spliced mapping.
//! * [`IdentityView`] — how a protocol maps delivery-time sender ids to
//!   stable identities (fixed party set vs. roster-backed virtual users).
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the binaries regenerating the paper's tables and
//! figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use swiper_core as core;
pub use swiper_crypto as crypto;
pub use swiper_erasure as erasure;
pub use swiper_field as field;
pub use swiper_net as net;
pub use swiper_protocols as protocols;
pub use swiper_weights as weights;

// The workhorse types at the crate root for convenience.
pub use swiper_core::{
    CachingOracle, CheckParams, EpochEvent, FamilyMember, FullOracle, Instance, LinearOracle,
    Mode, PartyId, Ratio, Solution, SolveStats, StableId, Swiper, TicketAssignment,
    TicketDelta, ValidityOracle, Verdict, VirtualUsers, WeightQualification, WeightRestriction,
    WeightSeparation, Weights,
};
pub use swiper_protocols::quorum::{IdentityView, Roster};
