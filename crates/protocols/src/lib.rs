//! # swiper-protocols — the weighted protocol zoo
//!
//! Implementations of the distributed protocols the Swiper paper derives
//! from its weight reduction problems (Sections 4–6), in both their
//! *nominal* (one party, one vote) and *weighted* forms, running on the
//! deterministic simulator of `swiper-net`:
//!
//! | module | paper | weight reduction used |
//! |--------|-------|----------------------|
//! | [`quorum`] | §1.2 weighted voting | none (exact rational quorums) |
//! | [`keys`] | §4.1 ticket-dealt threshold keys: deal, sign, collect, combine | WR |
//! | [`bracha`] | §5.1 substrate | weighted voting |
//! | [`avid`] | §5.1 erasure-coded broadcast/storage | WQ |
//! | [`ecbc`] | §5.2 error-corrected broadcast | WQ |
//! | [`beacon`] | §4.1 randomness beacon / common coin | WR |
//! | [`aba`] | §6.2 substrate: binary agreement with coin | WR + weighted voting |
//! | [`blackbox`] | §4.4 black-box transformation | WR |
//! | [`vba`] | Def. 4.3 / §6.2 validated multi-valued agreement | WR + weighted voting |
//! | [`ssle`] | §4.4 single secret leader election, chain quality | WR |
//! | [`checkpoint`] | §6.3 consensus checkpointing | WR (blunt + tight) |
//! | [`tight`] | §4.3 vote-then-act tight threshold actions | WR |
//! | [`smr`] | §6.1 asynchronous SMR composition | WR + WQ |
//! | [`overhead`] | Table 1 | analytic overhead formulas |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aba;
pub mod avid;
pub mod beacon;
pub mod blackbox;
pub mod bracha;
pub mod checkpoint;
pub mod dkg;
pub mod ecbc;
pub mod keys;
pub mod overhead;
pub mod quorum;
pub mod smr;
pub mod ssle;
pub mod tight;
pub mod vba;
pub mod wire;
