//! Offline stand-in for `serde`.
//!
//! This workspace builds in an environment without registry access, so the
//! real `serde` cannot be fetched. The codebase only uses
//! `#[derive(Serialize, Deserialize)]` as forward-compatible annotations —
//! nothing serializes yet — so this shim provides the two trait names with
//! blanket impls and re-exports no-op derive macros. Swapping in the real
//! `serde` later is a one-line manifest change, with its `rc` feature on:
//! `swiper_core::Weights` holds its vector as an `Arc<Vec<u64>>`, which real
//! `serde` implements only under `rc` (a deserialized `Weights` then owns
//! a fresh vector, shared by its clones from there on). No source edits
//! are needed.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker stand-in for `serde::Serialize`; blanket-implemented for all types.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize`; blanket-implemented for all types.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}
