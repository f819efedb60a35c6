//! Trace-driven CPU frontend and I-cache simulator for the Ripple
//! reproduction (the paper's modified-ZSim substrate, rebuilt in Rust).
//!
//! The crate provides:
//!
//! * a set-associative [`Cache`] with a pluggable [`ReplacementPolicy`];
//! * every policy from the paper's §II-D ([`LruPolicy`], [`RandomPolicy`],
//!   [`SrripPolicy`], [`DrripPolicy`], [`GhrpPolicy`], [`HawkeyePolicy`] /
//!   Harmony) plus the offline ideals [`OptPolicy`] and
//!   [`DemandMinPolicy`];
//! * instruction prefetchers (next-line and FDIP with a gshare/BTB/RAS
//!   [`BranchPredictor`] and a fetch target queue);
//! * a frontend timing model charging demand-miss stalls through a
//!   simulated L2/L3 (Table II latencies);
//! * the `invalidate` instruction Ripple injects (invalidate or
//!   LRU-demote semantics);
//! * a dense per-layout line interner ([`LineId`]) and a precomputed
//!   block→lines fetch plan — the one path through the simulator's hot
//!   loops. The pre-interning frontend survives only as an
//!   equivalence oracle in the `ripple-check` crate, so this crate carries
//!   one implementation per concept.
//!
//! Entry points: [`simulate`], [`simulate_with_sink`],
//! [`simulate_ideal_cache`], [`baseline_and_ideal`], and — for policy
//! matrices sharing one recording pass — [`SimSession`]. Evictions stream
//! into an [`EvictionSink`] instead of being materialized by the engine.

#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_debug_implementations)]

mod bpred;
mod cache;
mod config;
mod engine;
mod frontend;
mod intern;
pub mod policy;
mod replay;
mod sink;
mod stats;

pub use bpred::{BranchPredictor, Prediction};
pub use cache::{AccessOutcome, Cache};
pub use config::{
    CacheGeometry, EvictionMechanism, PrefetcherKind, SimConfig, SimConfigBuilder, SimConfigError,
};
pub use engine::{
    baseline_and_ideal, ideal_policy_for, simulate, simulate_ideal_cache, simulate_with_sink,
    SimSession,
};
pub use intern::LineId;
pub use policy::registry::PolicyKind;
pub use policy::{
    build_ideal_policy, build_policy, AccessInfo, DemandMinPolicy, DrripPolicy, FutureIndex,
    GhrpPolicy, HawkeyePolicy, LruPolicy, OptPolicy, PolicyConstructor, PolicyDescriptor,
    PolicyFamily, PolicyId, PolicyRegistry, RandomPolicy, RegistryError, ReplacementPolicy,
    SrripPolicy, StreamRecord, Temperature, TemperatureMap, TreePlruPolicy, TrripPolicy, WayView,
    NEVER,
};
pub use replay::{StreamLimitError, MAX_STREAM_RECORDS};
pub use sink::{EvictionSink, FnSink, NullSink, VecSink};
pub use stats::{EvictionEvent, SimStats};
