//! Shared vocabulary types for the RecNMP simulator workspace.
//!
//! This crate holds the small, dependency-free building blocks used by every
//! other crate in the reproduction of *RecNMP: Accelerating Personalized
//! Recommendation with Near-Memory Processing* (ISCA 2020):
//!
//! * [`PhysAddr`] — a physical byte address in the simulated machine,
//! * identifier newtypes ([`TableId`], [`RankId`], ...),
//! * byte-size constants and helpers ([`units`]),
//! * a deterministic seeded RNG ([`rng::DetRng`]) used by all stochastic
//!   components so that every experiment is reproducible,
//! * a fixed hasher for per-lookup sets of simulator-derived ids
//!   ([`hash::IdHashSet`]), and
//! * the common [`ConfigError`] type returned by constructors that validate
//!   their configuration.
//!
//! # Examples
//!
//! ```
//! use recnmp_types::{PhysAddr, units::MIB};
//!
//! let a = PhysAddr::new(3 * MIB);
//! assert_eq!(a.offset(64).get(), 3 * MIB + 64);
//! ```

pub mod addr;
pub mod error;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod units;

pub use addr::PhysAddr;
pub use error::{ConfigError, SimError};
pub use ids::{DimmId, ModelId, NodeId, RankId, RequestId, TableId};
pub use units::ByteSize;

/// A simulator clock cycle count.
///
/// All cycle-level components in the workspace advance in units of the DRAM
/// clock (1200 MHz for DDR4-2400, i.e. 0.833 ns per cycle).
pub type Cycle = u64;
