//! Discrete-event simulation kernel for the slipstream CMP multiprocessor
//! simulator.
//!
//! This crate provides the timing substrate shared by every other crate in
//! the workspace:
//!
//! * [`Cycle`] — a newtype for simulated processor cycles;
//! * [`EventQueue`] — a deterministic time-ordered event queue (ties are
//!   broken in insertion order, so every simulation run is reproducible);
//! * [`Server`] — a FIFO resource used to model occupancy/contention at
//!   directory controllers and network ports;
//! * id newtypes ([`NodeId`], [`CpuId`], [`TaskId`], [`Addr`], [`LineAddr`])
//!   that keep the many small integers in a multiprocessor simulator from
//!   being confused with one another;
//! * [`FxHashMap`] — a `HashMap` with a fast deterministic hasher for the
//!   simulator's per-access maps (directories, MSHRs, sync objects);
//! * [`SplitMix64`] — a tiny deterministic RNG used by workload generators;
//! * [`SharerSet`] — a compact, growable node bit-set used by the
//!   directory protocol and its observers;
//! * [`Slab`] — reusable `u32`-indexed slots with a LIFO free list, for
//!   protocol state that exists only while a request is in flight (MSHRs,
//!   directory transactions);
//! * [`config`] — the machine description (Table 1 of the paper) and the
//!   slipstream execution-mode knobs.
//!
//! # Example
//!
//! ```
//! use slipstream_kernel::{Cycle, EventQueue};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.push(Cycle(10), "b");
//! q.push(Cycle(5), "a");
//! q.push(Cycle(10), "c"); // same time as "b": FIFO order preserved
//! assert_eq!(q.pop(), Some((Cycle(5), "a")));
//! assert_eq!(q.pop(), Some((Cycle(10), "b")));
//! assert_eq!(q.pop(), Some((Cycle(10), "c")));
//! assert_eq!(q.pop(), None);
//! ```

pub mod config;
mod hash;
mod ids;
mod queue;
mod rng;
mod server;
mod sharers;
mod slab;
mod smallvec;
mod time;

pub use hash::{fx_map_with_capacity, FxBuildHasher, FxHasher, FxHashMap};
pub use ids::{Addr, CpuId, LineAddr, NodeId, TaskId};
pub use queue::EventQueue;
pub use rng::SplitMix64;
pub use server::Server;
pub use sharers::{SharerIter, SharerSet};
pub use slab::Slab;
pub use smallvec::InlineVec;
pub use time::Cycle;
