//! The memory system of the simulated CMP-based DSM multiprocessor.
//!
//! Each CMP node holds two processors with private L1 data caches, a shared
//! unified L2, a slice of the globally shared memory, a directory controller
//! (DC), and network input/output ports. System-wide coherence of the L2
//! caches is maintained by an invalidate-based, fully-mapped directory
//! protocol, exactly as in §2 of the paper. The latency and occupancy
//! parameters default to Table 1 (Origin 3000-like): a contention-free
//! local miss costs 170 cycles and a remote miss 290 cycles — asserted by
//! this crate's tests.
//!
//! Beyond a conventional protocol, this crate implements the paper's §4
//! mechanisms:
//!
//! * **transparent loads** — A-stream read requests that may be answered
//!   with a (possibly stale) memory copy without disturbing an exclusive
//!   owner; the returned line is visible only to the A-stream;
//! * **future-sharer bits** per directory entry, set by transparent loads
//!   and cleared by evictions or R-stream requests;
//! * **self-invalidation hints** sent to exclusive owners, processed at
//!   R-stream synchronization points at a peak rate of one line per
//!   `si_interval` cycles: lines written inside a critical section are
//!   invalidated (migratory), others are written back and downgraded to
//!   shared (producer-consumer);
//! * **request classification** for Figure 7 (A/R × Timely/Late/Only, for
//!   read and exclusive requests).
//!
//! The crate is driven by the `slipstream-core` machine loop through three
//! entry points: [`MemSystem::access`] (processor-side), [`MemSystem::sync`]
//! (barrier/lock/event operations, which travel through the same network
//! and controllers), and [`MemSystem::handle_event`] (the discrete-event
//! callbacks). Completions are returned to the caller as [`Completion`]
//! values.

mod classify;
mod directory;
mod home;
mod l1;
mod l2;
mod msg;
mod stats;
mod sync;
mod system;
mod trace;

pub use classify::{ClassCounts, RequestClass};
pub use home::HomeMap;
pub use msg::{AccessKind, Completion, MemEvent, Msg, StreamRole, SyncOp, Token};
pub use stats::{ContentionStats, MemStats, ResourceUse};
pub use system::{Access, MemSched, MemSystem};
pub use trace::{AccessOutcome, MemObs, MemObserver, TracePerm};
