//! # nexus-sim — discrete-event simulation substrate
//!
//! This crate provides the timing machinery shared by every hardware and software
//! model in the Nexus# reproduction:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time,
//! * [`ClockDomain`] — cycle ↔ time conversion for a hardware block running at a
//!   given frequency (the Nexus# designs run at 41.66–100 MHz depending on the
//!   number of task graphs, while task durations come from wall-clock traces),
//! * [`SerialResource`] — busy-until reservation of pipeline stages, engines
//!   and ports,
//! * [`LinkResource`] — a point-to-point interconnect link (latency + bandwidth
//!   + serialization) used by the multi-node cluster simulation,
//! * [`EventQueue`] — the time-ordered calendar queue that drives both event
//!   loops, the multicore host simulation and the multi-node cluster one,
//! * [`stats`] — online statistics and load-balance summaries used by the
//!   benchmark harness,
//! * [`rng`] — a small deterministic pseudo-random generator so traces and
//!   simulations are exactly reproducible without external crates.
//!
//! The model of computation is *timed-functional*: components are functionally
//! exact (dependency semantics are always respected) and their cost is expressed
//! through reservations of serial resources, which is precisely the level at which
//! the paper's evaluation operates (pipeline stage cycle counts, queueing, clock
//! frequency).

#![warn(missing_docs)]

pub mod clock;
pub mod events;
pub mod fxhash;
pub mod link;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::ClockDomain;
pub use events::{EngineKind, EventQueue, TimedEvent};
pub use fxhash::{FxHashMap, FxHashSet};
pub use link::{LinkDelivery, LinkResource};
pub use resource::SerialResource;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
