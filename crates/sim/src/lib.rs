//! Discrete-event simulation engine for the LRP reproduction.
//!
//! This crate provides the deterministic foundation every other crate builds
//! on: simulated time ([`SimTime`], [`SimDuration`]), a stable-ordered event
//! queue ([`EventQueue`]), a seeded RNG ([`SplitMix64`]), measurement
//! primitives ([`stats`]), the cycle account ([`profile`]) and [`timeline`].
//!
//! Determinism is a hard requirement: two runs of the same experiment with
//! the same seed must produce identical results, so that the paper's figures
//! regenerate reproducibly. The engine is therefore single-threaded, uses
//! integer nanosecond time, and breaks event-time ties by insertion order.
//!
//! # Examples
//!
//! ```
//! use lrp_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(5), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(2), "a");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(e, "a");
//! assert_eq!(t.as_micros(), 2);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod profile;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use event::EventQueue;
pub use profile::{CycleAccount, CycleKey, FastHashMap, FoldHasher};
pub use rng::SplitMix64;
pub use stats::{Histogram, RateSeries, Welford};
pub use time::{SimDuration, SimTime};
pub use timeline::{MetricsTimeline, TimelineRow};
