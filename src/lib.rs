//! Lazy Receiver Processing (LRP) — a full reproduction of the OSDI '96
//! network subsystem architecture by Druschel and Banga.
//!
//! This facade crate re-exports the workspace's public API so that examples
//! and downstream users can depend on a single crate. See the individual
//! crates for detail:
//!
//! - [`sim`] — discrete-event engine, deterministic RNG, statistics.
//! - [`wire`] — IPv4/UDP/TCP/ICMP/ARP wire formats on real bytes, and the
//!   frame arena behind every frame's bytes.
//! - [`demux`] — the early packet demultiplexing function of LRP §3.2.
//! - [`sched`] — 4.3BSD decay-usage scheduler and process model.
//! - [`nic`] — network interface model with NI channels.
//! - [`stack`] — the TCP/UDP/IP protocol engines.
//! - [`core`] — the simulated host integrating all four architectures
//!   (BSD, Early-Demux, SOFT-LRP, NI-LRP); the paper's contribution.
//! - [`net`] — links, switch, and rate-controlled traffic injectors.
//! - [`apps`] — the paper's application workloads as state machines.
//! - [`experiments`] — drivers regenerating every table and figure.
//! - [`telemetry`] — JSON experiment reports, per-stage latency and
//!   packet-conservation checks over the hosts' telemetry layer.
//!
//! # Examples
//!
//! Measure one point of the paper's Figure 3 (UDP overload behaviour):
//!
//! ```
//! use lrp::core::Architecture;
//! use lrp::experiments::fig3;
//! use lrp::sim::SimTime;
//!
//! let p = fig3::measure(Architecture::NiLrp, 2_000.0, SimTime::from_millis(1_500));
//! assert!((1_800.0..=2_100.0).contains(&p.delivered));
//! ```

#![warn(missing_docs)]

pub use lrp_apps as apps;
pub use lrp_core as core;
pub use lrp_demux as demux;
pub use lrp_experiments as experiments;
pub use lrp_net as net;
pub use lrp_nic as nic;
pub use lrp_sched as sched;
pub use lrp_sim as sim;
pub use lrp_stack as stack;
pub use lrp_telemetry as telemetry;
pub use lrp_wire as wire;
