//! The paper's contribution: a simulated server host implementing four
//! network-subsystem architectures — 4.4BSD, Early-Demux, SOFT-LRP and
//! NI-LRP — over shared protocol code, plus the [`World`] that connects
//! hosts with links and traffic injectors.
//!
//! The four architectures differ in exactly the dimensions the paper
//! identifies (§2.2/§3):
//!
//! | | demux | protocol processing | early discard | CPU charging |
//! |---|---|---|---|---|
//! | **BSD** | PCB lookup in softirq | eager, softirq priority | none (socket queue, after full processing) | interrupted process |
//! | **Early-Demux** | host interrupt handler | eager, softirq priority | at interrupt, socket-queue feedback | interrupted process |
//! | **SOFT-LRP** | host interrupt handler | lazy: receive syscall (UDP), APP thread at owner priority (TCP) | at interrupt, channel queue | receiving process |
//! | **NI-LRP** | NIC "firmware" (zero host cost) | lazy, as SOFT-LRP | on the NIC, before any host work | receiving process |
//!
//! See `DESIGN.md` at the repository root for the experiment index and the
//! calibration of [`CostModel`].

#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod host;
pub mod hostfault;
pub mod syscall;
pub mod telemetry;
pub mod watchdog;
pub mod world;

pub use config::{Architecture, HostConfig, SynCookies};
pub use cost::CostModel;
pub use host::{DropPoint, Host, HostStats};
pub use hostfault::{CrashEvent, FaultKind, HostFaultPlan};
pub use syscall::{
    AppCtx, AppLogic, Errno, ListenStats, SockProto, SockStats, SyscallOp, SyscallRet,
};
pub use telemetry::{PacketLedger, SpanEvent, SpanId, Telemetry, TIMELINE_COLUMNS};
pub use watchdog::{AnomalyEvent, AnomalyKind, Watchdog, WatchdogSample};
pub use world::{Event, World};

pub use lrp_sched::Pid;
pub use lrp_stack::tcp::CcAlgo;
pub use lrp_stack::SockId;
