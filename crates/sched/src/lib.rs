//! Process model and 4.3BSD-style decay-usage scheduler.
//!
//! The LRP paper's fairness and latency results (Figure 4, Table 2) are
//! driven by the interaction of three UNIX scheduler mechanisms, all
//! modelled faithfully here:
//!
//! 1. **Decay-usage priorities** — a process's user priority worsens with
//!    its recent CPU usage (`p_estcpu`), which decays once per second by
//!    `(2·load) / (2·load + 1)`; `nice` shifts priority linearly.
//! 2. **Kernel sleep priorities** — a process blocked in a system call
//!    (e.g. on a socket) wakes at an elevated kernel priority (`PSOCK`),
//!    preempting user-mode processes until it returns to user mode. This
//!    is the UNIX "favor I/O-bound processes" behaviour the paper
//!    discusses.
//! 3. **CPU accounting drives scheduling** — whoever gets *charged* for
//!    CPU time pays for it in future priority. BSD charges interrupt-time
//!    to the process that happened to be running (mis-accounting); LRP
//!    charges protocol processing to the receiving process. The charging
//!    policy is chosen by the caller ([`Scheduler::charge_on`]); this crate
//!    provides the machinery.
//!
//! The scheduler is purely a decision structure: it never advances time
//! itself. The host model (`lrp-core`) tells it when ticks elapse, who
//! consumed CPU, and when processes sleep and wake.

#![warn(missing_docs)]

pub mod process;
pub mod runq;
pub mod scheduler;

pub use process::{Account, CpuAccounting, Pid, ProcState, Process, WaitChannel};
pub use runq::RunQueue;
pub use scheduler::{SchedConfig, Scheduler};

/// Priority of user-mode processes ranges from [`PUSER`] (best) to
/// [`PRI_MAX`] (worst). Lower numeric values are better, as in BSD.
pub const PUSER: u8 = 50;

/// Worst (numerically largest) priority.
pub const PRI_MAX: u8 = 127;

/// Kernel sleep priority for socket waits (`PSOCK` in BSD): processes
/// waking from a socket sleep run at this priority until they return to
/// user mode, preempting any user-mode process.
pub const PSOCK: u8 = 24;

/// Kernel sleep priority for timeouts/pauses (`PPAUSE` in BSD).
pub const PPAUSE: u8 = 40;
