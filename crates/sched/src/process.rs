//! Process control blocks and CPU accounting.

use lrp_sim::SimDuration;

/// A process identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

/// An opaque wait channel (BSD `wchan`): the "thing" a process sleeps on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WaitChannel(pub u64);

/// Process scheduling state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcState {
    /// On a run queue, waiting for the CPU.
    Runnable,
    /// Currently executing.
    Running,
    /// Blocked on a wait channel.
    Sleeping(WaitChannel),
    /// Terminated.
    Exited,
}

/// What an increment of CPU time was spent on; determines which accounting
/// bucket it lands in. All kinds feed `p_estcpu` for the charged process —
/// that is precisely the mis-accounting lever the paper analyses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Account {
    /// User-mode computation.
    User,
    /// Kernel work on the process's own behalf (system calls, lazy
    /// protocol processing in LRP).
    System,
    /// Interrupt-context work charged to this process. Under BSD this hits
    /// whoever was running; under LRP it is charged to the traffic's
    /// receiver.
    Interrupt,
}

/// Accumulated CPU time by account.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuAccounting {
    /// Time spent in user mode.
    pub user: SimDuration,
    /// Time spent in system (kernel, on-behalf) mode.
    pub system: SimDuration,
    /// Interrupt-context time charged to this process.
    pub interrupt: SimDuration,
}

impl CpuAccounting {
    /// Total charged CPU time.
    pub fn total(&self) -> SimDuration {
        self.user + self.system + self.interrupt
    }

    /// Adds `d` to the bucket selected by `kind`.
    pub fn add(&mut self, kind: Account, d: SimDuration) {
        match kind {
            Account::User => self.user += d,
            Account::System => self.system += d,
            Account::Interrupt => self.interrupt += d,
        }
    }
}

/// A process control block.
#[derive(Clone, Debug)]
pub struct Process {
    /// Identifier.
    pub pid: Pid,
    /// Human-readable name for reports.
    pub name: String,
    /// Niceness, −20 (favored) to +20 (background), as in UNIX.
    pub nice: i8,
    /// Decayed estimate of recent CPU usage, in statclock ticks
    /// (fractional for determinism; BSD's integer `p_estcpu`).
    pub estcpu: f64,
    /// Computed user-mode priority (lower is better).
    pub user_pri: u8,
    /// Elevated kernel priority while inside the kernel after a sleep
    /// (cleared on return to user mode).
    pub kernel_pri: Option<u8>,
    /// Fixed priority overriding the decay computation entirely. Used for
    /// kernel threads: the LRP idle protocol thread (pinned worst) and the
    /// APP thread (pinned to the owning application's priority).
    pub fixed_pri: Option<u8>,
    /// Scheduling state.
    pub state: ProcState,
    /// CPU time charged to this process, by account.
    pub acct: CpuAccounting,
    /// Cache-reload penalty paid when this process goes on-CPU after
    /// another process ran: models its cache working set (Table 2's
    /// memory-locality effect). Zero for processes with negligible state.
    pub cache_reload: SimDuration,
    /// The CPU whose run queue this process is filed on when runnable.
    /// Assigned round-robin at spawn; updated when the idle-steal balancer
    /// migrates the process. Always 0 on a uniprocessor.
    pub home_cpu: usize,
    /// Hard CPU affinity: `Some(cpu)` pins the process to one CPU (kernel
    /// threads tied to per-CPU state); `None` lets the balancer migrate it.
    pub affinity: Option<usize>,
    /// On the scheduler's charged list (see
    /// [`Scheduler::take_charged`](crate::Scheduler::take_charged)). Kept
    /// here, beside `acct`, because `charge_on` writes both.
    pub(crate) charged: bool,
}

impl Process {
    /// The effective scheduling priority: a fixed priority if pinned, else
    /// the kernel sleep priority while it is in effect, else the decayed
    /// user priority.
    pub fn effective_pri(&self) -> u8 {
        if let Some(p) = self.fixed_pri {
            return p;
        }
        self.kernel_pri.unwrap_or(self.user_pri)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_buckets() {
        let mut a = CpuAccounting::default();
        a.add(Account::User, SimDuration::from_micros(10));
        a.add(Account::System, SimDuration::from_micros(20));
        a.add(Account::Interrupt, SimDuration::from_micros(30));
        a.add(Account::User, SimDuration::from_micros(5));
        assert_eq!(a.user, SimDuration::from_micros(15));
        assert_eq!(a.system, SimDuration::from_micros(20));
        assert_eq!(a.interrupt, SimDuration::from_micros(30));
        assert_eq!(a.total(), SimDuration::from_micros(65));
    }

    #[test]
    fn effective_pri_prefers_kernel() {
        let mut p = Process {
            pid: Pid(1),
            name: "t".into(),
            nice: 0,
            estcpu: 0.0,
            user_pri: 60,
            kernel_pri: None,
            fixed_pri: None,
            state: ProcState::Runnable,
            acct: CpuAccounting::default(),
            cache_reload: SimDuration::ZERO,
            home_cpu: 0,
            affinity: None,
            charged: false,
        };
        assert_eq!(p.effective_pri(), 60);
        p.kernel_pri = Some(24);
        assert_eq!(p.effective_pri(), 24);
    }
}
