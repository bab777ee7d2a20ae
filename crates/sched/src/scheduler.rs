//! The decay-usage scheduler.

use crate::process::{Account, CpuAccounting, Pid, ProcState, Process, WaitChannel};
use crate::runq::RunQueue;
use crate::{PRI_MAX, PUSER};
use lrp_sim::{FastHashMap, SimDuration};

/// The clamp on `estcpu`: BSD keeps `p_estcpu` within a byte so
/// priorities stay in range.
const ESTCPU_MAX: f64 = 255.0;

/// Scheduler tuning parameters (4.3BSD defaults).
#[derive(Clone, Copy, Debug)]
pub struct SchedConfig {
    /// The statclock tick: the unit in which `estcpu` is accumulated.
    pub tick: SimDuration,
    /// Number of CPUs: one run queue each. 1 reproduces the classic
    /// uniprocessor scheduler exactly (every per-CPU path indexes slot 0).
    pub ncpus: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            tick: SimDuration::from_millis(10),
            ncpus: 1,
        }
    }
}

/// The 4.3BSD-style scheduler: decay-usage priorities, kernel sleep
/// priorities, and caller-directed CPU charging.
///
/// The scheduler never advances time itself; the host model drives it.
///
/// # Examples
///
/// ```
/// use lrp_sched::{Account, SchedConfig, Scheduler};
/// use lrp_sim::SimDuration;
///
/// let mut s = Scheduler::new(SchedConfig::default());
/// let fg = s.spawn("fg", 0, SimDuration::ZERO);
/// let bg = s.spawn("bg", 20, SimDuration::ZERO);
/// // nice +20 loses the first pick.
/// assert_eq!(s.pick_next(), Some(fg));
/// // Heavy charged usage eventually worsens priority past even nice +20,
/// // exactly as accumulated statclock ticks would.
/// s.charge_on(0, fg, Account::User, SimDuration::from_secs(2));
/// s.requeue(fg, false);
/// assert_eq!(s.pick_next(), Some(bg));
/// ```
#[derive(Debug)]
pub struct Scheduler {
    procs: Vec<Process>,
    /// One run queue per CPU; a process lives on its home CPU's queue.
    /// The decay computation (`estcpu`, `loadav`) stays global — 4.3BSD
    /// keeps a single load average even on multiprocessors.
    runqs: Vec<RunQueue>,
    config: SchedConfig,
    /// Exponentially smoothed count of runnable processes (the `loadav`
    /// input to the decay factor).
    load_avg: f64,
    /// Total CPU time charged across all processes (for conservation
    /// checks).
    total_charged: SimDuration,
    /// CPU time charged per CPU; sums to `total_charged`.
    charged_per_cpu: Vec<SimDuration>,
    /// Sleeper index (BSD's hashed sleep queues): wait channel → the most
    /// recent sleeper on it; earlier sleepers chain through `sleep_link`.
    /// Exactly the processes in `Sleeping(wchan)` are on `wchan`'s chain,
    /// so wakeups never scan `procs`: `sleep` pushes, `wakeup_into` takes
    /// the whole chain, `leave_sleepq` unlinks one.
    sleep_heads: FastHashMap<WaitChannel, Pid>,
    /// Per process (indexed by pid): the next sleeper on the same channel.
    sleep_link: Vec<Option<Pid>>,
    /// User-mode time charged across all processes: the sum of every
    /// `acct.user`, kept so a statclock sample need not walk `procs`.
    total_user: SimDuration,
    /// The processes charged since the last
    /// [`take_charged`](Self::take_charged), in charge order, each once:
    /// exactly those whose `Process::charged` mark is set.
    charged: Vec<Pid>,
    /// Exactly the processes in `Running` (at most one per CPU), in no
    /// particular order. With the run queues it is the runnable set.
    on_cpu: Vec<Pid>,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new(config: SchedConfig) -> Self {
        assert!(config.ncpus > 0, "a host has at least one CPU");
        Scheduler {
            procs: Vec::new(),
            runqs: (0..config.ncpus).map(|_| RunQueue::new()).collect(),
            config,
            load_avg: 0.0,
            total_charged: SimDuration::ZERO,
            charged_per_cpu: vec![SimDuration::ZERO; config.ncpus],
            sleep_heads: FastHashMap::default(),
            sleep_link: Vec::new(),
            total_user: SimDuration::ZERO,
            charged: Vec::new(),
            on_cpu: Vec::new(),
        }
    }

    /// Number of CPUs (run queues).
    pub fn ncpus(&self) -> usize {
        self.config.ncpus
    }

    /// Creates a new process in the `Sleeping`-free `Runnable` state.
    ///
    /// `cache_reload` is the cache-refill penalty the process pays when
    /// scheduled after another process has run.
    pub fn spawn(&mut self, name: &str, nice: i8, cache_reload: SimDuration) -> Pid {
        let pid = Pid(self.procs.len() as u32);
        // Round-robin home assignment spreads processes across CPUs at
        // spawn; the idle-steal balancer corrects imbalance later.
        let home_cpu = pid.0 as usize % self.config.ncpus;
        let mut p = Process {
            pid,
            name: name.to_string(),
            nice,
            estcpu: 0.0,
            user_pri: PUSER,
            kernel_pri: None,
            fixed_pri: None,
            state: ProcState::Runnable,
            acct: CpuAccounting::default(),
            cache_reload,
            home_cpu,
            affinity: None,
            charged: false,
        };
        Self::recompute_pri(&mut p);
        let pri = p.effective_pri();
        self.procs.push(p);
        self.sleep_link.push(None);
        self.runqs[home_cpu].enqueue(pid, pri);
        pid
    }

    /// Creates a kernel thread pinned to a fixed priority, outside the
    /// decay machinery (LRP's idle protocol thread and APP thread).
    pub fn spawn_fixed(&mut self, name: &str, pri: u8) -> Pid {
        let pid = self.spawn(name, 0, SimDuration::ZERO);
        // Re-file it under its pinned priority.
        let home = self.procs[pid.0 as usize].home_cpu;
        self.runqs[home].remove(pid);
        let p = &mut self.procs[pid.0 as usize];
        p.fixed_pri = Some(pri);
        self.runqs[home].enqueue(pid, pri);
        pid
    }

    /// Changes (or clears) a process's pinned priority; requeues it if
    /// runnable so the new priority takes effect immediately.
    pub fn set_fixed_pri(&mut self, pid: Pid, pri: Option<u8>) {
        let p = &mut self.procs[pid.0 as usize];
        p.fixed_pri = pri;
        let home = p.home_cpu;
        if p.state == ProcState::Runnable {
            let eff = p.effective_pri();
            self.runqs[home].remove(pid);
            self.runqs[home].enqueue(pid, eff);
        }
    }

    /// Pins a process to `Some(cpu)` (or releases it with `None`), moving
    /// it to that CPU's run queue immediately if it is runnable. A pinned
    /// process is never stolen by another CPU.
    ///
    /// # Panics
    ///
    /// Panics if the CPU index is out of range.
    pub fn set_affinity(&mut self, pid: Pid, affinity: Option<usize>) {
        if let Some(cpu) = affinity {
            assert!(cpu < self.config.ncpus, "affinity to nonexistent CPU");
        }
        let p = &mut self.procs[pid.0 as usize];
        let old_home = p.home_cpu;
        p.affinity = affinity;
        let new_home = affinity.unwrap_or(old_home);
        p.home_cpu = new_home;
        if p.state == ProcState::Runnable && new_home != old_home {
            let pri = p.effective_pri();
            self.runqs[old_home].remove(pid);
            self.runqs[new_home].enqueue(pid, pri);
        }
    }

    /// Immutable access to a process.
    ///
    /// # Panics
    ///
    /// Panics if the pid was never spawned.
    pub fn proc_ref(&self, pid: Pid) -> &Process {
        &self.procs[pid.0 as usize]
    }

    /// All processes (for reporting).
    pub fn procs(&self) -> &[Process] {
        &self.procs
    }

    /// Total CPU time charged to all processes since start.
    pub fn total_charged(&self) -> SimDuration {
        self.total_charged
    }

    /// CPU time charged on one CPU. The per-CPU amounts sum to
    /// [`total_charged`](Self::total_charged) — the SMP conservation
    /// invariant.
    pub fn charged_on(&self, cpu: usize) -> SimDuration {
        self.charged_per_cpu[cpu]
    }

    /// Sums the per-process accounting buckets over all processes. The
    /// grand total equals [`total_charged`](Self::total_charged).
    pub fn account_totals(&self) -> CpuAccounting {
        let mut t = CpuAccounting::default();
        for p in &self.procs {
            t.user += p.acct.user;
            t.system += p.acct.system;
            t.interrupt += p.acct.interrupt;
        }
        t
    }

    /// User-mode CPU time charged to all processes since start: the sum
    /// of every process's `acct.user`.
    pub fn total_user(&self) -> SimDuration {
        self.total_user
    }

    /// Number of processes queued on run queues right now (excludes the
    /// ones currently on a CPU). An instantaneous gauge for timelines.
    pub fn runnable_count(&self) -> usize {
        self.runqs.iter().map(|q| q.len()).sum()
    }

    /// Appends every runnable process — queued on a run queue or on a
    /// CPU — to `out`, in no particular order. Costs the runnable count,
    /// not the process count.
    pub fn runnable_into(&self, out: &mut Vec<Pid>) {
        for q in &self.runqs {
            q.extend_into(out);
        }
        out.extend_from_slice(&self.on_cpu);
    }

    /// Moves the processes charged since the previous call into `out`
    /// (cleared first), in charge order, each once. Swaps buffers with
    /// the scheduler, so a caller that keeps `out` allocates nothing.
    pub fn take_charged(&mut self, out: &mut Vec<Pid>) {
        out.clear();
        std::mem::swap(out, &mut self.charged);
        for pid in out.iter() {
            self.procs[pid.0 as usize].charged = false;
        }
    }

    fn recompute_pri(p: &mut Process) {
        // 4.3BSD: p_usrpri = PUSER + p_estcpu/4 + 2*p_nice, clamped.
        let raw = PUSER as f64 + p.estcpu / 4.0 + 2.0 * p.nice as f64;
        p.user_pri = raw.clamp(PUSER as f64, PRI_MAX as f64) as u8;
    }

    /// Charges CPU time to `pid` under the given account, done on `cpu`.
    ///
    /// Feeds `estcpu` (converted to statclock ticks) and recomputes the
    /// user priority, exactly as accumulated `statclock` ticks would.
    /// The decay math (`estcpu`, priority) is identical regardless of
    /// which CPU did the work; only the per-CPU ledger differs.
    pub fn charge_on(&mut self, cpu: usize, pid: Pid, kind: Account, d: SimDuration) {
        self.total_charged += d;
        self.charged_per_cpu[cpu] += d;
        if kind == Account::User {
            self.total_user += d;
        }
        let tick = self.config.tick;
        let p = &mut self.procs[pid.0 as usize];
        if !p.charged {
            p.charged = true;
            self.charged.push(pid);
        }
        p.acct.add(kind, d);
        // At the clamp, adding a non-negative amount and clamping gives
        // 255.0 again, and `nice` is written only at spawn: the priority
        // stands as it is.
        if p.estcpu == ESTCPU_MAX {
            return;
        }
        p.estcpu += d.as_nanos() as f64 / tick.as_nanos() as f64;
        p.estcpu = p.estcpu.min(ESTCPU_MAX);
        Self::recompute_pri(p);
    }

    /// Runs the once-per-second `schedcpu` decay:
    /// `estcpu = estcpu * (2·load)/(2·load + 1) + nice`, and refreshes the
    /// load average from the current runnable count.
    pub fn decay(&mut self) {
        // Smooth the load like BSD's 1-minute loadav (coarse but stable).
        let runnable = self
            .procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::Runnable | ProcState::Running))
            .count() as f64;
        let alpha = (-1.0f64 / 12.0).exp(); // ~1-minute window at 5s steps.
        self.load_avg = self.load_avg * alpha + runnable * (1.0 - alpha);

        let factor = (2.0 * self.load_avg) / (2.0 * self.load_avg + 1.0);
        for p in &mut self.procs {
            if p.state == ProcState::Exited {
                continue;
            }
            p.estcpu = (p.estcpu * factor + p.nice.max(0) as f64).min(ESTCPU_MAX);
            Self::recompute_pri(p);
        }
        // Re-sort queued processes under their new priorities.
        self.requeue_all();
    }

    fn requeue_all(&mut self) {
        let queued: Vec<Pid> = self
            .procs
            .iter()
            .filter(|p| p.state == ProcState::Runnable)
            .map(|p| p.pid)
            .collect();
        for &pid in &queued {
            let home = self.procs[pid.0 as usize].home_cpu;
            self.runqs[home].remove(pid);
        }
        for pid in queued {
            let p = &self.procs[pid.0 as usize];
            let (pri, home) = (p.effective_pri(), p.home_cpu);
            self.runqs[home].enqueue(pid, pri);
        }
    }

    /// The current smoothed load average.
    pub fn load_avg(&self) -> f64 {
        self.load_avg
    }

    /// Picks the best runnable process (CPU 0's view) and marks it
    /// `Running`. Uniprocessor entry point; SMP hosts use
    /// [`pick_next_on`](Self::pick_next_on).
    pub fn pick_next(&mut self) -> Option<Pid> {
        self.pick_next_on(0)
    }

    /// Picks the best runnable process for `cpu` and marks it `Running`.
    ///
    /// Tries the CPU's own queue first. If that queue is empty, the
    /// idle-steal balancer scans the other queues in deterministic order
    /// (`cpu+1, cpu+2, …` modulo `ncpus`) and steals the best unpinned
    /// process it finds, migrating its home to the stealing CPU.
    pub fn pick_next_on(&mut self, cpu: usize) -> Option<Pid> {
        if let Some(pid) = self.runqs[cpu].dequeue() {
            self.procs[pid.0 as usize].state = ProcState::Running;
            self.on_cpu.push(pid);
            return Some(pid);
        }
        for d in 1..self.config.ncpus {
            let victim = (cpu + d) % self.config.ncpus;
            // Split borrows: the predicate reads `procs` while the queue
            // is mutated.
            let procs = &self.procs;
            let stolen =
                self.runqs[victim].dequeue_where(|p| procs[p.0 as usize].affinity.is_none());
            if let Some(pid) = stolen {
                let p = &mut self.procs[pid.0 as usize];
                p.state = ProcState::Running;
                p.home_cpu = cpu;
                self.on_cpu.push(pid);
                return Some(pid);
            }
        }
        None
    }

    /// The priority of the best process queued on `cpu`, if any.
    pub fn best_queued_pri_on(&self, cpu: usize) -> Option<u8> {
        self.runqs[cpu].best_pri()
    }

    /// True if a process queued on `cpu` has strictly better (lower)
    /// priority than `pri` — the preemption test against `cpu`'s own
    /// queue: each CPU only preempts for work filed on it (IPIs handle
    /// cross-CPU wakeups).
    pub fn should_preempt_on(&self, cpu: usize, pri: u8) -> bool {
        match self.runqs[cpu].best_pri() {
            // Compare bucket-aligned priorities: preempt only when the
            // queued process is in a strictly better bucket.
            Some(best) => best < (pri & !3u8),
            None => false,
        }
    }

    /// Returns a running/current process to the run queue (quantum expiry
    /// or preemption). `front` puts it at the head of its bucket.
    pub fn requeue(&mut self, pid: Pid, front: bool) {
        let p = &mut self.procs[pid.0 as usize];
        debug_assert_eq!(p.state, ProcState::Running, "requeue of non-running");
        p.state = ProcState::Runnable;
        let (pri, home) = (p.effective_pri(), p.home_cpu);
        if front {
            self.runqs[home].enqueue_front(pid, pri);
        } else {
            self.runqs[home].enqueue(pid, pri);
        }
        self.leave_cpu(pid);
    }

    /// Takes `pid` off the on-CPU list (it stops `Running`).
    fn leave_cpu(&mut self, pid: Pid) {
        if let Some(i) = self.on_cpu.iter().position(|&p| p == pid) {
            self.on_cpu.swap_remove(i);
        }
    }

    /// Puts a process to sleep on a wait channel at the given kernel
    /// priority (BSD `tsleep(wchan, pri, ...)`).
    pub fn sleep(&mut self, pid: Pid, wchan: WaitChannel, pri: u8) {
        self.unfile(pid);
        let p = &mut self.procs[pid.0 as usize];
        p.state = ProcState::Sleeping(wchan);
        p.kernel_pri = Some(pri);
        self.sleep_link[pid.0 as usize] = self.sleep_heads.insert(wchan, pid);
    }

    /// Takes `pid` off whichever queue its state files it on.
    fn unfile(&mut self, pid: Pid) {
        match self.procs[pid.0 as usize].state {
            // A running process is on no queue, only the on-CPU list.
            ProcState::Running => self.leave_cpu(pid),
            ProcState::Exited => {}
            ProcState::Runnable => {
                for q in &mut self.runqs {
                    if q.remove(pid) {
                        break;
                    }
                }
            }
            ProcState::Sleeping(wchan) => self.leave_sleepq(pid, wchan),
        }
    }

    /// Unlinks one sleeper from its channel's chain (directed wakeup,
    /// exit); the chain is as long as the channel has sleepers.
    fn leave_sleepq(&mut self, pid: Pid, wchan: WaitChannel) {
        let next = self.sleep_link[pid.0 as usize].take();
        let head = self.sleep_heads[&wchan];
        if head == pid {
            match next {
                Some(n) => self.sleep_heads.insert(wchan, n),
                None => self.sleep_heads.remove(&wchan),
            };
            return;
        }
        let mut cur = head;
        while self.sleep_link[cur.0 as usize] != Some(pid) {
            cur = self.sleep_link[cur.0 as usize].expect("sleeper is on its channel's chain");
        }
        self.sleep_link[cur.0 as usize] = next;
    }

    /// Wakes every process sleeping on `wchan` (BSD `wakeup` semantics),
    /// appending the woken pids to `woken` in wake order.
    ///
    /// Woken processes are queued at their sleep (kernel) priority, which
    /// is what lets I/O-bound processes preempt compute-bound ones. When
    /// several sleepers share the channel (a shared socket), they are
    /// enqueued best-user-priority first (pid order among equals), so "the
    /// process with the highest priority performs the protocol processing"
    /// (LRP paper, note 8).
    pub fn wakeup_into(&mut self, wchan: WaitChannel, woken: &mut Vec<Pid>) {
        let first = woken.len();
        let mut cur = self.sleep_heads.remove(&wchan);
        while let Some(pid) = cur {
            woken.push(pid);
            cur = self.sleep_link[pid.0 as usize].take();
        }
        let procs = &self.procs;
        woken[first..].sort_unstable_by_key(|pid| (procs[pid.0 as usize].user_pri, *pid));
        for &pid in &woken[first..] {
            let p = &mut self.procs[pid.0 as usize];
            p.state = ProcState::Runnable;
            let (pri, home) = (p.effective_pri(), p.home_cpu);
            self.runqs[home].enqueue(pid, pri);
        }
    }

    /// [`wakeup_into`](Self::wakeup_into) returning a fresh list, for
    /// callers that wake rarely enough not to keep a buffer.
    pub fn wakeup(&mut self, wchan: WaitChannel) -> Vec<Pid> {
        let mut woken = Vec::new();
        self.wakeup_into(wchan, &mut woken);
        woken
    }

    /// Wakes a single sleeping process, whatever channel it sleeps on — a
    /// directed wakeup, used when a per-process deadline (e.g. a receive
    /// timeout) fires for exactly one blocked sleeper. Returns false when
    /// the process was not sleeping (already woken, running, or exited).
    pub fn wake_one(&mut self, pid: Pid) -> bool {
        let ProcState::Sleeping(wchan) = self.procs[pid.0 as usize].state else {
            return false;
        };
        self.leave_sleepq(pid, wchan);
        let p = &mut self.procs[pid.0 as usize];
        p.state = ProcState::Runnable;
        let (pri, home) = (p.effective_pri(), p.home_cpu);
        self.runqs[home].enqueue(pid, pri);
        true
    }

    /// True if any process is sleeping on `wchan` (used to decide whether
    /// a wakeup — and its cost — is needed).
    pub fn has_sleeper(&self, wchan: WaitChannel) -> bool {
        self.sleep_heads.contains_key(&wchan)
    }

    /// Recomputes the sleeper index from `procs` and compares: every
    /// chain holds exactly the processes in `Sleeping(wchan)`, and no
    /// channel is indexed without a sleeper. For invariant checks only —
    /// this is the scan the index exists to avoid.
    pub fn check_sleeper_index(&self) -> Result<(), String> {
        let mut expect: FastHashMap<WaitChannel, Vec<Pid>> = FastHashMap::default();
        for p in &self.procs {
            if let ProcState::Sleeping(wchan) = p.state {
                expect.entry(wchan).or_default().push(p.pid);
            }
        }
        if expect.len() != self.sleep_heads.len() {
            return Err(format!(
                "{} channels indexed, {} have sleepers",
                self.sleep_heads.len(),
                expect.len()
            ));
        }
        for (wchan, want) in expect {
            let mut got = Vec::new();
            let mut cur = self.sleep_heads.get(&wchan).copied();
            while let Some(pid) = cur {
                got.push(pid);
                cur = self.sleep_link[pid.0 as usize];
            }
            got.sort_unstable();
            if got != want {
                return Err(format!("{wchan:?}: chain {got:?}, sleeping {want:?}"));
            }
        }
        Ok(())
    }

    /// Recomputes what a statclock sample reads without walking `procs`
    /// and compares: the on-CPU list is exactly the `Running` processes,
    /// `total_user` is the sum of every `acct.user`, and the charged list
    /// holds exactly the marked processes, each once. For invariant
    /// checks only.
    pub fn check_activity_index(&self) -> Result<(), String> {
        let mut on_cpu = self.on_cpu.clone();
        on_cpu.sort_unstable();
        let running: Vec<Pid> = self
            .procs
            .iter()
            .filter(|p| p.state == ProcState::Running)
            .map(|p| p.pid)
            .collect();
        if on_cpu != running {
            return Err(format!("on-CPU list {on_cpu:?}, running {running:?}"));
        }
        let user = self
            .procs
            .iter()
            .fold(SimDuration::ZERO, |t, p| t + p.acct.user);
        if user != self.total_user {
            return Err(format!(
                "total_user {:?}, processes sum to {user:?}",
                self.total_user
            ));
        }
        let mut charged = self.charged.clone();
        charged.sort_unstable();
        let marked: Vec<Pid> = self
            .procs
            .iter()
            .filter(|p| p.charged)
            .map(|p| p.pid)
            .collect();
        if charged != marked {
            return Err(format!("charged list {charged:?}, marked {marked:?}"));
        }
        Ok(())
    }

    /// Marks the process as back in user mode: clears its kernel priority
    /// so it competes at its decayed user priority again.
    pub fn return_to_user(&mut self, pid: Pid) {
        self.procs[pid.0 as usize].kernel_pri = None;
    }

    /// Terminates a process.
    pub fn exit(&mut self, pid: Pid) {
        self.unfile(pid);
        self.procs[pid.0 as usize].state = ProcState::Exited;
    }

    /// Count of live (non-exited) processes.
    pub fn live_count(&self) -> usize {
        self.procs
            .iter()
            .filter(|p| p.state != ProcState::Exited)
            .count()
    }

    /// Snapshot of one process's accounting.
    pub fn accounting(&self, pid: Pid) -> CpuAccounting {
        self.procs[pid.0 as usize].acct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PSOCK;

    fn sched() -> Scheduler {
        Scheduler::new(SchedConfig::default())
    }

    #[test]
    fn spawn_is_runnable_at_puser() {
        let mut s = sched();
        let pid = s.spawn("a", 0, SimDuration::ZERO);
        assert_eq!(s.proc_ref(pid).user_pri, PUSER);
        assert_eq!(s.pick_next(), Some(pid));
        assert_eq!(s.proc_ref(pid).state, ProcState::Running);
        assert_eq!(s.pick_next(), None);
    }

    #[test]
    fn nice_worsens_priority() {
        let mut s = sched();
        let a = s.spawn("fg", 0, SimDuration::ZERO);
        let b = s.spawn("bg", 20, SimDuration::ZERO);
        assert!(s.proc_ref(b).user_pri > s.proc_ref(a).user_pri);
        assert_eq!(s.pick_next(), Some(a));
    }

    #[test]
    fn charging_degrades_priority() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let before = s.proc_ref(a).user_pri;
        s.charge_on(0, a, Account::User, SimDuration::from_millis(400));
        let after = s.proc_ref(a).user_pri;
        assert!(after > before, "40 ticks of usage must worsen priority");
        assert_eq!(s.proc_ref(a).acct.user, SimDuration::from_millis(400));
    }

    #[test]
    fn interrupt_charge_counts_toward_priority() {
        // The mis-accounting lever: interrupt time charged to a process
        // degrades its future priority just like its own usage.
        let mut s = sched();
        let a = s.spawn("victim", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::Interrupt, SimDuration::from_millis(200));
        assert!(s.proc_ref(a).user_pri > PUSER);
        assert_eq!(s.proc_ref(a).acct.interrupt, SimDuration::from_millis(200));
    }

    #[test]
    fn decay_recovers_priority() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::User, SimDuration::from_secs(1));
        let degraded = s.proc_ref(a).user_pri;
        assert!(degraded > PUSER);
        // With zero other load, many decay rounds drive estcpu toward 0.
        // (Process is still runnable so load stays ~1; factor ~2/3.)
        for _ in 0..40 {
            s.decay();
        }
        assert!(s.proc_ref(a).user_pri < degraded);
    }

    #[test]
    fn estcpu_saturates() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::User, SimDuration::from_secs(100));
        assert!(s.proc_ref(a).estcpu <= 255.0);
        assert!(s.proc_ref(a).user_pri <= PRI_MAX);
    }

    #[test]
    fn sleep_wakeup_cycle() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        assert_eq!(s.pick_next(), Some(a));
        let ch = WaitChannel(42);
        s.sleep(a, ch, PSOCK);
        assert_eq!(s.pick_next(), None);
        assert_eq!(s.wakeup(ch), vec![a]);
        assert_eq!(s.proc_ref(a).effective_pri(), PSOCK);
        assert_eq!(s.pick_next(), Some(a));
        s.return_to_user(a);
        assert_eq!(s.proc_ref(a).effective_pri(), s.proc_ref(a).user_pri);
    }

    #[test]
    fn wakeup_wakes_all_on_channel() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        let c = s.spawn("c", 0, SimDuration::ZERO);
        for p in [a, b, c] {
            s.pick_next();
            let _ = p;
        }
        s.sleep(a, WaitChannel(1), PSOCK);
        s.sleep(b, WaitChannel(1), PSOCK);
        s.sleep(c, WaitChannel(2), PSOCK);
        let woken = s.wakeup(WaitChannel(1));
        assert_eq!(woken.len(), 2);
        assert!(woken.contains(&a) && woken.contains(&b));
        assert_eq!(s.proc_ref(c).state, ProcState::Sleeping(WaitChannel(2)));
    }

    #[test]
    fn woken_sleeper_preempts_user_process() {
        let mut s = sched();
        let worker = s.spawn("worker", 0, SimDuration::ZERO);
        let io = s.spawn("io", 0, SimDuration::ZERO);
        // io runs, blocks on a socket.
        assert_eq!(s.pick_next(), Some(worker));
        // Worker is running; io sleeps (it was never picked: force state).
        s.runqs[0].remove(io);
        s.procs[io.0 as usize].state = ProcState::Running;
        s.sleep(io, WaitChannel(9), PSOCK);
        // Worker at PUSER; io wakes at PSOCK < PUSER => preemption.
        assert!(!s.should_preempt_on(0, s.proc_ref(worker).effective_pri()));
        s.wakeup(WaitChannel(9));
        assert!(s.should_preempt_on(0, s.proc_ref(worker).effective_pri()));
    }

    #[test]
    fn should_preempt_requires_strictly_better_bucket() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        assert_eq!(s.pick_next(), Some(a));
        // b is queued at the same bucket: no preemption.
        assert!(!s.should_preempt_on(0, s.proc_ref(a).effective_pri()));
        let _ = b;
    }

    #[test]
    fn exit_removes_from_queue() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        s.exit(a);
        assert_eq!(s.pick_next(), None);
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn charge_conservation() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::User, SimDuration::from_micros(300));
        s.charge_on(0, b, Account::System, SimDuration::from_micros(200));
        s.charge_on(0, a, Account::Interrupt, SimDuration::from_micros(100));
        assert_eq!(s.total_charged(), SimDuration::from_micros(600));
        let sum = s.accounting(a).total() + s.accounting(b).total();
        assert_eq!(sum, s.total_charged());
    }

    #[test]
    fn account_totals_partition_total_charged() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::User, SimDuration::from_micros(300));
        s.charge_on(0, b, Account::User, SimDuration::from_micros(50));
        s.charge_on(0, b, Account::System, SimDuration::from_micros(200));
        s.charge_on(0, a, Account::Interrupt, SimDuration::from_micros(100));
        let t = s.account_totals();
        assert_eq!(t.user, SimDuration::from_micros(350));
        assert_eq!(t.system, SimDuration::from_micros(200));
        assert_eq!(t.interrupt, SimDuration::from_micros(100));
        assert_eq!(t.total(), s.total_charged());
    }

    #[test]
    fn decay_requeues_under_new_priorities() {
        let mut s = sched();
        let a = s.spawn("hot", 0, SimDuration::ZERO);
        let b = s.spawn("cold", 0, SimDuration::ZERO);
        // Make `a` very hot; both runnable/queued.
        s.charge_on(0, a, Account::User, SimDuration::from_secs(2));
        s.decay();
        // After requeue, b should be picked first.
        assert_eq!(s.pick_next(), Some(b));
        let _ = a;
    }

    fn smp(ncpus: usize) -> Scheduler {
        Scheduler::new(SchedConfig {
            ncpus,
            ..SchedConfig::default()
        })
    }

    #[test]
    fn spawn_round_robins_home_cpus() {
        let mut s = smp(2);
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        let c = s.spawn("c", 0, SimDuration::ZERO);
        assert_eq!(s.proc_ref(a).home_cpu, 0);
        assert_eq!(s.proc_ref(b).home_cpu, 1);
        assert_eq!(s.proc_ref(c).home_cpu, 0);
        // Each CPU picks its own queue first.
        assert_eq!(s.pick_next_on(0), Some(a));
        assert_eq!(s.pick_next_on(1), Some(b));
    }

    #[test]
    fn idle_cpu_steals_and_migrates() {
        let mut s = smp(2);
        let a = s.spawn("a", 0, SimDuration::ZERO); // pid 0, home 0
        let b = s.spawn("b", 0, SimDuration::ZERO); // pid 1, home 1
        let c = s.spawn("c", 0, SimDuration::ZERO); // pid 2, home 0
                                                    // Park b asleep so CPU 1's queue drains.
        assert_eq!(s.pick_next_on(1), Some(b));
        s.sleep(b, WaitChannel(5), PSOCK);
        // CPU 1 is idle: it steals the best process from CPU 0's queue
        // and becomes its new home.
        assert_eq!(s.pick_next_on(1), Some(a));
        assert_eq!(s.proc_ref(a).home_cpu, 1);
        // CPU 0 still has c.
        assert_eq!(s.pick_next_on(0), Some(c));
    }

    #[test]
    fn steal_skips_pinned_processes() {
        let mut s = smp(2);
        let a = s.spawn("pinned", 0, SimDuration::ZERO); // home 0
        let b = s.spawn("free", 0, SimDuration::ZERO); // home 1
        s.set_affinity(a, Some(0));
        // Move b to CPU 0's queue via affinity, then release it.
        s.set_affinity(b, Some(0));
        s.set_affinity(b, None);
        assert_eq!(s.proc_ref(b).home_cpu, 0);
        // CPU 1 must steal `free`, never `pinned`, despite FIFO order.
        assert_eq!(s.pick_next_on(1), Some(b));
        assert_eq!(s.pick_next_on(0), Some(a));
    }

    #[test]
    fn wakeup_enqueues_on_home_cpu() {
        let mut s = smp(2);
        let a = s.spawn("a", 0, SimDuration::ZERO); // home 0
        let b = s.spawn("b", 0, SimDuration::ZERO); // home 1
        s.pick_next_on(0);
        s.pick_next_on(1);
        s.sleep(a, WaitChannel(1), PSOCK);
        s.sleep(b, WaitChannel(1), PSOCK);
        s.wakeup(WaitChannel(1));
        // Each woke on its own CPU's queue: no cross-queue preemption.
        assert!(s.should_preempt_on(0, PUSER));
        assert!(s.should_preempt_on(1, PUSER));
        assert_eq!(s.pick_next_on(0), Some(a));
        assert_eq!(s.pick_next_on(1), Some(b));
    }

    #[test]
    fn per_cpu_charges_sum_to_total() {
        let mut s = smp(3);
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::User, SimDuration::from_micros(100));
        s.charge_on(1, b, Account::System, SimDuration::from_micros(250));
        s.charge_on(2, a, Account::Interrupt, SimDuration::from_micros(50));
        let per_cpu = (0..3).fold(SimDuration::ZERO, |acc, c| acc + s.charged_on(c));
        assert_eq!(per_cpu, s.total_charged());
        assert_eq!(s.charged_on(1), SimDuration::from_micros(250));
    }

    #[test]
    fn uniprocessor_config_matches_legacy_entry_points() {
        // ncpus=1: `pick_next` is `pick_next_on(0)`, and CPU 0's ledger
        // is the whole ledger — the bit-compatibility contract.
        let mut s = smp(1);
        let a = s.spawn("a", 0, SimDuration::ZERO);
        assert_eq!(s.pick_next(), Some(a));
        s.charge_on(0, a, Account::User, SimDuration::from_micros(70));
        assert_eq!(s.charged_on(0), s.total_charged());
    }

    /// The runnable set by brute force: every process on a run queue or
    /// on a CPU.
    fn runnable_scan(s: &Scheduler) -> Vec<Pid> {
        s.procs()
            .iter()
            .filter(|p| matches!(p.state, ProcState::Runnable | ProcState::Running))
            .map(|p| p.pid)
            .collect()
    }

    fn runnable_sorted(s: &Scheduler) -> Vec<Pid> {
        let mut out = Vec::new();
        s.runnable_into(&mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn runnable_into_matches_state_scan() {
        let mut s = smp(2);
        let check = |s: &Scheduler| {
            assert_eq!(runnable_sorted(s), runnable_scan(s));
            assert_eq!(s.check_activity_index(), Ok(()));
        };
        let a = s.spawn("a", 0, SimDuration::ZERO); // home 0
        let b = s.spawn("b", 0, SimDuration::ZERO); // home 1
        let c = s.spawn("c", 0, SimDuration::ZERO); // home 0
        let d = s.spawn("d", 0, SimDuration::ZERO); // home 1
        check(&s);
        assert_eq!(s.pick_next_on(0), Some(a));
        assert_eq!(s.pick_next_on(1), Some(b));
        check(&s);
        s.requeue(a, true);
        check(&s);
        s.sleep(b, WaitChannel(1), PSOCK);
        check(&s);
        assert_eq!(s.pick_next_on(1), Some(d));
        s.sleep(d, WaitChannel(2), PSOCK);
        check(&s);
        // CPU 1's queue is empty: it steals from CPU 0's.
        assert_eq!(s.pick_next_on(1), Some(a));
        assert_eq!(s.proc_ref(a).home_cpu, 1);
        check(&s);
        s.wakeup(WaitChannel(1));
        check(&s);
        assert!(s.wake_one(d));
        check(&s);
        s.exit(a);
        check(&s);
        assert_eq!(s.pick_next_on(0), Some(c));
        s.exit(c);
        s.exit(b);
        check(&s);
        assert_eq!(runnable_sorted(&s), [d]);
    }

    #[test]
    fn take_charged_dedups_and_clears() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        let us = SimDuration::from_micros;
        s.charge_on(0, b, Account::System, us(5));
        s.charge_on(0, a, Account::User, us(7));
        s.charge_on(0, b, Account::User, us(3));
        s.charge_on(0, b, Account::Interrupt, SimDuration::ZERO);
        assert_eq!(s.check_activity_index(), Ok(()));
        assert_eq!(s.total_user(), us(10));
        let mut out = vec![a, a, a];
        s.take_charged(&mut out);
        assert_eq!(out, [b, a], "charge order, each once");
        assert_eq!(s.check_activity_index(), Ok(()));
        s.take_charged(&mut out);
        assert!(out.is_empty(), "the list empties on take");
        s.charge_on(0, a, Account::System, us(1));
        s.take_charged(&mut out);
        assert_eq!(out, [a], "a cleared mark lets the pid back on");
        assert_eq!(s.total_user(), us(10));
    }

    #[test]
    fn quantum_requeue_round_robin() {
        let mut s = sched();
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        let first = s.pick_next().unwrap();
        assert_eq!(first, a);
        s.requeue(a, false);
        assert_eq!(s.pick_next(), Some(b));
        s.requeue(b, false);
        assert_eq!(s.pick_next(), Some(a));
    }
}
