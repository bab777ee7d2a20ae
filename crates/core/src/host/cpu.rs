//! The CPU execution engine: chunk scheduling, interrupt preemption and
//! charge-as-you-go accounting, per simulated CPU.

use super::{ChunkMeta, Cont, Cpu, Host, PhaseOut, ProcExec, Running, Suspended, WorkKind};
use lrp_sched::{Account, Pid, ProcState};
use lrp_sim::{SimDuration, SimTime};

impl Cpu {
    fn bump(&mut self) -> u64 {
        self.gen += 1;
        self.gen
    }
}

fn account_label(a: Account) -> &'static str {
    match a {
        Account::User => "user",
        Account::System => "system",
        Account::Interrupt => "interrupt",
    }
}

impl Host {
    /// Charges elapsed time of the chunk running on `cpu` up to `now`
    /// and feeds the simulated-cycle profiler. The chunk stays where it
    /// is, for the caller to take what it needs; returns its unfinished
    /// duration.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is idle.
    fn settle_running(&mut self, now: SimTime, cpu: usize) -> SimDuration {
        let Host {
            cpus,
            sched,
            tele,
            app_thread,
            idle_thread,
            ..
        } = self;
        let c = &mut cpus[cpu];
        let r = c.running.as_ref().expect("a running chunk");
        let elapsed = now.since(r.started);
        let total = r.ends.since(r.started);
        let remaining = total.saturating_sub(elapsed);
        let used = elapsed.min(total);
        if used.is_zero() {
            return remaining;
        }
        c.busy += used;
        if let Some((pid, account)) = r.charge {
            sched.charge_on(cpu, pid, account, used);
        }
        if tele.enabled() {
            // Profiler context: what kind of execution the cycles belong
            // to. Kernel threads get their own contexts — they are the
            // paper's LRP mechanism, not ordinary processes.
            let context = match &r.kind {
                WorkKind::Hw => "interrupt",
                WorkKind::Soft => "softirq",
                WorkKind::Proc { pid, .. } => {
                    if Some(*pid) == *app_thread {
                        "app-thread"
                    } else if Some(*pid) == *idle_thread {
                        "idle-thread"
                    } else if matches!(r.charge, Some((_, Account::User))) {
                        "user"
                    } else {
                        "syscall"
                    }
                }
            };
            let billed = r.charge.map(|(p, a)| (p.0, account_label(a)));
            tele.on_cycles(
                cpu,
                context,
                r.meta.stage,
                billed,
                r.meta.owner.map(|p| p.0),
                used.as_nanos(),
            );
        }
        remaining
    }

    /// Settles the chunk running on `cpu` and takes it off, suspended
    /// with what it has left to run.
    fn suspend_running(&mut self, now: SimTime, cpu: usize) -> Suspended {
        let remaining = self.settle_running(now, cpu);
        let r = self.cpus[cpu].running.take().expect("settled above");
        Suspended {
            kind: r.kind,
            charge: r.charge,
            meta: r.meta,
            remaining,
        }
    }

    fn start_chunk(
        &mut self,
        now: SimTime,
        cpu: usize,
        kind: WorkKind,
        charge: Option<(Pid, Account)>,
        meta: ChunkMeta,
        dur: SimDuration,
    ) {
        debug_assert!(self.cpus[cpu].running.is_none(), "CPU already busy");
        self.cpus[cpu].bump();
        self.cpus_started |= 1 << cpu;
        self.cpus[cpu].running = Some(Running {
            kind,
            charge,
            meta,
            started: now,
            ends: now + dur,
        });
    }

    /// A hardware interrupt demands `cpu`: suspend whatever runs there and
    /// execute (or queue) the interrupt work. The interrupt's *logic* has
    /// already been applied by the caller; this models only its CPU cost.
    /// `stage` labels the interrupt source for the profiler.
    pub(crate) fn raise_hw_on(
        &mut self,
        now: SimTime,
        cpu: usize,
        cost: SimDuration,
        stage: &'static str,
    ) {
        self.cur_cpu = cpu;
        // BSD charges interrupt time to the process that happens to be
        // running (or that the interrupt suspended); idle time is free.
        let victim = self.current_proc_context_on(cpu);
        match &self.cpus[cpu].running {
            Some(r) if matches!(r.kind, WorkKind::Hw) => {
                // Interrupts queue behind the current handler.
                self.cpus[cpu].pending_hw.push_back((cost, victim, stage));
                return;
            }
            Some(_) => {
                // Preempt: settle and suspend the current chunk.
                let s = self.suspend_running(now, cpu);
                let c = &mut self.cpus[cpu];
                let slot = match s.kind {
                    WorkKind::Soft => &mut c.susp_soft,
                    WorkKind::Proc { .. } => &mut c.susp_proc,
                    WorkKind::Hw => unreachable!("handled above"),
                };
                *slot = Some(s);
            }
            None => {}
        }
        self.start_hw(now, cpu, cost, victim, stage);
    }

    /// Starts a hardware-interrupt chunk on idle `cpu`, charged to the
    /// process it interrupted, if any.
    fn start_hw(
        &mut self,
        now: SimTime,
        cpu: usize,
        cost: SimDuration,
        victim: Option<Pid>,
        stage: &'static str,
    ) {
        self.stats.hw_chunks += 1;
        let charge = victim.map(|p| (p, Account::Interrupt));
        let meta = ChunkMeta::stage(stage);
        self.start_chunk(now, cpu, WorkKind::Hw, charge, meta, cost);
    }

    /// The process whose context underlies `cpu`'s current activity (for
    /// BSD-style interrupt charging).
    pub(crate) fn current_proc_context_on(&self, cpu: usize) -> Option<Pid> {
        if let Some(s) = &self.cpus[cpu].susp_proc {
            if let WorkKind::Proc { pid, .. } = &s.kind {
                return Some(*pid);
            }
        }
        if let Some(r) = &self.cpus[cpu].running {
            if let WorkKind::Proc { pid, .. } = &r.kind {
                return Some(*pid);
            }
        }
        None
    }

    /// CPU completion event: `gen` guards against stale events.
    pub fn on_cpu_complete(&mut self, now: SimTime, cpu: usize, gen: u64) {
        let c = &self.cpus[cpu];
        if gen != c.gen || c.running.as_ref().is_none_or(|r| r.ends > now) {
            return; // Stale event (chunk was preempted/replaced).
        }
        self.cur_cpu = cpu;
        self.settle_running(now, cpu);
        let kind = self.cpus[cpu].running.take().expect("checked").kind;
        match kind {
            WorkKind::Hw | WorkKind::Soft => {}
            // A process crashed mid-chunk finishes the chunk (the cycles
            // were already spent) but its continuation evaporates —
            // nothing may resurrect an exited process.
            WorkKind::Proc { pid, .. } if matches!(self.exec.get(pid), Some(ProcExec::Exited)) => {}
            // Nothing outranks it: it continues in place, exactly as the
            // requeue below and `dispatch` would have resumed it.
            WorkKind::Proc { pid, next } if self.keeps_cpu(cpu, pid) => {
                debug_assert!(
                    self.exec.get(pid).is_none(),
                    "a running process has no exec entry"
                );
                if self.begin_proc(now, cpu, pid, ProcExec::Cont(next)) {
                    return;
                }
            }
            WorkKind::Proc { pid, next } => {
                // The process continues with the next phase: requeue at
                // the front of its bucket so it resumes immediately
                // unless higher-priority work (interrupt, softirq, better
                // process) claims the CPU first.
                self.exec.insert(pid, ProcExec::Cont(next));
                self.sched.requeue(pid, true);
            }
        }
        self.dispatch(now);
    }

    /// True when `pid`, whose chunk just finished on `cpu`, is what
    /// `dispatch` would give `cpu` again, so it keeps the CPU without a
    /// requeue and pick (4.3BSD: a running process gives the CPU up only
    /// to something that outranks it). `dispatch_on` must find nothing
    /// before its scheduler step (the job getters change nothing when
    /// their queues are empty); the requeued process must come first out
    /// of this CPU's queue; and no other CPU may be idle, since
    /// `dispatch` serves idle CPUs in index order and one could steal
    /// the process or take the work first. DESIGN §18 has each reason.
    fn keeps_cpu(&self, cpu: usize, pid: Pid) -> bool {
        let c = &self.cpus[cpu];
        let p = self.sched.proc_ref(pid);
        c.pending_hw.is_empty()
            && c.susp_soft.is_none()
            && c.susp_proc.is_none()
            && self.tcp_timer_work.is_empty()
            && self.ip_queue.is_empty()
            && self.ed_pending.is_empty()
            && p.home_cpu == cpu
            && !self.sched.should_preempt_on(cpu, p.effective_pri())
            && self
                .cpus
                .iter()
                .enumerate()
                .all(|(i, c)| i == cpu || c.running.is_some())
    }

    /// Mid-chunk preemption test for the processes running on each CPU
    /// (used at decay boundaries when priorities shift).
    pub(crate) fn maybe_preempt_running(&mut self, now: SimTime) {
        let mut preempted = false;
        for cpu in 0..self.cpus.len() {
            let Some(r) = &self.cpus[cpu].running else {
                continue;
            };
            let WorkKind::Proc { pid, .. } = &r.kind else {
                continue;
            };
            let pid = *pid;
            let pri = self.sched.proc_ref(pid).effective_pri();
            if self.sched.should_preempt_on(cpu, pri) {
                let s = self.suspend_running(now, cpu);
                self.preempt_suspended(s);
                preempted = true;
            }
        }
        if preempted {
            self.dispatch(now);
        }
    }

    /// Saves a preempted process chunk back into its exec state and
    /// requeues the process.
    fn preempt_suspended(&mut self, s: Suspended) {
        let WorkKind::Proc { pid, next } = s.kind else {
            unreachable!("only process chunks are preempted")
        };
        // A crash between suspension and this save point must win: the
        // preempted phase of an exited process is discarded, not saved.
        if matches!(self.exec.get(pid), Some(ProcExec::Exited)) {
            return;
        }
        if s.remaining.is_zero() {
            self.exec.insert(pid, ProcExec::Cont(next));
        } else {
            self.exec.insert(
                pid,
                ProcExec::Chunk {
                    remaining: s.remaining,
                    account: s.charge.map_or(Account::System, |(_, a)| a),
                    charge: s.charge.map_or(pid, |(p, _)| p),
                    meta: s.meta,
                    next,
                },
            );
        }
        if self.sched.proc_ref(pid).state == ProcState::Running {
            self.sched.requeue(pid, true);
            self.stats.ctx_switches += 1;
        }
    }

    /// Dispatches every idle CPU, in CPU order, until no idle CPU can find
    /// work. The extra passes matter only on SMP: work queued for CPU `i`
    /// by CPU `j > i` (an IPI, a wakeup of a process homed there) is
    /// picked up in the next pass instead of waiting for the next event.
    pub(crate) fn dispatch(&mut self, now: SimTime) {
        loop {
            let mut progressed = false;
            for cpu in 0..self.cpus.len() {
                if self.cpus[cpu].running.is_none() {
                    self.dispatch_on(now, cpu);
                    progressed |= self.cpus[cpu].running.is_some();
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// The central dispatcher: picks the highest-priority work for `cpu`.
    /// Order: pending hardware interrupts, software interrupt work, the
    /// suspended process (unless preempted), then the scheduler.
    fn dispatch_on(&mut self, now: SimTime, cpu: usize) {
        if self.cpus[cpu].running.is_some() {
            return;
        }
        self.cur_cpu = cpu;
        loop {
            // 1. Hardware interrupts first.
            if let Some((cost, victim, stage)) = self.cpus[cpu].pending_hw.pop_front() {
                self.start_hw(now, cpu, cost, victim, stage);
                return;
            }
            // 2. Suspended softirq resumes.
            if let Some(s) = self.cpus[cpu].susp_soft.take() {
                self.start_chunk(now, cpu, s.kind, s.charge, s.meta, s.remaining);
                return;
            }
            // 3. New softirq job (BSD / Early-Demux protocol work, and
            //    BSD-context TCP timer work). The queues are global; any
            //    CPU may drain them.
            if !self.cfg.arch.is_lrp() {
                if let Some((cost, tag)) = self.next_soft_job(now) {
                    self.stats.soft_jobs += 1;
                    let victim = self.current_proc_context_on(cpu);
                    // The job's protocol logic just ran and noted the
                    // rightful receiver (if the packet matched a socket);
                    // the chunk carries it for the attribution ledger.
                    let owner = self.tele.take_proto_owner().map(Pid);
                    self.start_chunk(
                        now,
                        cpu,
                        WorkKind::Soft,
                        victim.map(|p| (p, Account::Interrupt)),
                        ChunkMeta { stage: tag, owner },
                        cost,
                    );
                    return;
                }
            } else if let Some((cost, owner)) = self.next_lrp_timer_job(now) {
                // LRP TCP timer work executes in kernel context charged to
                // the socket owner, even if the APP thread is asleep — the
                // clock interrupt hands it straight to the APP path.
                self.stats.soft_jobs += 1;
                let _ = self.tele.take_proto_owner();
                self.start_chunk(
                    now,
                    cpu,
                    WorkKind::Soft,
                    owner.map(|p| (p, Account::System)),
                    ChunkMeta {
                        stage: "lrp-timer",
                        owner,
                    },
                    cost,
                );
                return;
            }
            // 4. Suspended process chunk: resume unless something better
            //    is queued (preemption at interrupt return).
            if let Some(s) = self.cpus[cpu].susp_proc.take() {
                let WorkKind::Proc { pid, next } = s.kind else {
                    unreachable!("susp_proc holds proc work")
                };
                // The suspended process crashed while an interrupt ran on
                // top of it: its saved chunk dies with it. (A live
                // suspended process has *no* exec entry — the continuation
                // lives in the chunk itself; a crash stores an explicit
                // `Exited`.)
                if matches!(self.exec.get(pid), Some(ProcExec::Exited)) {
                    let _ = next;
                    continue;
                }
                let pri = self.sched.proc_ref(pid).effective_pri();
                let s = Suspended {
                    kind: WorkKind::Proc { pid, next },
                    ..s
                };
                if self.sched.should_preempt_on(cpu, pri) {
                    self.preempt_suspended(s);
                    continue;
                }
                self.start_chunk(now, cpu, s.kind, s.charge, s.meta, s.remaining);
                return;
            }
            // 5. Ask the scheduler (own run queue first, then idle-steal).
            if let Some(pid) = self.sched.pick_next_on(cpu) {
                let ex = self.exec.remove(pid).unwrap_or(ProcExec::Exited);
                if self.begin_proc(now, cpu, pid, ex) {
                    return;
                }
                continue;
            }
            // 6. Idle. LRP: poll channels for the idle protocol thread.
            if self.idle_work_available() {
                if let Some(idle) = self.idle_thread {
                    if matches!(self.exec.get(idle), Some(ProcExec::Blocked(_))) {
                        self.wake_channel(super::WC_IDLE_THREAD);
                        continue;
                    }
                }
            }
            return;
        }
    }

    /// Runs phases for a process that just got `cpu`, starting from `ex`
    /// (taken out of `exec`, or the continuation of the chunk it just
    /// finished), until one of them yields a cost-bearing chunk (returns
    /// true) or the process blocks / exits / yields (returns false).
    fn begin_proc(&mut self, now: SimTime, cpu: usize, pid: Pid, mut ex: ProcExec) -> bool {
        // Context-switch accounting: switching to a different process
        // costs switch time plus a cache reload for the incoming working
        // set, scaled by how long the process has been off the CPU (a
        // brief preemption evicts little of a large working set).
        let mut switch_cost = SimDuration::ZERO;
        if self.cpus[cpu].last_on_cpu != Some(pid) {
            if let Some(prev) = self.cpus[cpu].last_on_cpu {
                self.last_ran.insert(prev, now);
            }
            let reload = self.sched.proc_ref(pid).cache_reload;
            let scaled = match self.last_ran.get(pid) {
                Some(&t) => {
                    let away = now.since(t).as_nanos() as f64;
                    let window = self.cfg.cost.cache_decay_window.as_nanos() as f64;
                    reload.mul_f64((away / window).min(1.0))
                }
                None => reload,
            };
            switch_cost = self.cfg.cost.context_switch + scaled;
            self.stats.ctx_switches += 1;
            self.cpus[cpu].last_on_cpu = Some(pid);
        }
        loop {
            // Profiler metadata for the chunk this phase may produce: a
            // resumed chunk carries its original metadata; a fresh phase
            // is labelled by its continuation.
            let mut carried_meta: Option<ChunkMeta> = None;
            let out = match ex {
                ProcExec::Start => {
                    let ctx = crate::syscall::AppCtx { now, pid };
                    let op = self.apps.get_mut(pid).expect("app for process").start(ctx);
                    PhaseOut::sys(SimDuration::ZERO, Cont::SyscallEntry(op))
                }
                ProcExec::Cont(cont) => {
                    let stage = cont.stage();
                    carried_meta = Some(ChunkMeta { stage, owner: None });
                    self.exec_phase(now, pid, cont)
                }
                ProcExec::Chunk {
                    remaining,
                    account,
                    charge,
                    meta,
                    next,
                } => {
                    self.pending_charge = Some(charge);
                    carried_meta = Some(meta);
                    PhaseOut::Run {
                        dur: remaining,
                        account,
                        next,
                    }
                }
                ProcExec::Blocked(c) => {
                    // Spurious pick of a blocked process — should not
                    // happen; restore and bail.
                    self.exec.insert(pid, ProcExec::Blocked(c));
                    return false;
                }
                ProcExec::Exited => {
                    self.sched.exit(pid);
                    return false;
                }
            };
            match out {
                PhaseOut::Run { dur, account, next } => {
                    let total = dur + switch_cost;
                    let charge_pid = self.pending_charge.take().unwrap_or(pid);
                    // The phase's protocol logic (if any) noted the
                    // rightful receiver; consume it here even for
                    // zero-cost transitions so it cannot leak into an
                    // unrelated later chunk.
                    let owner = self.tele.take_proto_owner().map(Pid);
                    if total.is_zero() {
                        // Zero-cost transition: immediately execute the
                        // next phase.
                        ex = ProcExec::Cont(next);
                        continue;
                    }
                    let mut meta = carried_meta.unwrap_or(ChunkMeta::stage("start"));
                    if meta.owner.is_none() {
                        meta.owner = owner;
                    }
                    self.start_chunk(
                        now,
                        cpu,
                        WorkKind::Proc { pid, next },
                        Some((charge_pid, account)),
                        meta,
                        total,
                    );
                    return true;
                }
                PhaseOut::Block { wchan, pri, resume } => {
                    self.exec.insert(pid, ProcExec::Blocked(resume));
                    self.sched.sleep(pid, wchan, pri);
                    self.cpus[cpu].last_on_cpu = Some(pid);
                    return false;
                }
                PhaseOut::Yield(cont) => {
                    self.exec.insert(pid, ProcExec::Cont(cont));
                    self.sched.requeue(pid, false);
                    return false;
                }
                PhaseOut::Done => {
                    self.exec.insert(pid, ProcExec::Exited);
                    self.sched.exit(pid);
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Architecture, HostConfig};
    use crate::syscall::{AppCtx, AppLogic, SyscallOp, SyscallRet};
    use lrp_wire::{udp, Frame, Ipv4Addr};

    const ADDR: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Computes for ever in 1 ms calls, after a 10 ms nap if `nap`. No
    /// chunk ends at a quantum boundary, where the round-robin check
    /// would yield to a queued process whichever path the chunk's end
    /// took.
    struct Spin {
        nap: bool,
    }

    impl AppLogic for Spin {
        fn start(&mut self, ctx: AppCtx) -> SyscallOp {
            if self.nap {
                return SyscallOp::Sleep(SimDuration::from_millis(10));
            }
            self.resume(ctx, SyscallRet::Ok)
        }
        fn resume(&mut self, _: AppCtx, _: SyscallRet) -> SyscallOp {
            SyscallOp::Compute(SimDuration::from_millis(1))
        }
    }

    fn bsd_host(ncpus: usize) -> Host {
        let mut cfg = HostConfig::new(Architecture::Bsd);
        cfg.ncpus = ncpus;
        Host::new(cfg, ADDR)
    }

    /// Completes the chunk running on `cpu`, at the time it ends.
    fn finish(h: &mut Host, cpu: usize) {
        let (t, gen) = h.cpu_event_on(cpu).expect("a chunk runs");
        h.on_cpu_complete(t, cpu, gen);
    }

    fn proc_on(h: &Host, cpu: usize) -> Option<Pid> {
        match h.cpus[cpu].running.as_ref()?.kind {
            WorkKind::Proc { pid, .. } => Some(pid),
            _ => None,
        }
    }

    /// Runs a lone process through its first chunks, which continue in
    /// place: it stays on `cpu` and off every run queue.
    fn settle_in(h: &mut Host, cpu: usize, pid: Pid) {
        for _ in 0..3 {
            finish(h, cpu);
            assert_eq!(proc_on(h, cpu), Some(pid));
            assert_eq!(h.sched.proc_ref(pid).state, ProcState::Running);
        }
    }

    /// A frame left on BSD's IP queue while a process computes (as
    /// another CPU's interrupt leaves it) is protocol work at softirq
    /// level: when the chunk ends, the process is requeued and the
    /// softirq runs before it continues.
    #[test]
    fn a_pending_softirq_runs_before_the_process_continues() {
        let mut h = bsd_host(1);
        let a = h.spawn_app("spin", 0, 0, Box::new(Spin { nap: false }));
        h.start(SimTime::ZERO);
        settle_in(&mut h, 0, a);
        let datagram = udp::build_datagram(ADDR, ADDR, 6000, 9000, 1, &[0; 14], false);
        let stamp = lrp_nic::Stamp {
            at: SimTime::ZERO,
            span: None,
        };
        h.ip_queue.push_back((Frame::ipv4(datagram), stamp));
        finish(&mut h, 0);
        let running = h.cpus[0].running.as_ref().expect("the softirq runs");
        assert!(matches!(running.kind, WorkKind::Soft));
        assert!(h.ip_queue.is_empty());
        assert_eq!(h.sched.proc_ref(a).state, ProcState::Runnable);
        assert_eq!(h.sched.runnable_count(), 1);
        finish(&mut h, 0);
        assert_eq!(proc_on(&h, 0), Some(a));
    }

    /// A better-priority process woken while another computes takes the
    /// CPU when the chunk ends; the process whose chunk ended waits on
    /// the run queue.
    #[test]
    fn a_better_process_queued_during_the_chunk_runs_first() {
        let mut h = bsd_host(1);
        let napper = h.spawn_app("napper", 0, 0, Box::new(Spin { nap: true }));
        let a = h.spawn_app("spin", 10, 0, Box::new(Spin { nap: false }));
        h.start(SimTime::ZERO);
        // The napper runs first (nice 0 beats nice 10) and goes to sleep.
        while h.sched.proc_ref(napper).state == ProcState::Running {
            finish(&mut h, 0);
        }
        let wake = h.next_timer_deadline().expect("the nap's timer");
        // `a` runs until it is in the chunk the nap ends in.
        while h.cpu_event_on(0).expect("a computes").0 <= wake {
            assert_eq!(proc_on(&h, 0), Some(a));
            finish(&mut h, 0);
        }
        h.on_timer(wake);
        assert_eq!(proc_on(&h, 0), Some(a), "a wakeup does not preempt");
        assert_eq!(h.sched.proc_ref(napper).state, ProcState::Runnable);
        finish(&mut h, 0);
        assert_eq!(proc_on(&h, 0), Some(napper));
        assert_eq!(h.sched.proc_ref(a).state, ProcState::Runnable);
    }

    /// With a second CPU idle, a finished chunk goes through the run
    /// queue even with nothing better queued: the idle CPU, dispatched
    /// first, steals the process, and its old CPU runs the work queued
    /// behind it.
    #[test]
    fn an_idle_cpu_dispatches_first_and_steals_the_process() {
        let mut h = bsd_host(2);
        let a = h.spawn_app("spin", 0, 0, Box::new(Spin { nap: false }));
        let b = h.spawn_app("behind", 10, 0, Box::new(Spin { nap: false }));
        // Both pinned to CPU 1, so CPU 0 has nothing it may take.
        h.sched.set_affinity(a, Some(1));
        h.sched.set_affinity(b, Some(1));
        h.start(SimTime::ZERO);
        assert_eq!(proc_on(&h, 1), Some(a));
        assert!(h.cpus[0].running.is_none());
        // Released mid-chunk: CPU 0 may now steal `a` from CPU 1's queue.
        h.sched.set_affinity(a, None);
        finish(&mut h, 1);
        assert_eq!(proc_on(&h, 0), Some(a));
        assert_eq!(h.sched.proc_ref(a).home_cpu, 0);
        assert_eq!(proc_on(&h, 1), Some(b));
    }
}
