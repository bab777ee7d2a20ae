//! Property tests for the scheduler: conservation of charged CPU time,
//! priority monotonicity, exactly-one-running, and queue consistency
//! under arbitrary operation sequences.

use lrp_sched::{
    Account, Pid, ProcState, SchedConfig, Scheduler, WaitChannel, PRI_MAX, PSOCK, PUSER,
};
use lrp_sim::SimDuration;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Spawn { nice: i8 },
    Pick,
    RequeueCurrent,
    SleepCurrent { wchan: u8 },
    Wakeup { wchan: u8 },
    Charge { which: u8, kind: u8, us: u32 },
    Decay,
    ReturnToUser { which: u8 },
    ExitCurrent,
    WakeOne { which: u8 },
    ExitAny { which: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (-20i8..=20).prop_map(|nice| Op::Spawn { nice }),
        Just(Op::Pick),
        Just(Op::RequeueCurrent),
        (0u8..4).prop_map(|wchan| Op::SleepCurrent { wchan }),
        (0u8..4).prop_map(|wchan| Op::Wakeup { wchan }),
        (any::<u8>(), 0u8..3, 1u32..500_000).prop_map(|(which, kind, us)| Op::Charge {
            which,
            kind,
            us
        }),
        Just(Op::Decay),
        any::<u8>().prop_map(|which| Op::ReturnToUser { which }),
        Just(Op::ExitCurrent),
        any::<u8>().prop_map(|which| Op::WakeOne { which }),
        any::<u8>().prop_map(|which| Op::ExitAny { which }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn scheduler_invariants(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut s = Scheduler::new(SchedConfig::default());
        let mut pids: Vec<Pid> = Vec::new();
        let mut current: Option<Pid> = None;
        let mut expected_total = SimDuration::ZERO;
        for op in ops {
            match op {
                Op::Spawn { nice } => {
                    pids.push(s.spawn("p", nice, SimDuration::ZERO));
                }
                Op::Pick => {
                    if current.is_none() {
                        current = s.pick_next();
                        if let Some(p) = current {
                            prop_assert_eq!(s.proc_ref(p).state, ProcState::Running);
                        }
                    }
                }
                Op::RequeueCurrent => {
                    if let Some(p) = current.take() {
                        s.requeue(p, false);
                        prop_assert_eq!(s.proc_ref(p).state, ProcState::Runnable);
                    }
                }
                Op::SleepCurrent { wchan } => {
                    if let Some(p) = current.take() {
                        s.sleep(p, WaitChannel(wchan as u64), PSOCK);
                        prop_assert!(s.has_sleeper(WaitChannel(wchan as u64)));
                    }
                }
                Op::Wakeup { wchan } => {
                    // The scan the index replaced, as the reference: every
                    // sleeper on the channel, best user priority first,
                    // pid order among equals.
                    let mut expect: Vec<Pid> = s
                        .procs()
                        .iter()
                        .filter(|p| p.state == ProcState::Sleeping(WaitChannel(wchan as u64)))
                        .map(|p| p.pid)
                        .collect();
                    expect.sort_by_key(|p| s.proc_ref(*p).user_pri);
                    let woken = s.wakeup(WaitChannel(wchan as u64));
                    prop_assert_eq!(&woken, &expect);
                    for p in woken {
                        prop_assert_eq!(s.proc_ref(p).state, ProcState::Runnable);
                    }
                }
                Op::Charge { which, kind, us } => {
                    if !pids.is_empty() {
                        let p = pids[which as usize % pids.len()];
                        if s.proc_ref(p).state != ProcState::Exited {
                            let kind = match kind {
                                0 => Account::User,
                                1 => Account::System,
                                _ => Account::Interrupt,
                            };
                            let d = SimDuration::from_micros(us as u64);
                            s.charge_on(0, p, kind, d);
                            expected_total += d;
                        }
                    }
                }
                Op::Decay => s.decay(),
                Op::ReturnToUser { which } => {
                    if !pids.is_empty() {
                        let p = pids[which as usize % pids.len()];
                        if s.proc_ref(p).state != ProcState::Exited {
                            s.return_to_user(p);
                        }
                    }
                }
                Op::ExitCurrent => {
                    if let Some(p) = current.take() {
                        s.exit(p);
                        prop_assert_eq!(s.proc_ref(p).state, ProcState::Exited);
                    }
                }
                Op::WakeOne { which } => {
                    if !pids.is_empty() {
                        let p = pids[which as usize % pids.len()];
                        let slept = matches!(s.proc_ref(p).state, ProcState::Sleeping(_));
                        prop_assert_eq!(s.wake_one(p), slept);
                        if slept {
                            prop_assert_eq!(s.proc_ref(p).state, ProcState::Runnable);
                        }
                    }
                }
                Op::ExitAny { which } => {
                    if !pids.is_empty() {
                        let p = pids[which as usize % pids.len()];
                        s.exit(p);
                        if current == Some(p) {
                            current = None;
                        }
                        prop_assert_eq!(s.proc_ref(p).state, ProcState::Exited);
                    }
                }
            }
            // Invariant: the sleeper index is exactly the sleeping set,
            // and membership answers agree with it.
            prop_assert_eq!(s.check_sleeper_index(), Ok(()));
            // Invariant: the on-CPU list, the user-time total and the
            // charged list agree with the processes they summarise.
            prop_assert_eq!(s.check_activity_index(), Ok(()));
            for wchan in 0..4u64 {
                let sleeping = s
                    .procs()
                    .iter()
                    .any(|p| p.state == ProcState::Sleeping(WaitChannel(wchan)));
                prop_assert_eq!(s.has_sleeper(WaitChannel(wchan)), sleeping);
            }
            // Invariant: charged time is conserved exactly.
            prop_assert_eq!(s.total_charged(), expected_total);
            // Invariant: at most one process is Running.
            let running = s
                .procs()
                .iter()
                .filter(|p| p.state == ProcState::Running)
                .count();
            prop_assert!(running <= 1, "{} processes running", running);
            // Invariant: priorities stay within the legal band, and estcpu
            // stays bounded.
            for p in s.procs() {
                prop_assert!(p.user_pri >= PUSER && p.user_pri <= PRI_MAX);
                prop_assert!(p.estcpu >= 0.0 && p.estcpu <= 255.0);
            }
        }
        // Per-process sums equal the scheduler's running total.
        let sum = s
            .procs()
            .iter()
            .map(|p| p.acct.total())
            .fold(SimDuration::ZERO, |a, b| a + b);
        prop_assert_eq!(sum, s.total_charged());
    }

    /// Priority is monotone in estcpu for equal niceness.
    #[test]
    fn priority_monotone_in_usage(a_us in 0u64..3_000_000, b_us in 0u64..3_000_000) {
        let mut s = Scheduler::new(SchedConfig::default());
        let a = s.spawn("a", 0, SimDuration::ZERO);
        let b = s.spawn("b", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::User, SimDuration::from_micros(a_us));
        s.charge_on(0, b, Account::User, SimDuration::from_micros(b_us));
        if a_us <= b_us {
            prop_assert!(s.proc_ref(a).user_pri <= s.proc_ref(b).user_pri);
        } else {
            prop_assert!(s.proc_ref(a).user_pri >= s.proc_ref(b).user_pri);
        }
    }

    /// Decay never increases estcpu for nice-0 processes, and repeated
    /// decay with no new charges drives priority back toward PUSER.
    #[test]
    fn decay_converges(us in 0u64..10_000_000) {
        let mut s = Scheduler::new(SchedConfig::default());
        let a = s.spawn("a", 0, SimDuration::ZERO);
        s.charge_on(0, a, Account::User, SimDuration::from_micros(us));
        let mut last = s.proc_ref(a).estcpu;
        for _ in 0..100 {
            s.decay();
            let now = s.proc_ref(a).estcpu;
            prop_assert!(now <= last + 1e-9, "estcpu rose: {last} -> {now}");
            last = now;
        }
        prop_assert!(s.proc_ref(a).user_pri <= PUSER + 2);
    }
}

/// One step of the `estcpu` differential test.
#[derive(Debug, Clone)]
enum UsageOp {
    Spawn { nice: i8 },
    Charge { which: u8, kind: u8, ns: u64 },
    Decay,
    Exit { which: u8 },
}

/// Mostly charges of 0 to 2 ticks, so processes run into the clamp and
/// stay there; spawns, decays and exits are rare.
fn arb_usage_op() -> impl Strategy<Value = UsageOp> {
    (
        0u32..1000,
        -20i8..=20,
        any::<u8>(),
        0u8..3,
        0u64..=20_000_000,
    )
        .prop_map(|(roll, nice, which, kind, ns)| match roll {
            0..=2 => UsageOp::Spawn { nice },
            3..=4 => UsageOp::Decay,
            5 => UsageOp::Exit { which },
            _ => UsageOp::Charge { which, kind, ns },
        })
}

/// The `estcpu` chain as it stood before the clamp shortcut: every
/// charge adds and clamps in `f64`, every charge and decay recomputes
/// the priority.
#[derive(Debug)]
struct UsageModel {
    nice: i8,
    estcpu: f64,
    user_pri: u8,
    exited: bool,
}

impl UsageModel {
    fn recompute(&mut self) {
        let raw = PUSER as f64 + self.estcpu / 4.0 + 2.0 * self.nice as f64;
        self.user_pri = raw.clamp(PUSER as f64, PRI_MAX as f64) as u8;
    }
}

/// Differential test: random spawn, charge (all three accounts, 0 to 2
/// ticks), decay and exit sequences leave every process's `estcpu` bit
/// for bit, and its user priority, where a copy of the plain `f64`
/// chain leaves them. Pins the shortcut `charge_on` takes at the clamp.
#[test]
fn estcpu_matches_the_plain_f64_chain() {
    let seed = proptest::seed_for("estcpu_matches_the_plain_f64_chain");
    println!("seed {seed:#018x}");
    let mut rng = TestRng::new(seed);
    let ops = proptest::collection::vec(arb_usage_op(), 1..4000);
    let tick = SchedConfig::default().tick.as_nanos();
    let mut clamped_charges = 0u64;
    for case in 0..128 {
        let mut s = Scheduler::new(SchedConfig::default());
        let mut model: Vec<UsageModel> = Vec::new();
        let mut pids: Vec<Pid> = Vec::new();
        let mut ops = ops.generate(&mut rng);
        ops.insert(0, UsageOp::Spawn { nice: 0 });
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                UsageOp::Spawn { nice } => {
                    pids.push(s.spawn("p", nice, SimDuration::ZERO));
                    let mut m = UsageModel {
                        nice,
                        estcpu: 0.0,
                        user_pri: 0,
                        exited: false,
                    };
                    m.recompute();
                    model.push(m);
                }
                UsageOp::Charge { which, kind, ns } => {
                    let i = which as usize % pids.len();
                    if model[i].exited {
                        continue;
                    }
                    let kind = match kind {
                        0 => Account::User,
                        1 => Account::System,
                        _ => Account::Interrupt,
                    };
                    s.charge_on(0, pids[i], kind, SimDuration::from_nanos(ns));
                    let m = &mut model[i];
                    clamped_charges += u64::from(m.estcpu == 255.0);
                    m.estcpu += ns as f64 / tick as f64;
                    m.estcpu = m.estcpu.min(255.0);
                    m.recompute();
                }
                UsageOp::Decay => {
                    s.decay();
                    let load = s.load_avg();
                    let factor = (2.0 * load) / (2.0 * load + 1.0);
                    for m in model.iter_mut().filter(|m| !m.exited) {
                        m.estcpu = (m.estcpu * factor + m.nice.max(0) as f64).min(255.0);
                        m.recompute();
                    }
                }
                UsageOp::Exit { which } => {
                    let i = which as usize % pids.len();
                    s.exit(pids[i]);
                    model[i].exited = true;
                }
            }
            for (pid, m) in pids.iter().zip(&model) {
                let p = s.proc_ref(*pid);
                prop_assert_eq!(
                    (p.estcpu.to_bits(), p.user_pri),
                    (m.estcpu.to_bits(), m.user_pri),
                    "seed {:#018x} case {} step {}: {:?} estcpu {} vs {}",
                    seed,
                    case,
                    step,
                    pid,
                    p.estcpu,
                    m.estcpu
                );
            }
        }
    }
    // The property says something only if the clamp was reached often.
    prop_assert!(
        clamped_charges > 1000,
        "{} clamped charges",
        clamped_charges
    );
    println!("{clamped_charges} charges at the clamp");
}

/// What a run queue holds, for comparing before and after: every queued
/// process in queue order, each queue's best bucket, and every home CPU
/// (a queued process is on its home CPU's queue).
fn queues(s: &Scheduler) -> (Vec<Pid>, Vec<Option<u8>>, Vec<usize>) {
    let mut queued = Vec::new();
    s.runnable_into(&mut queued);
    queued.truncate(s.runnable_count());
    let best = (0..s.ncpus()).map(|c| s.best_queued_pri_on(c)).collect();
    let homes = s.procs().iter().map(|p| p.home_cpu).collect();
    (queued, best, homes)
}

/// Differential test of the rule a host uses to let a process whose
/// chunk ended keep its CPU: over random run queues — one to four CPUs,
/// user, kernel and fixed priorities, pinned and unpinned processes,
/// sleepers — a running process does not preempt on its home CPU
/// exactly when `requeue(pid, true)` then `pick_next_on(home)` gives it
/// back and leaves every queue as it was.
#[test]
fn unpreempted_is_exactly_what_requeue_and_pick_give_back() {
    let seed = proptest::seed_for("unpreempted_is_exactly_what_requeue_and_pick_give_back");
    println!("seed {seed:#018x}");
    let mut rng = TestRng::new(seed);
    let (mut tried, mut kept) = (0, 0);
    for case in 0..2000 {
        let ncpus = 1 + rng.below(4) as usize;
        let mut s = Scheduler::new(SchedConfig {
            ncpus,
            ..SchedConfig::default()
        });
        for _ in 0..1 + rng.below(12) {
            let pid = s.spawn("p", rng.below(41) as i8 - 20, SimDuration::ZERO);
            let used = SimDuration::from_millis(rng.below(3000));
            s.charge_on(0, pid, Account::User, used);
            match rng.below(6) {
                0 => s.set_fixed_pri(pid, Some(rng.below(u64::from(PRI_MAX) + 1) as u8)),
                1 => s.set_affinity(pid, Some(rng.below(ncpus as u64) as usize)),
                2 | 3 => {
                    let pri = rng.below(u64::from(PUSER)) as u8;
                    s.sleep(pid, WaitChannel(u64::from(pid.0)), pri);
                    if rng.below(2) == 0 {
                        s.wake_one(pid);
                    }
                }
                _ => {}
            }
        }
        // Some CPUs run a process; the one under test is the last picked.
        let mut running = None;
        for cpu in 0..ncpus {
            if rng.below(2) == 0 || running.is_none() {
                running = s.pick_next_on(cpu).or(running);
            }
        }
        let Some(pid) = running else { continue };
        // Its priority may have moved while it ran.
        match rng.below(4) {
            0 => s.charge_on(
                0,
                pid,
                Account::User,
                SimDuration::from_millis(rng.below(1000)),
            ),
            1 => s.return_to_user(pid),
            _ => {}
        }
        let p = s.proc_ref(pid);
        let (home, pri) = (p.home_cpu, p.effective_pri());
        let unpreempted = !s.should_preempt_on(home, pri);
        let before = queues(&s);
        s.requeue(pid, true);
        let given_back = s.pick_next_on(home) == Some(pid) && queues(&s) == before;
        prop_assert_eq!(
            unpreempted,
            given_back,
            "seed {:#018x} case {}: {:?} at pri {} on CPU {}",
            seed,
            case,
            pid,
            pri,
            home
        );
        tried += 1;
        kept += u32::from(given_back);
    }
    // Both answers must be common for the equivalence to say anything.
    prop_assert!(
        kept > tried / 10 && kept < tried * 9 / 10,
        "{} of {} given back",
        kept,
        tried
    );
    println!("{kept} of {tried} given back");
}
