//! Property-based tests for the OS scheduler model: accounting
//! conservation, weight proportionality, liveness under random
//! workloads, and scheduler invariants checked after every command of
//! the seeded scripts in `common`.

mod common;

use common::{apply, build, policies, scripts};
use nfv_des::{Duration, SimTime};
use nfv_sched::{
    CfsParams, OsScheduler, Policy, PolicyDispatch, SchedCore, SwitchKind, TaskId, TaskState,
};
use proptest::prelude::*;

/// Drive a scheduler with always-runnable tasks for `steps` segments of
/// `step_us`, returning per-task CPU time.
fn drive(sched: &mut OsScheduler, tasks: &[TaskId], steps: u32, step_us: u64) -> Vec<Duration> {
    let mut now = SimTime::ZERO;
    for t in tasks {
        sched.wake(*t, now);
    }
    for _ in 0..steps {
        if sched.current(0).is_none() {
            sched.dispatch(0, now);
        }
        let step = Duration::from_micros(step_us);
        sched.charge_current(0, step);
        now += step;
        if sched.need_resched(0, now) {
            sched.requeue_current(0, now, SwitchKind::Involuntary);
        }
    }
    tasks.iter().map(|t| sched.task(*t).cpu_time).collect()
}

proptest! {
    /// Conservation: total charged time equals the core's busy time.
    #[test]
    fn cpu_time_conservation(
        n in 1usize..6,
        steps in 100u32..2000,
        policy_rr in prop::bool::ANY,
    ) {
        let policy = if policy_rr { Policy::rr_1ms() } else { Policy::CfsNormal };
        let mut s = OsScheduler::new(1, policy, CfsParams::default(), Duration::ZERO);
        let tasks: Vec<_> = (0..n).map(|i| s.add_task(format!("t{i}"), 0)).collect();
        let times = drive(&mut s, &tasks, steps, 50);
        let total: u64 = times.iter().map(|d| d.as_nanos()).sum();
        prop_assert_eq!(total, s.core_busy(0).as_nanos());
        prop_assert_eq!(total, steps as u64 * 50_000);
    }

    /// CFS allocates CPU in proportion to weights among always-runnable
    /// tasks (within 20% after enough slices).
    #[test]
    fn cfs_weight_proportionality(
        w1 in 1u64..8,
        w2 in 1u64..8,
    ) {
        let mut s = OsScheduler::new(1, Policy::CfsNormal, CfsParams::default(), Duration::ZERO);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.set_weight(a, w1 * 1024);
        s.set_weight(b, w2 * 1024);
        let times = drive(&mut s, &[a, b], 20_000, 50);
        let ratio = times[0].as_nanos() as f64 / times[1].as_nanos() as f64;
        let expected = w1 as f64 / w2 as f64;
        prop_assert!((ratio / expected - 1.0).abs() < 0.2,
            "ratio {ratio} vs expected {expected}");
    }

    /// Liveness: every runnable task eventually runs (no starvation), under
    /// any policy and any weights.
    #[test]
    fn no_starvation(
        n in 2usize..6,
        weights in prop::collection::vec(1u64..100, 5),
        policy_sel in 0u8..3,
    ) {
        let policy = match policy_sel {
            0 => Policy::CfsNormal,
            1 => Policy::CfsBatch,
            _ => Policy::rr_1ms(),
        };
        let mut s = OsScheduler::new(1, policy, CfsParams::default(), Duration::ZERO);
        let tasks: Vec<_> = (0..n).map(|i| s.add_task(format!("t{i}"), 0)).collect();
        for (i, t) in tasks.iter().enumerate() {
            s.set_weight(*t, weights[i % weights.len()].max(nfv_sched::MIN_SHARES));
        }
        let times = drive(&mut s, &tasks, 50_000, 20);
        for (i, t) in times.iter().enumerate() {
            prop_assert!(t.as_nanos() > 0, "task {i} starved (policy {policy:?})");
        }
    }

    /// Dispatch accounting: dispatches == voluntary + involuntary switches
    /// + (1 if currently running) for each task.
    #[test]
    fn switch_accounting_balances(steps in 100u32..3000) {
        let mut s = OsScheduler::new(1, Policy::CfsNormal, CfsParams::default(), Duration::ZERO);
        let tasks: Vec<_> = (0..3).map(|i| s.add_task(format!("t{i}"), 0)).collect();
        drive(&mut s, &tasks, steps, 100);
        for t in &tasks {
            let task = s.task(*t);
            let off_cpu = task.voluntary_switches + task.involuntary_switches;
            let running = s.current(0) == Some(*t);
            prop_assert_eq!(task.dispatches, off_cpu + running as u64);
        }
    }
}

/// Test-only observer checked after every command (the scx_model
/// `Observer` idiom): remembers what the invariants compare against
/// between commands, and counts how often the conditional floor,
/// deadline and slice checks fired.
struct Observer {
    policy: Policy,
    /// Per core: `min_vruntime` at the previous check.
    floor: Vec<u64>,
    /// Per task: (dispatches, cpu_time ns) at the previous check.
    seen: Vec<(u64, u64)>,
    fired: [u64; 3],
}

impl Observer {
    fn new(policy: Policy, s: &SchedCore<PolicyDispatch>) -> Self {
        let (floor, seen) = (vec![0; s.ctx.num_cores()], vec![(0, 0); s.ctx.num_tasks()]);
        Observer {
            policy,
            floor,
            seen,
            fired: [0; 3],
        }
    }

    fn check_invariants(&mut self, s: &SchedCore<PolicyDispatch>, now: SimTime) {
        let (ctx, policy) = (&s.ctx, self.policy);
        // Each task sits exactly where its state says: on its core's CPU,
        // on its core's queue, or (blocked) nowhere.
        let mut places = vec![Vec::new(); ctx.num_tasks()];
        for (c, core) in ctx.cores.iter().enumerate() {
            if let Some(t) = core.current {
                places[t.index()].push((c, TaskState::Running));
            }
            for q in core.rq.iter() {
                places[q.index()].push((c, TaskState::Runnable));
            }
        }
        for (i, t) in ctx.tasks.iter().enumerate() {
            let want = match t.state {
                TaskState::Blocked => vec![],
                state => vec![(t.core, state)],
            };
            assert_eq!(places[i], want, "{policy:?}: task {i}");
            let running = (t.state == TaskState::Running) as u64;
            let off_cpu = t.voluntary_switches + t.involuntary_switches;
            assert_eq!(
                off_cpu + running,
                t.dispatches,
                "{policy:?}: task {i} switches"
            );
        }
        for (c, core) in ctx.cores.iter().enumerate() {
            let curr = core
                .current
                .map(|id| (self.seen[id.index()], &ctx.tasks[id.index()]));
            let dispatched = curr.filter(|((d, _), t)| t.dispatches > *d).map(|(_, t)| t);
            let charged = curr
                .filter(|((_, ns), t)| t.cpu_time.as_nanos() > *ns)
                .map(|(_, t)| t);
            match policy {
                // The floor never goes back, and after a charge it has
                // caught up with the running task (or the queue's
                // leftmost), whether that task runs alone or not.
                Policy::CfsNormal | Policy::CfsBatch => {
                    let mv = core.rq.min_vruntime();
                    assert!(mv >= self.floor[c], "{policy:?}: core {c} floor went back");
                    self.floor[c] = mv;
                    if let Some(t) = charged {
                        let lag = core
                            .rq
                            .leftmost_key()
                            .map_or(t.vruntime, |l| l.min(t.vruntime));
                        assert!(mv >= lag, "{policy:?}: core {c} floor {mv} behind {lag}");
                        self.fired[0] += 1;
                    }
                }
                Policy::Edf { .. } | Policy::Slo => {
                    if let Some(t) = dispatched {
                        let next = core.rq.iter().map(|q| ctx.tasks[q.index()].deadline).min();
                        assert!(next.is_none_or(|d| t.deadline <= d), "{policy:?}: core {c}");
                        self.fired[1] += next.is_some() as u64;
                    }
                }
                Policy::RoundRobin { quantum } => {
                    if dispatched.is_some() {
                        let slice = core.slice_end.since(now);
                        assert!(slice <= quantum, "{policy:?}: core {c} slice {slice:?}");
                        self.fired[2] += 1;
                    }
                }
                Policy::Cooperative => {}
            }
        }
        for (seen, t) in self.seen.iter_mut().zip(&ctx.tasks) {
            *seen = (t.dispatches, t.cpu_time.as_nanos());
        }
    }
}

/// Every invariant holds after every command of every seeded script,
/// under all six policies, and each conditional check fires somewhere.
#[test]
fn invariants_hold_after_every_command() {
    let mut fired = [0; 3];
    for (i, policy) in policies().into_iter().enumerate() {
        for script in scripts(i) {
            let (mut s, mut now) = (build(policy), SimTime::ZERO);
            let mut obs = Observer::new(policy, &s);
            for c in &script {
                apply(&mut s, c, &mut now);
                obs.check_invariants(&s, now);
            }
            fired = std::array::from_fn(|k| fired[k] + obs.fired[k]);
        }
    }
    assert!(fired.iter().all(|&f| f > 0), "checks fired {fired:?}");
}
