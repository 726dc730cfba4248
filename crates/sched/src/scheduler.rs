//! The OS CPU scheduler model.
//!
//! [`OsScheduler`] owns the task table and one runqueue per core, and is
//! *driven* by the platform's event loop: the platform asks which task to
//! dispatch, charges execution time in segments (batch boundaries), and
//! checks [`OsScheduler::need_resched`] at each segment boundary. This
//! mirrors how a tick-based kernel only acts at scheduler-tick/batch
//! granularity, and keeps the model single-threaded and deterministic.
//!
//! Preemption model:
//! * **Slice expiry** — each dispatch computes a time slice (CFS: from
//!   target latency, runqueue size and weights; RR: the fixed quantum).
//!   Once `now` passes the slice end *and* another task is waiting, the
//!   platform must requeue the current task (involuntary switch).
//! * **Wakeup preemption** (CFS Normal and the deadline policies) — a
//!   task waking with sufficiently smaller vruntime (or an earlier
//!   deadline) flags `resched_pending`; the preemption takes effect at
//!   the next segment boundary, a few microseconds later, just as a real
//!   kernel preempts at the next tick or interrupt return.
//!
//! `OsScheduler` is a thin facade over the hook-based [`SchedCore`]
//! driving [`PolicyDispatch`] (DESIGN.md §12); every call forwards
//! straight to it.

use crate::hooks::{PolicyDispatch, SchedCore};
use crate::params::{CfsParams, Policy};
use crate::task::{SwitchKind, Task, TaskId};
use nfv_des::{Duration, SimTime};
use nfv_obs::TraceSink;

/// Compatibility name for `simbench/benches/layers.rs` l.423; offers no choice.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum SchedBackend {
    /// The hook-based `SchedCore<PolicyDispatch>` driver.
    Hooks,
}

/// The simulated OS scheduler for all cores of the machine.
#[derive(Debug)]
pub struct OsScheduler {
    policy: Policy,
    core: SchedCore<PolicyDispatch>,
}

impl OsScheduler {
    /// A scheduler for `num_cores` NF cores under `policy`.
    pub fn new(num_cores: usize, policy: Policy, cfs: CfsParams, cs_cost: Duration) -> Self {
        let core = SchedCore::new(num_cores, PolicyDispatch::for_policy(policy), cfs, cs_cost);
        OsScheduler { policy, core }
    }

    /// Compatibility name for `simbench/benches/layers.rs` l.423; calls [`OsScheduler::new`].
    #[doc(hidden)]
    pub fn with_backend(
        num_cores: usize,
        policy: Policy,
        cfs: CfsParams,
        cs_cost: Duration,
        _backend: SchedBackend,
    ) -> Self {
        Self::new(num_cores, policy, cfs, cs_cost)
    }

    /// Attach a trace sink recording paid context switches.
    pub fn set_trace(&mut self, trace: TraceSink) {
        self.core.ctx.trace = trace;
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Register a new task pinned to `core`, initially blocked.
    pub fn add_task(&mut self, name: impl Into<String>, core: usize) -> TaskId {
        self.core.add_task(name, core)
    }

    /// Immutable task access.
    pub fn task(&self, id: TaskId) -> &Task {
        self.core.ctx.task(id)
    }

    /// Number of registered tasks.
    pub fn num_tasks(&self) -> usize {
        self.core.ctx.num_tasks()
    }

    /// Number of cores managed.
    pub fn num_cores(&self) -> usize {
        self.core.ctx.num_cores()
    }

    /// Update a task's scheduler weight (cgroup `cpu.shares` write).
    /// Takes effect from the next charge/dispatch; the queue position is
    /// keyed by vruntime, which is unaffected.
    pub fn set_weight(&mut self, id: TaskId, weight: u64) {
        self.core.ctx.set_weight(id, weight);
    }

    /// Re-pin a blocked task to another core (cross-core migration). See
    /// [`KernelCtx::rehome_task`](crate::KernelCtx::rehome_task).
    pub fn rehome_task(&mut self, id: TaskId, core: usize) {
        self.core.ctx.rehome_task(id, core);
    }

    /// Grant `id` a per-job latency budget: each wakeup's deadline
    /// becomes `now + budget`. Only consulted by the deadline policies
    /// ([`Policy::Edf`] / [`Policy::Slo`]); the engine derives these from
    /// per-chain SLO budgets at prime time, before any task first wakes.
    pub fn set_task_budget(&mut self, id: TaskId, budget: Duration) {
        self.core.ctx.tasks[id.index()].rel_deadline = budget;
    }

    /// Currently running task on `core`.
    pub fn current(&self, core: usize) -> Option<TaskId> {
        self.core.ctx.current(core)
    }

    /// Runnable tasks queued (excluding the running one) on `core`.
    pub fn queued(&self, core: usize) -> usize {
        self.core.ctx.queued(core)
    }

    /// True when `core` has neither a running task nor queued runnable
    /// work. The engine's per-core domain must be inactive exactly when
    /// its core is idle and no batch event is in flight.
    pub fn core_idle(&self, core: usize) -> bool {
        self.core.ctx.core_idle(core)
    }

    /// Total busy time accumulated on `core`.
    pub fn core_busy(&self, core: usize) -> Duration {
        self.core.ctx.core_busy(core)
    }

    /// Make `id` runnable (semaphore post). No-op if already runnable or
    /// running. Returns `true` if the task's core had been idle, so the
    /// caller knows to dispatch.
    pub fn wake(&mut self, id: TaskId, now: SimTime) -> bool {
        self.core.wake(id, now)
    }

    /// True when `id` is blocked.
    pub fn is_blocked(&self, id: TaskId) -> bool {
        self.core.ctx.is_blocked(id)
    }

    /// Forcibly block a task that is not on the CPU (crash/park). A
    /// runnable task is pulled out of its core's queue; a blocked task is
    /// left blocked. Returns `false` — and does nothing — when the task is
    /// currently `Running`: the caller owns the in-flight batch and must
    /// park again at the batch boundary (via [`OsScheduler::block_current`]).
    pub fn park(&mut self, id: TaskId, now: SimTime) -> bool {
        self.core.park(id, now)
    }

    /// Pick the next task to run on an idle `core`. Returns the task and
    /// the context-switch overhead to charge before useful work starts.
    ///
    /// # Panics
    /// Panics if the core already has a running task.
    pub fn dispatch(&mut self, core: usize, now: SimTime) -> Option<(TaskId, Duration)> {
        self.core.dispatch(core, now)
    }

    /// Charge `dur` of execution to the running task on `core`.
    pub fn charge_current(&mut self, core: usize, dur: Duration) {
        self.core.charge_current(core, dur)
    }

    /// Must the current task on `core` be descheduled at this boundary?
    /// True when its slice has expired (and a competitor is waiting) or a
    /// wakeup preemption is pending.
    pub fn need_resched(&self, core: usize, now: SimTime) -> bool {
        self.core.ctx.need_resched(core, now)
    }

    /// The current task blocks (empty ring, backpressure yield-to-sleep,
    /// I/O wait, full TX ring). Voluntary switch.
    pub fn block_current(&mut self, core: usize, now: SimTime) -> TaskId {
        self.core.block_current(core, now)
    }

    /// The current task leaves the CPU but stays runnable (slice expiry or
    /// cooperative yield with work remaining). `kind` selects which context
    /// switch counter it lands in.
    pub fn requeue_current(&mut self, core: usize, now: SimTime, kind: SwitchKind) -> TaskId {
        self.core.requeue_current(core, now, kind)
    }

    /// All registered task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        self.core.ctx.task_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(policy: Policy) -> OsScheduler {
        OsScheduler::new(2, policy, CfsParams::default(), Duration::from_micros(2))
    }

    #[test]
    fn dispatch_runs_lowest_vruntime_first() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.wake(a, SimTime::ZERO);
        s.wake(b, SimTime::ZERO);
        // run a for a while so its vruntime exceeds b's
        let (first, _) = s.dispatch(0, SimTime::ZERO).unwrap();
        assert_eq!(first, a); // tie broken by id
        s.charge_current(0, Duration::from_millis(2));
        s.requeue_current(0, SimTime::from_millis(2), SwitchKind::Involuntary);
        let (second, _) = s.dispatch(0, SimTime::from_millis(2)).unwrap();
        assert_eq!(second, b);
    }

    #[test]
    fn cs_cost_only_on_task_change() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        s.wake(a, SimTime::ZERO);
        let (_, cost1) = s.dispatch(0, SimTime::ZERO).unwrap();
        assert_eq!(cost1, Duration::from_micros(2)); // from idle/other
        s.block_current(0, SimTime::ZERO);
        s.wake(a, SimTime::from_micros(10));
        let (_, cost2) = s.dispatch(0, SimTime::from_micros(10)).unwrap();
        assert_eq!(cost2, Duration::ZERO); // same task resumes
    }

    #[test]
    fn weight_shifts_cpu_ratio() {
        // Two always-runnable tasks, weights 3:1, alternate via slice
        // expiry: cpu time ratio approaches 3:1.
        let mut s = sched(Policy::CfsNormal);
        let heavy = s.add_task("heavy", 0);
        let light = s.add_task("light", 0);
        s.set_weight(heavy, 3072);
        s.set_weight(light, 1024);
        let mut now = SimTime::ZERO;
        s.wake(heavy, now);
        s.wake(light, now);
        for _ in 0..4000 {
            if s.current(0).is_none() {
                s.dispatch(0, now);
            }
            let step = Duration::from_micros(100);
            s.charge_current(0, step);
            now += step;
            if s.need_resched(0, now) {
                s.requeue_current(0, now, SwitchKind::Involuntary);
            }
        }
        let h = s.task(heavy).cpu_time.as_nanos() as f64;
        let l = s.task(light).cpu_time.as_nanos() as f64;
        let ratio = h / l;
        assert!((2.5..3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn rr_ignores_weights() {
        let mut s = sched(Policy::rr_1ms());
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.set_weight(a, 8192);
        let mut now = SimTime::ZERO;
        s.wake(a, now);
        s.wake(b, now);
        for _ in 0..2000 {
            if s.current(0).is_none() {
                s.dispatch(0, now);
            }
            let step = Duration::from_micros(100);
            s.charge_current(0, step);
            now += step;
            if s.need_resched(0, now) {
                s.requeue_current(0, now, SwitchKind::Involuntary);
            }
        }
        let ra = s.task(a).cpu_time.as_nanos() as f64;
        let rb = s.task(b).cpu_time.as_nanos() as f64;
        assert!((ra / rb - 1.0).abs() < 0.05, "rr should split evenly");
    }

    #[test]
    fn wakeup_preemption_only_in_normal() {
        for (policy, expect_preempt) in [(Policy::CfsNormal, true), (Policy::CfsBatch, false)] {
            let mut s = sched(policy);
            let hog = s.add_task("hog", 0);
            let sleeper = s.add_task("sleeper", 0);
            let mut now = SimTime::ZERO;
            s.wake(hog, now);
            s.dispatch(0, now);
            // hog runs 2ms — still inside its 3ms uncontested slice, so any
            // resched must come from wakeup preemption, not slice expiry.
            // Its vruntime (2ms) now exceeds the sleeper's (0) by more than
            // the 1ms wakeup granularity.
            s.charge_current(0, Duration::from_millis(2));
            now = SimTime::from_millis(2);
            s.wake(sleeper, now);
            assert_eq!(s.need_resched(0, now), expect_preempt, "policy {policy:?}");
        }
    }

    #[test]
    fn no_resched_without_competitor() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let mut now = SimTime::ZERO;
        s.wake(a, now);
        s.dispatch(0, now);
        s.charge_current(0, Duration::from_secs(1));
        now = SimTime::from_secs(1);
        assert!(!s.need_resched(0, now), "alone on core: run forever");
    }

    #[test]
    fn sched_latency_recorded() {
        let mut s = sched(Policy::CfsBatch);
        let a = s.add_task("a", 0);
        s.wake(a, SimTime::from_millis(1));
        s.dispatch(0, SimTime::from_millis(3)).unwrap();
        assert_eq!(s.task(a).avg_sched_latency(), Duration::from_millis(2));
        assert_eq!(s.task(a).dispatches, 1);
    }

    #[test]
    fn switch_counters_classified() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        let now = SimTime::ZERO;
        s.wake(a, now);
        s.wake(b, now);
        s.dispatch(0, now); // picks a (vruntime tie broken by id)
        s.charge_current(0, Duration::from_micros(10)); // a falls behind b
        s.requeue_current(0, now, SwitchKind::Involuntary);
        s.dispatch(0, now); // now picks b
        s.block_current(0, now);
        assert_eq!(s.task(a).involuntary_switches, 1);
        assert_eq!(s.task(b).voluntary_switches, 1);
    }

    #[test]
    fn wake_returns_whether_core_idle() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        assert!(s.wake(a, SimTime::ZERO));
        s.dispatch(0, SimTime::ZERO);
        assert!(!s.wake(b, SimTime::ZERO)); // core busy
        assert!(!s.wake(b, SimTime::ZERO)); // already runnable: no-op
    }

    // Regression test for the vruntime-staleness starvation bug: before
    // the fix, min_vruntime only advanced on pops, so it froze at 0 while
    // the worker ran alone for 1 s; a waking sleeper then resumed at the
    // stale floor and monopolized the core until it burned through a full
    // second of vruntime deficit. With the floor tracking `curr`, the
    // sleeper's bonus is bounded to latency/2 (1.5 ms) of catch-up.
    #[test]
    fn waking_sleeper_catches_up_within_half_latency_after_solo_run() {
        let mut s = sched(Policy::CfsNormal);
        let worker = s.add_task("worker", 0);
        let sleeper = s.add_task("sleeper", 0);
        let mut now = SimTime::ZERO;
        s.wake(worker, now);
        s.dispatch(0, now);
        // worker accumulates 1s of vruntime in segments (the floor
        // advances at each charge boundary, as in the real engine)
        for _ in 0..1000 {
            s.charge_current(0, Duration::from_millis(1));
        }
        now = SimTime::from_secs(1);
        s.wake(sleeper, now);
        s.requeue_current(0, now, SwitchKind::Involuntary);
        let (next, _) = s.dispatch(0, now).unwrap();
        assert_eq!(next, sleeper, "sleeper gets its wakeup bonus first");
        // The sleeper was placed at min_vruntime − latency/2; after
        // 1.5 ms of execution it has caught up and the worker runs
        // again — not after a full second.
        s.charge_current(0, Duration::from_micros(1_500));
        now += Duration::from_micros(1_500);
        s.requeue_current(0, now, SwitchKind::Involuntary);
        let (back, _) = s.dispatch(0, now).unwrap();
        assert_eq!(back, worker, "bonus is bounded to latency/2 of catch-up");
    }

    // Regression test for the stale wakeup-preemption flag: parking the
    // task that triggered the preemption must clear (re-evaluate)
    // `resched_pending`, even when another — insufficiently behind —
    // competitor remains queued.
    #[test]
    fn park_clears_stale_wakeup_preemption() {
        let mut s = sched(Policy::CfsNormal);
        let hog = s.add_task("hog", 0);
        let late = s.add_task("late", 0);
        let trigger = s.add_task("trigger", 0);
        let mut now = SimTime::ZERO;
        s.wake(hog, now);
        s.wake(late, now);
        s.dispatch(0, now); // hog runs (tie by id), late queued
        s.charge_current(0, Duration::from_millis(1));
        now = SimTime::from_millis(1);
        s.requeue_current(0, now, SwitchKind::Involuntary);
        s.dispatch(0, now); // late runs
        s.charge_current(0, Duration::from_millis(1));
        s.block_current(0, now);
        s.dispatch(0, now); // hog runs again, vruntime 1 ms
        s.charge_current(0, Duration::from_micros(200));
        now += Duration::from_micros(200);
        s.wake(trigger, now); // far behind: preemption trigger
        assert!(s.need_resched(0, now), "trigger wakes far behind: preempt");
        s.wake(late, now); // within the 1 ms granularity: not a trigger
        assert!(s.park(trigger, now));
        assert!(
            !s.need_resched(0, now),
            "preemption trigger is gone; queued competitor does not \
             justify it"
        );
    }

    #[test]
    fn park_pulls_runnable_task_and_defers_running_one() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.wake(a, SimTime::ZERO);
        s.wake(b, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO); // a runs, b queued
        assert!(s.park(b, SimTime::ZERO), "runnable task parks immediately");
        assert!(s.is_blocked(b));
        assert!(!s.need_resched(0, SimTime::from_secs(1)), "queue is empty");
        assert!(!s.park(a, SimTime::ZERO), "running task defers to boundary");
        s.block_current(0, SimTime::ZERO);
        assert!(s.park(a, SimTime::ZERO), "blocked task stays parked");
    }

    #[test]
    fn rehome_moves_blocked_task_and_resets_vruntime_credit() {
        let mut s = sched(Policy::CfsNormal);
        let mover = s.add_task("mover", 0);
        let incumbent = s.add_task("incumbent", 1);
        let mut now = SimTime::ZERO;
        // Build up vruntime on core 1's queue so its floor is nonzero.
        s.wake(incumbent, now);
        s.dispatch(1, now);
        for _ in 0..100 {
            s.charge_current(1, Duration::from_millis(1));
        }
        now = SimTime::from_millis(100);
        // mover ran nothing: vruntime 0. Rehome to core 1 — it must be
        // re-placed at the destination floor, not keep 100 ms of credit.
        assert!(s.is_blocked(mover));
        s.rehome_task(mover, 1);
        s.wake(mover, now);
        assert_eq!(s.queued(1), 1, "mover queued on core 1");
        assert!(s.core_idle(0), "core 0 no longer owns it");
        s.requeue_current(1, now, SwitchKind::Involuntary);
        s.dispatch(1, now);
        // mover's wakeup bonus is bounded: after latency/2 of execution
        // the incumbent runs again instead of starving for 100 ms.
        s.charge_current(1, Duration::from_micros(1_500));
        now += Duration::from_micros(1_500);
        s.requeue_current(1, now, SwitchKind::Involuntary);
        let (next, _) = s.dispatch(1, now).unwrap();
        assert_eq!(next, incumbent, "migrated task carries no stale credit");
    }

    #[test]
    #[should_panic(expected = "rehome of a task still on a runqueue")]
    fn rehome_of_runnable_task_panics() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        s.wake(a, SimTime::ZERO);
        s.rehome_task(a, 1);
    }

    #[test]
    fn edf_runs_earliest_deadline_and_preempts_on_wakeup() {
        let mut s = sched(Policy::Edf {
            period: Duration::from_millis(2),
        });
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        // a wakes at t=1ms (deadline 3ms), b at t=0 (deadline 2ms):
        // b runs first despite waking earlier in program order.
        s.wake(b, SimTime::ZERO);
        s.wake(a, SimTime::from_millis(1));
        let (first, _) = s.dispatch(0, SimTime::from_millis(1)).unwrap();
        assert_eq!(first, b, "earliest deadline first");
        s.charge_current(0, Duration::from_millis(1));
        s.block_current(0, SimTime::from_millis(2));
        let (second, _) = s.dispatch(0, SimTime::from_millis(2)).unwrap();
        assert_eq!(second, a);
        // b wakes again at 2.5ms → deadline 4.5ms, later than a's 3ms:
        // no preemption.
        s.charge_current(0, Duration::from_micros(500));
        s.wake(b, SimTime::from_micros(2_500));
        assert!(!s.need_resched(0, SimTime::from_micros(2_500)));
    }

    #[test]
    fn slo_budget_tightens_deadline() {
        let mut s = sched(Policy::Slo);
        let tight = s.add_task("tight", 0);
        let lax = s.add_task("lax", 0);
        // Both default to SLO_DEFAULT_BUDGET; tighten one to 100 µs.
        s.set_task_budget(tight, Duration::from_micros(100));
        // lax wakes first, then tight: tight's much nearer deadline
        // flags a preemption against the running lax.
        s.wake(lax, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO);
        s.charge_current(0, Duration::from_micros(10));
        s.wake(tight, SimTime::from_micros(10));
        assert!(
            s.need_resched(0, SimTime::from_micros(10)),
            "tighter budget preempts"
        );
        s.requeue_current(0, SimTime::from_micros(10), SwitchKind::Involuntary);
        let (next, _) = s.dispatch(0, SimTime::from_micros(10)).unwrap();
        assert_eq!(next, tight);
        assert_eq!(s.task(tight).rel_deadline, Duration::from_micros(100));
        assert_eq!(s.task(tight).deadline, 110_000);
    }

    #[test]
    #[should_panic(expected = "dispatch on busy core")]
    fn double_dispatch_panics() {
        let mut s = sched(Policy::CfsNormal);
        let a = s.add_task("a", 0);
        let b = s.add_task("b", 0);
        s.wake(a, SimTime::ZERO);
        s.wake(b, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO);
        s.dispatch(0, SimTime::ZERO);
    }
}
