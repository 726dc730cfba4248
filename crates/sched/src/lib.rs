//! # nfv-sched — simulated OS CPU schedulers
//!
//! Faithful-in-shape models of the three Linux scheduling policies the
//! NFVnice paper evaluates — CFS (`SCHED_NORMAL`), CFS batch
//! (`SCHED_BATCH`) and round robin (`SCHED_RR` at 1 ms / 100 ms quanta) —
//! plus the cgroup `cpu.shares` controller NFVnice drives from user space,
//! and two deadline policies the paper couldn't test: uniform EDF and an
//! SLO-aware variant driven by per-chain latency budgets.
//!
//! The scheduler is passive: the platform event loop dispatches tasks,
//! charges execution segments and consults [`OsScheduler::need_resched`] at
//! batch boundaries, the same granularity at which a tick-based kernel
//! makes preemption effective. Per-task accounting (voluntary/involuntary
//! context switches, CPU time, scheduling latency) reproduces the columns
//! of the paper's Tables 1, 2 and 4.
//!
//! Policies are implemented as sched_ext-style [`Scheduler`] hooks over a
//! neutral [`KernelCtx`] and driven by the generic [`SchedCore`]
//! (statically dispatched — no trait objects). That driver is the only
//! implementation; seeded command scripts in `tests/` pin its behaviour
//! and check its invariants after every command (DESIGN.md §12).

#![warn(missing_docs)]

pub mod cgroup;
pub mod hooks;
pub mod kernel;
pub mod params;
pub mod runqueue;
pub mod scheduler;
pub mod task;

pub use cgroup::CgroupCpu;
pub use hooks::{
    CfsSched, CoopSched, EdfSched, EnqueueFlags, PolicyDispatch, RrSched, SchedCore, Scheduler,
};
pub use kernel::{CoreCtx, KernelCtx};
pub use params::{CfsParams, Policy, MAX_SHARES, MIN_SHARES, NICE0_WEIGHT, SLO_DEFAULT_BUDGET};
pub use scheduler::{OsScheduler, SchedBackend};
pub use task::{SwitchKind, Task, TaskId, TaskState};
