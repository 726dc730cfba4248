//! Seeded command scripts over the platform-facing scheduler API, shared
//! by `differential.rs` (pinned per-policy digests) and `props.rs`
//! (invariants checked after every command). Two cores, six tasks
//! pinned round-robin across them.

use nfv_des::{Duration, SimRng, SimTime};
use nfv_sched::{CfsParams, Policy, PolicyDispatch, SchedCore, SwitchKind, TaskId};

const CORES: u64 = 2;
const TASKS: u64 = 6;

/// Every policy the engine can run, in a fixed order.
pub fn policies() -> [Policy; 6] {
    let edf = Policy::Edf {
        period: Duration::from_millis(1),
    };
    let rr = Policy::rr_1ms();
    [
        Policy::CfsNormal,
        Policy::CfsBatch,
        rr,
        Policy::Cooperative,
        edf,
        Policy::Slo,
    ]
}

/// One step of the platform-facing API surface.
#[derive(Debug, Clone)]
pub enum Cmd {
    Wake(u32),
    Park(u32),
    SetWeight(u32, u64),
    SetBudget(u32, u64),
    /// Dispatch on a core if idle; otherwise charge a segment and honor
    /// `need_resched` — exactly the loop shape the platform drives.
    Step(usize, u64, bool),
    Block(usize),
}

/// The fixed scripts for `policies()[policy]`: 64 scripts of 1..=120
/// commands, drawn from a per-policy seed.
pub fn scripts(policy: usize) -> Vec<Vec<Cmd>> {
    let mut rng = SimRng::seed_from_u64(0x5c4e_d000 + policy as u64);
    let cmd = |rng: &mut SimRng| {
        let task = rng.below(TASKS) as u32;
        let core = rng.below(CORES) as usize;
        match rng.below(6) {
            0 => Cmd::Wake(task),
            1 => Cmd::Park(task),
            2 => Cmd::SetWeight(task, rng.range_inclusive(1, 8191)),
            3 => Cmd::SetBudget(task, rng.range_inclusive(10, 199_999)),
            4 => Cmd::Step(core, rng.range_inclusive(1, 2999), rng.below(2) == 1),
            _ => Cmd::Block(core),
        }
    };
    (0..64)
        .map(|_| {
            let n = rng.range_inclusive(1, 120);
            (0..n).map(|_| cmd(&mut rng)).collect()
        })
        .collect()
}

/// A scheduler under `policy` with every task registered and blocked.
pub fn build(policy: Policy) -> SchedCore<PolicyDispatch> {
    let dispatch = PolicyDispatch::for_policy(policy);
    let cs_cost = Duration::from_micros(2);
    let mut s = SchedCore::new(CORES as usize, dispatch, CfsParams::default(), cs_cost);
    for i in 0..TASKS {
        s.add_task(format!("t{i}"), (i % CORES) as usize);
    }
    s
}

/// Apply one command, advancing `now` by any charged segment.
pub fn apply(s: &mut SchedCore<PolicyDispatch>, c: &Cmd, now: &mut SimTime) {
    match *c {
        Cmd::Wake(t) => {
            s.wake(TaskId(t), *now);
        }
        Cmd::Park(t) => {
            s.park(TaskId(t), *now);
        }
        Cmd::SetWeight(t, w) => s.ctx.set_weight(TaskId(t), w),
        Cmd::SetBudget(t, us) => s.ctx.tasks[t as usize].rel_deadline = Duration::from_micros(us),
        Cmd::Step(core, _, _) if s.ctx.current(core).is_none() => {
            s.dispatch(core, *now);
        }
        Cmd::Step(core, charge_us, yield_if_done) => {
            let step = Duration::from_micros(charge_us);
            s.charge_current(core, step);
            *now += step;
            if s.ctx.need_resched(core, *now) {
                s.requeue_current(core, *now, SwitchKind::Involuntary);
            } else if yield_if_done {
                s.requeue_current(core, *now, SwitchKind::Voluntary);
            }
        }
        Cmd::Block(core) if s.ctx.current(core).is_some() => {
            s.block_current(core, *now);
        }
        Cmd::Block(_) => {}
    }
}
