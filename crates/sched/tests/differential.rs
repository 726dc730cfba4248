//! Pinned scheduler behaviour: fixed seeded command streams are applied
//! to the `SchedCore<PolicyDispatch>` driver, and the full observable
//! state after every command is folded into one FNV-1a digest per
//! policy. The literals were recorded on the pre-trait monolithic
//! scheduler and matched by the hook-based driver before the monolith
//! was retired, so any drift in a decision or a counter shows up as a
//! changed digest. The engine-level half is
//! `sched_backends_produce_identical_runs`.

mod common;

use common::{apply, build, policies, scripts};
use nfv_des::SimTime;
use nfv_sched::{PolicyDispatch, SchedCore, TaskState};

/// Everything externally observable about a scheduler, flattened.
fn fingerprint(s: &SchedCore<PolicyDispatch>, now: SimTime) -> Vec<u64> {
    let mut v = vec![now.as_nanos()];
    for t in &s.ctx.tasks {
        let state = match t.state {
            TaskState::Blocked => 0,
            TaskState::Runnable => 1,
            TaskState::Running => 2,
        };
        v.extend([
            state,
            t.vruntime,
            t.deadline,
            t.cpu_time.as_nanos(),
            t.voluntary_switches,
            t.involuntary_switches,
            t.dispatches,
        ]);
    }
    for c in 0..s.ctx.num_cores() {
        v.extend([
            s.ctx.current(c).map_or(u64::MAX, |t| t.0 as u64),
            s.ctx.queued(c) as u64,
            s.ctx.need_resched(c, now) as u64,
            s.ctx.core_busy(c).as_nanos(),
        ]);
    }
    v
}

fn fnv1a(h: &mut u64, words: &[u64]) {
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Per policy (in `policies()` order), the digest of every fingerprint
/// over all of its scripts.
const PINNED: [u64; 6] = [
    0x1a0e_1bab_616a_2ede,
    0x7a6a_b5aa_5642_0c1c,
    0x8657_e3a2_4b5f_6442,
    0x830b_d192_7586_e379,
    0x2a1c_5676_1c95_42eb,
    0x4951_9857_f96a_8fbe,
];

#[test]
fn backends_stay_in_lockstep() {
    for (i, policy) in policies().into_iter().enumerate() {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for script in scripts(i) {
            let mut s = build(policy);
            let mut now = SimTime::ZERO;
            for c in &script {
                apply(&mut s, c, &mut now);
                fnv1a(&mut h, &fingerprint(&s, now));
            }
        }
        assert_eq!(h, PINNED[i], "{policy:?}: digest {h:#018x}");
    }
}
