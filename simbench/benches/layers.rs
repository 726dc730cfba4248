//! The traced run and the per-layer replays.
//!
//! The benchmark cannot see inside `Simulation::run`, so each layer is
//! measured from outside in three steps:
//!
//! 1. **Count.** The traced run's own counters give each layer's op count
//!    (`Report`, `Report::queue`, `Report::flow`, `sim.platform`,
//!    `MetricsRecorder::samples`). These counts are deterministic for a
//!    seed.
//! 2. **Cost.** A replay calls the layer's public API with the workload's
//!    shapes — the same tuples, periods, ring sizes and task layout — and
//!    times it, giving ns per op. The flow-table replay feeds the exact
//!    frame stream the sources emitted; the scheduler, backpressure and
//!    event-queue replays execute exactly the counted number of ops.
//! 3. **Attribute.** `busy_frac = count × ns/op ÷ host run time`, with
//!    nested layers (the flow table, rings and mempool inside the
//!    platform's per-frame path) subtracted from their parent so the
//!    shares and the residual sum to the run time.
//!
//! The one boundary timed inside the run is the app handlers: the traced
//! run wraps each one (see `workload::Timed`).

use crate::spans::Spans;
use crate::workload::{AppTally, Built, Spec};
use crate::{run_once, Gate, RunOutcome};
use nfv_io::{DoubleBuffer, StorageDevice, WriteOutcome};
use nfv_obs::MetricsRecorder;
use nfv_pkt::{FlowTable, FlowTableKind, Mempool, Ring, WireFrame};
use nfv_platform::BatchPlan;
use nfv_sched::{CgroupCpu, OsScheduler, SwitchKind, TaskId};
use nfvnice::{
    compute_shares, Backpressure, ChainId, Duration, EcnMarker, FlowId, LoadMonitor, NfId, Packet,
    Report, SimConfig, SimRng, SimTime,
};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Minimum ops a cost-only replay times, so a layer the run barely
/// touches still gets a stable ns/op figure.
const MIN_TIMED_OPS: u64 = 200_000;
/// Minimum rounds of layer replays; each layer's fastest round counts.
const REPLAY_ROUNDS: usize = 3;
/// Frames the platform replay pushes through the per-frame path.
const PLATFORM_SAMPLE_FRAMES: u64 = 400_000;

pub struct Traced {
    /// (name, value, unit), in `BENCHMARK.json` order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Best-run `sim_mfps` of the untraced runs interleaved with the
    /// traced ones.
    pub e2e_mfps: f64,
    /// Every replay-fidelity check held.
    pub replay_ok: bool,
}

/// Op counts read off the traced run.
struct Counts {
    /// Host ns of the run the layers are attributed against (the fastest
    /// traced run; `traced` sets it once all runs are in).
    run_ns: f64,
    frames: u64,
    events: u64,
    coalesced: u64,
    skipped: u64,
    stale: u64,
    max_len: u64,
    classified: u64,
    flow: nfv_pkt::FlowTableStats,
    flows_evicted: u64,
    nic_overflow: u64,
    ring_ops: u64,
    mempool_ops: u64,
    mempool_hwm: u64,
    rx_frames: u64,
    nf_pkts: u64,
    tx_pkts: u64,
    entry_shed: u64,
    wasted: u64,
    switches: u64,
    involuntary: u64,
    cgroup_writes: u64,
    bp_evals: u64,
    throttles: u64,
    monitor_ticks: u64,
    ecn_marks: u64,
    io_writes: u64,
    apps_pkts: u64,
    obs_samples: u64,
    tcp_frames: u64,
}

fn counts(spec: &Spec, o: &RunOutcome, built: &mut Built, r: &Report) -> Counts {
    let cfg = spec.sim_config();
    let samples = built.sim.take_metrics().samples() as u64;
    let p = &built.sim.platform;
    let ledger = nfvnice::conservation_ledger(p);
    let ring_ops = p
        .nfs
        .iter()
        .map(|nf| nf.rx.enqueued + nf.rx.dequeued + nf.tx.enqueued + nf.tx.dequeued)
        .sum();
    // Every packet that got past entry admission took a mempool slot;
    // all but the ones still in flight have been freed again. (No
    // workload injects faults, so no packet is shed at a dead NF.)
    let in_use = p.mempool.in_use() as u64;
    let allocs = p.stats.delivered_total + p.stats.dropped_total + in_use
        - p.stats.entry_throttle_drops
        - p.stats.mempool_fail
        - p.stats.nf_down_drops;
    let tasks: Vec<_> = p.sched.task_ids().map(|t| p.sched.task(t)).collect();
    // Each packet of a logged flow is one `DoubleBuffer::write` at an I/O
    // NF, and only the logged flow's chain passes through one.
    let io_writes = spec
        .nfs
        .iter()
        .zip(&p.nfs)
        .filter(|(d, _)| d.io.is_some())
        .map(|(_, nf)| nf.processed)
        .sum();
    let source_frames = replay_source_frames(spec);
    Counts {
        run_ns: o.run_s * 1e9,
        frames: o.frames,
        events: r.queue.pops,
        coalesced: r.queue.coalesced_pops,
        skipped: r.queue.skipped_ticks,
        stale: r.stale_pops,
        max_len: r.queue.max_len as u64,
        classified: ledger.classified,
        flow: r.flow,
        flows_evicted: r.flows_evicted,
        nic_overflow: r.nic_overflow,
        ring_ops,
        mempool_ops: 2 * allocs - in_use,
        mempool_hwm: p.mempool.high_watermark() as u64,
        rx_frames: ledger.classified + p.stats.unclassified,
        nf_pkts: p.nfs.iter().map(|nf| nf.processed).sum(),
        tx_pkts: p.nfs.iter().map(|nf| nf.tx.dequeued).sum(),
        entry_shed: r.entry_drops,
        wasted: r.total_wasted_drops,
        switches: tasks.iter().map(|t| t.dispatches).sum(),
        involuntary: tasks.iter().map(|t| t.involuntary_switches).sum(),
        cgroup_writes: r.cgroup_writes,
        // The engine runs the watermark state machine for every live NF on
        // every wakeup scan. Idle skip-ahead elides scans the engine
        // proves are no-ops and keeps no count of them, so this is the
        // scan count without skip-ahead: exact under load, an upper
        // bound on an idle box.
        bp_evals: p.nfs.len() as u64 * ticks(spec.duration, cfg.wakeup_period),
        throttles: r.throttle_events,
        monitor_ticks: ticks(spec.duration, cfg.nfvnice.load.sample_period),
        ecn_marks: r.ecn_marks,
        io_writes,
        apps_pkts: 0,
        obs_samples: samples,
        tcp_frames: o.frames.saturating_sub(source_frames),
    }
}

fn ticks(d: Duration, period: Duration) -> u64 {
    d.as_nanos() / period.as_nanos()
}

/// Frames the UDP and sweep sources emit over the run (TCP frames are the
/// rest of the run's frame count).
fn replay_source_frames(spec: &Spec) -> u64 {
    let mut n = 0;
    emit_timeline(spec, |_, frames| n += frames.len() as u64);
    n
}

/// Replay the engine's traffic timeline: at every traffic poll, in the
/// engine's order, the UDP sources (rotated one place per poll) and then
/// the sweeps emit into a fresh frame vector handed to `on_poll` with the
/// poll's tick index. The engine's RNG stream is reproduced too, though
/// the workloads' constant-rate sources draw nothing from it.
fn emit_timeline(spec: &Spec, mut on_poll: impl FnMut(u64, &mut Vec<WireFrame>)) {
    let cfg = spec.sim_config();
    let poll = cfg.traffic_poll;
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let mut udp = spec.udp_sources();
    let mut sweeps = spec.sweep_sources();
    let mut rotor = 0;
    let mut frames = Vec::new();
    let end = SimTime::ZERO + spec.duration;
    let mut k = 1u64;
    loop {
        let now = SimTime::ZERO + Duration::from_nanos(poll.as_nanos() * k);
        if now > end {
            break;
        }
        frames.clear();
        let n = udp.len();
        if n > 0 {
            rotor = (rotor + 1) % n;
            for i in 0..n {
                udp[(rotor + i) % n].emit(now, poll, &mut rng, &mut frames);
            }
        }
        for s in &mut sweeps {
            s.emit(now, poll, &mut rng, &mut frames);
        }
        on_poll(k, &mut frames);
        k += 1;
    }
}

/// ns per op of `f`, run `n` times.
fn time_per_op(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    for i in 0..n {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// A fresh flow table holding what the run's set-up installed, in the
/// same order: the pinned population, the wildcard rules, then the UDP
/// and TCP flows with the tuples `Simulation` gives them.
fn seeded_table(spec: &Spec) -> FlowTable {
    let mut ft = FlowTable::with_kind(FlowTableKind::default_kind());
    if let Some(p) = spec.sweeps.iter().find(|s| s.pinned) {
        for t in spec.pinned_tuples() {
            ft.install(t, ChainId(p.chain as u32));
        }
    }
    for (pattern, chain, priority) in spec.wildcards() {
        ft.install_wildcard(pattern, ChainId(chain as u32), priority);
    }
    for (u, d) in spec.udp_sources().iter().zip(&spec.udp) {
        ft.install(u.tuple, ChainId(d.chain as u32));
    }
    for (t, d) in spec.tcp_sources().iter().zip(&spec.tcp) {
        ft.install(t.tuple, ChainId(d.chain as u32));
    }
    ft
}

/// Replay results: ns per op plus whatever the fidelity check compares.
struct FlowReplay {
    ns_per_classify: f64,
    traffic_ns_per_frame: f64,
    stats: nfv_pkt::FlowTableStats,
    classified: u64,
    evicted: u64,
}

/// Flow-table replay: a fresh table with the run's installs and wildcard
/// rules classifies the sources' frames in emission order, aging on the
/// monitor tick's cadence (the monitor tick runs before the traffic poll
/// and the RX poll of the same instant, as in the engine's event order).
/// TCP frames, whose timing depends on the closed loop, are spread evenly
/// over the polls. Emission is timed as the traffic layer.
fn replay_flow(spec: &Spec, c: &Counts) -> FlowReplay {
    let cfg: SimConfig = spec.sim_config();
    let mut ft = seeded_table(spec);
    let tcp = spec.tcp_sources();
    let polls_per_tick =
        (cfg.nfvnice.load.sample_period.as_nanos() / cfg.traffic_poll.as_nanos()).max(1);
    let polls = ticks(spec.duration, cfg.traffic_poll).max(1);
    let tcp_tuple = tcp.first().map(|t| t.tuple);
    let mut evicted = Vec::new();
    let mut evicted_total = 0u64;
    let mut monitor_ticks = 0u64;
    let mut classify_ns = 0u128;
    let mut emitted = 0u64;
    let mut tcp_done = 0u64;
    let mut emit_ns = 0u128;
    let mut last = Instant::now();
    emit_timeline(spec, |k, frames| {
        // Everything since the last classify pass was emission.
        emit_ns += last.elapsed().as_nanos();
        let t0 = Instant::now();
        if k % polls_per_tick == 0 {
            monitor_ticks += 1;
            if cfg.platform.flow_aging.enabled()
                && monitor_ticks
                    .is_multiple_of(u64::from(cfg.platform.flow_aging.epoch_ticks.max(1)))
            {
                evicted.clear();
                ft.age(cfg.platform.flow_aging.idle_epochs, &mut evicted);
                evicted_total += evicted.len() as u64;
            }
        }
        for f in frames.iter() {
            black_box(ft.classify(&f.tuple, f.size));
        }
        if let Some(t) = tcp_tuple {
            let due = c.tcp_frames * k / polls;
            while tcp_done < due {
                black_box(ft.classify(&t, crate::workload::TCP_FRAME));
                tcp_done += 1;
            }
        }
        emitted += frames.len() as u64;
        last = Instant::now();
        classify_ns += (last - t0).as_nanos();
    });
    FlowReplay {
        ns_per_classify: classify_ns as f64 / ft.classified_packets().max(1) as f64,
        traffic_ns_per_frame: emit_ns as f64 / emitted.max(1) as f64,
        stats: ft.stats(),
        classified: ft.classified_packets(),
        evicted: evicted_total,
    }
}

/// TCP source cost: `pump` plus one `on_feedback` per frame, the ack clock
/// closed immediately.
fn replay_tcp(spec: &Spec, frames: u64) -> f64 {
    let Some(mut src) = spec.tcp_sources().into_iter().next() else {
        return 0.0;
    };
    let n = frames.max(MIN_TIMED_OPS);
    let mut out = Vec::new();
    let mut done = 0u64;
    let mut now = SimTime::ZERO;
    let t0 = Instant::now();
    while done < n {
        out.clear();
        src.pump(now, &mut out);
        if out.is_empty() {
            now += src.rtt;
            continue;
        }
        for f in &out {
            src.on_feedback(
                nfv_traffic::Feedback::Delivered {
                    seq: f.seq,
                    ce: false,
                },
                now,
            );
        }
        done += out.len() as u64;
        now += Duration::from_micros(1);
    }
    t0.elapsed().as_nanos() as f64 / done as f64
}

/// Event-queue replay: the workload's periodic timers (traffic, RX, TX,
/// wakeup, monitor, stats roll), one batch timer per NF core, and enough
/// RTT-scale timers to hold the run's peak queue length, each rescheduled
/// on pop, driven through `pop_batch_before` until exactly the run's
/// event count has been popped.
fn replay_des(spec: &Spec, c: &Counts) -> (f64, u64) {
    let cfg = spec.sim_config();
    let mut periods = vec![
        cfg.traffic_poll,
        cfg.rx_poll,
        cfg.tx_poll,
        cfg.wakeup_period,
        cfg.nfvnice.load.sample_period,
        Duration::from_secs(1),
    ];
    for core in 0..spec.cores {
        let cycles: u64 = spec
            .nfs
            .iter()
            .filter(|n| n.core == core)
            .map(|n| n.cycles)
            .max()
            .unwrap_or(0);
        if cycles > 0 {
            periods.push(
                cfg.platform
                    .freq
                    .cycles_to_duration(cycles * cfg.platform.batch_size as u64),
            );
        }
    }
    let rtt = spec
        .tcp
        .first()
        .map_or(Duration::from_micros(100), |t| t.rtt);
    let periodic = periods.len();
    while (periods.len() as u64) < c.max_len {
        periods.push(rtt);
    }
    let mut q = nfv_des::EventQueue::<u32>::new();
    let fillers = (periods.len() - periodic) as u64;
    for (i, p) in periods.iter().enumerate() {
        // RTT-scale timers start staggered across one RTT, like feedback
        // for segments sent over a round trip.
        let offset = match i.checked_sub(periodic) {
            Some(j) => Duration::from_nanos(p.as_nanos() * j as u64 / fillers),
            None => Duration::ZERO,
        };
        q.push(SimTime::ZERO + *p + offset, i as u32);
    }
    let mut rest = Vec::new();
    let mut pops = 0u64;
    let target = c.events;
    let t0 = Instant::now();
    while pops < target {
        let limit = SimTime::MAX;
        // Near the target, pop singly so a batch cannot overshoot it.
        let first = if target - pops > periods.len() as u64 {
            q.pop_batch_before(limit, &mut rest)
        } else {
            rest.clear();
            q.pop_before(limit)
        };
        let Some((t, e)) = first else { break };
        pops += 1;
        q.push(t + periods[e as usize], e);
        for (t, e) in rest.drain(..) {
            pops += 1;
            q.push(t + periods[e as usize], e);
        }
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (ns / pops.max(1) as f64, pops)
}

/// Scheduler replay on a fresh `OsScheduler` with the run's policy and
/// task layout: exactly `switches` dispatches, each one wake → dispatch →
/// charge → block (or requeue, at the run's involuntary share). Returns
/// (ns per switch, dispatches executed, ns per cgroup write).
fn replay_sched(spec: &Spec, c: &Counts) -> (f64, u64, f64) {
    let cfg = spec.sim_config().platform;
    let mut sched = OsScheduler::with_backend(
        cfg.nf_cores,
        cfg.policy,
        cfg.cfs,
        cfg.cs_cost,
        cfg.sched_backend,
    );
    // Per core: each task with the CPU time of one full batch of its NF.
    let mut by_core: Vec<Vec<(TaskId, Duration)>> = vec![Vec::new(); cfg.nf_cores];
    for nf in &spec.nfs {
        let batch = cfg
            .freq
            .cycles_to_duration(nf.cycles * cfg.batch_size as u64);
        by_core[nf.core].push((sched.add_task(nf.name, nf.core), batch));
    }
    let cores: Vec<usize> = (0..cfg.nf_cores)
        .filter(|&c| !by_core[c].is_empty())
        .collect();
    let mut now = SimTime::ZERO;
    let mut dispatched = 0u64;
    let mut credit = 0u64;
    let t0 = Instant::now();
    let mut i = 0usize;
    while dispatched < c.switches && !cores.is_empty() {
        let core = cores[i % cores.len()];
        let tasks = &by_core[core];
        let (task, slice) = tasks[(i / cores.len()) % tasks.len()];
        i += 1;
        sched.wake(task, now);
        if sched.current(core).is_none() {
            if sched.dispatch(core, now).is_none() {
                continue;
            }
            dispatched += 1;
        }
        sched.charge_current(core, slice);
        now += slice;
        credit += c.involuntary;
        if credit >= c.switches.max(1) {
            credit -= c.switches.max(1);
            sched.requeue_current(core, now, SwitchKind::Involuntary);
        } else {
            sched.block_current(core, now);
        }
    }
    let ns_switch = t0.elapsed().as_nanos() as f64 / dispatched.max(1) as f64;
    let mut cg = CgroupCpu::new(CgroupCpu::DEFAULT_WRITE_COST);
    let all: Vec<TaskId> = by_core.iter().flatten().map(|&(t, _)| t).collect();
    for &t in &all {
        cg.register(t);
    }
    let ns_write = time_per_op(MIN_TIMED_OPS, |k| {
        let t = all[k as usize % all.len()];
        // Alternate values so no write is filtered as redundant.
        black_box(cg.set_shares(&mut sched, t, 512 + (k % 2) * 512));
    });
    (ns_switch, dispatched, ns_write)
}

/// Backpressure replay: exactly `evals` watermark evaluations over the
/// workload's NFs and their chains, with queue lengths sweeping through
/// both watermarks so the state machine transitions as under overload.
fn replay_bp(spec: &Spec, c: &Counts) -> (f64, u64) {
    let cfg = spec.sim_config();
    let n = spec.nfs.len();
    let mut bp = Backpressure::new(cfg.nfvnice.bp, n, spec.chains.len());
    let chains_of: Vec<Vec<ChainId>> = (0..n)
        .map(|nf| {
            spec.chains
                .iter()
                .enumerate()
                .filter(|(_, p)| p.contains(&nf))
                .map(|(i, _)| ChainId(i as u32))
                .collect()
        })
        .collect();
    let cap = nfvnice::NfSpec::DEFAULT_RING;
    let ns = time_per_op(c.bp_evals, |k| {
        let nf = (k % n as u64) as usize;
        let scan = k / n as u64;
        // A sawtooth over 128 scans from empty to full.
        let qlen = (scan % 128) as usize * cap / 127;
        let now = SimTime::ZERO + Duration::from_micros(10 * scan);
        let age = (qlen > 0).then(|| Duration::from_micros(qlen as u64 / 16));
        bp.evaluate(
            now,
            NfId(nf as u32),
            qlen.min(cap),
            cap,
            age,
            chains_of[nf].iter(),
        );
    });
    black_box(bp.throttle_events);
    (ns, c.bp_evals)
}

/// Load-estimator replay: per monitor tick, `LoadMonitor::sample` for
/// every NF, and `compute_shares` per core on the weight-update cadence.
fn replay_load(spec: &Spec, c: &Counts) -> f64 {
    let cfg = spec.sim_config();
    let n = spec.nfs.len();
    let load = cfg.nfvnice.load;
    let mut mon = LoadMonitor::new(load, n);
    let per_weight = (load.weight_period.as_nanos() / load.sample_period.as_nanos()).max(1);
    let mut rows = Vec::new();
    let ticks = c.monitor_ticks.max(MIN_TIMED_OPS / n.max(1) as u64);
    time_per_op(ticks, |k| {
        let now = SimTime::ZERO + Duration::from_nanos(load.sample_period.as_nanos() * (k + 1));
        for (i, nf) in spec.nfs.iter().enumerate() {
            let ppp = cfg.platform.freq.cycles_to_duration(nf.cycles);
            mon.sample(i, now, ppp, (k + 1) * 1_000 * (i as u64 + 1));
        }
        if (k + 1) % per_weight == 0 {
            for core in 0..spec.cores {
                rows.clear();
                rows.extend(
                    spec.nfs
                        .iter()
                        .enumerate()
                        .filter(|(_, d)| d.core == core)
                        .map(|(i, _)| (i, mon.load(i), 1.0)),
                );
                if rows.len() >= 2 {
                    black_box(compute_shares(&rows, load.shares_scale));
                }
            }
        }
    })
}

/// ECN replay: `observe` + `should_mark` per NF per monitor tick.
fn replay_ecn(spec: &Spec) -> f64 {
    let cfg = spec.sim_config();
    let n = spec.nfs.len();
    let mut ecn = EcnMarker::new(cfg.nfvnice.ecn_cfg, vec![nfvnice::NfSpec::DEFAULT_RING; n]);
    time_per_op(MIN_TIMED_OPS, |k| {
        let i = (k % n as u64) as usize;
        ecn.observe(i, ((k * 37) % 16_384) as usize);
        black_box(ecn.should_mark(i));
    })
}

/// Ring and mempool replays: bursts of `batch_size` enqueues then
/// dequeues (allocs then frees) — the shape of an NF batch.
fn replay_ring_mempool(spec: &Spec) -> (f64, f64) {
    let cfg = spec.sim_config().platform;
    let burst = cfg.batch_size as u64;
    let mut ring = Ring::new(nfvnice::NfSpec::DEFAULT_RING);
    let ring_ns = time_per_op(MIN_TIMED_OPS / burst, |k| {
        for j in 0..burst {
            black_box(ring.enqueue(nfv_pkt::PktId((k * burst + j) as u32)));
        }
        for _ in 0..burst {
            black_box(ring.dequeue());
        }
    }) / (2 * burst) as f64;
    let mut pool = Mempool::new(cfg.mempool_capacity);
    let mut ids = Vec::with_capacity(burst as usize);
    let pool_ns = time_per_op(MIN_TIMED_OPS / burst, |k| {
        for j in 0..burst {
            let pkt = Packet::new(FlowId(j as u32), ChainId(0), 64, SimTime::from_nanos(k));
            ids.push(pool.alloc(pkt).expect("mempool sized for a burst"));
        }
        for id in ids.drain(..) {
            pool.free(id);
        }
    }) / (2 * burst) as f64;
    (ring_ns, pool_ns)
}

struct PlatformReplay {
    rx_ns_per_frame: f64,
    /// The part of `rx_ns_per_frame` spent classifying, measured on a twin
    /// table fed the same frames.
    rx_classify_ns_per_frame: f64,
    batch_ns_per_pkt: f64,
    tx_ns_per_pkt: f64,
}

/// Per-frame path replay on a fresh simulation's platform (stock
/// forwarders, no I/O flows): each poll's frames go through the NIC and
/// `rx_poll` (admitting at the run's post-shed share), every NF drains its
/// RX ring through `plan_batch` + `finish_batch`, and `tx_drain` forwards
/// between hops, until the poll's packets have left the box. Flow aging
/// runs on the monitor cadence, as in the run. A twin flow table
/// classifies the same frames first, so the classification inside
/// `rx_poll` can be taken out of the platform's own time.
fn replay_platform(spec: &Spec, c: &Counts) -> PlatformReplay {
    let cfg = spec.sim_config();
    let aging = cfg.platform.flow_aging;
    let polls_per_tick =
        (cfg.nfvnice.load.sample_period.as_nanos() / cfg.traffic_poll.as_nanos()).max(1);
    let mut built = spec.build(None, false);
    let p = &mut built.sim.platform;
    let mut twin = seeded_table(spec);
    let mut evicted = Vec::new();
    let mut twin_ns = 0u128;
    let admit_share = 1.0 - c.entry_shed as f64 / c.classified.max(1) as f64;
    let mut credit = 0.0f64;
    let (mut rx_ns, mut batch_ns, mut tx_ns) = (0u128, 0u128, 0u128);
    let (mut rx_frames, mut batch_pkts, mut tx_pkts) = (0u64, 0u64, 0u64);
    let mut tcp_out = Vec::new();
    let mut woken = Vec::new();
    let mut now = SimTime::ZERO;
    let n = p.nfs.len();
    emit_timeline(spec, |k, frames| {
        if rx_frames >= PLATFORM_SAMPLE_FRAMES || frames.is_empty() {
            return;
        }
        now = SimTime::ZERO + Duration::from_nanos(cfg.traffic_poll.as_nanos() * k);
        if aging.enabled() && k % (polls_per_tick * u64::from(aging.epoch_ticks.max(1))) == 0 {
            evicted.clear();
            p.age_flows(aging.idle_epochs, &mut evicted);
            twin.age(aging.idle_epochs, &mut evicted);
        }
        let t0 = Instant::now();
        for f in frames.iter() {
            black_box(twin.classify(&f.tuple, f.size));
        }
        twin_ns += t0.elapsed().as_nanos();
        rx_frames += frames.len() as u64;
        p.nic.deliver_burst(frames);
        let mut admit = |_c: ChainId, _f: FlowId, _on: &mut dyn FnMut(NfId) -> bool| {
            credit += admit_share;
            if credit >= 1.0 {
                credit -= 1.0;
                true
            } else {
                false
            }
        };
        let t0 = Instant::now();
        p.rx_poll(now, &mut admit, &mut tcp_out);
        rx_ns += t0.elapsed().as_nanos();
        tcp_out.clear();
        for _ in 0..1_000 {
            if p.mempool.in_use() == 0 {
                break;
            }
            for nf in 0..n {
                let id = NfId(nf as u32);
                let t0 = Instant::now();
                if let BatchPlan::Run { n, .. } = p.plan_batch(id) {
                    p.finish_batch(id, now);
                    batch_pkts += n as u64;
                }
                batch_ns += t0.elapsed().as_nanos();
            }
            let before: u64 = p.nfs.iter().map(|nf| nf.tx.dequeued).sum();
            let t0 = Instant::now();
            p.tx_drain(now, &mut |_| false, &mut tcp_out, &mut woken);
            tx_ns += t0.elapsed().as_nanos();
            tx_pkts += p.nfs.iter().map(|nf| nf.tx.dequeued).sum::<u64>() - before;
            tcp_out.clear();
            woken.clear();
        }
    });
    PlatformReplay {
        rx_ns_per_frame: rx_ns as f64 / rx_frames.max(1) as f64,
        rx_classify_ns_per_frame: twin_ns as f64 / rx_frames.max(1) as f64,
        batch_ns_per_pkt: batch_ns as f64 / batch_pkts.max(1) as f64,
        tx_ns_per_pkt: tx_ns as f64 / tx_pkts.max(1) as f64,
    }
}

/// Storage replay: `DoubleBuffer::write` against a `StorageDevice`, with
/// the logger NF's record size and buffer, completing flushes as the
/// simulated clock passes them.
fn replay_io(spec: &Spec) -> f64 {
    let Some(io) = spec.nfs.iter().find_map(|n| n.io) else {
        return 0.0;
    };
    let nfv_platform::IoMode::Async { buf_size } = io.mode else {
        return 0.0;
    };
    let mut dbuf = DoubleBuffer::new(buf_size);
    let mut dev = StorageDevice::default_ssd();
    let mut now = SimTime::ZERO;
    let mut pending: Option<SimTime> = None;
    time_per_op(MIN_TIMED_OPS, |_| {
        now += Duration::from_nanos(500);
        if let Some(done) = pending.filter(|&d| d <= now) {
            pending = dbuf.on_flush_complete(done, &mut dev);
        }
        match dbuf.write(now, io.bytes_per_packet, &mut dev) {
            WriteOutcome::Flushing { completion } => pending = Some(completion),
            WriteOutcome::Blocked => {
                // Wait out the in-flight flush, as the blocked NF would.
                if let Some(done) = pending {
                    now = now.max(done);
                    pending = dbuf.on_flush_complete(done, &mut dev);
                }
            }
            WriteOutcome::Buffered => {}
        }
    })
}

/// Metrics replay: one sample column per op — `begin_tick`,
/// `record_flows`, `record_nf` per NF and `record_chain` per chain.
fn replay_obs(spec: &Spec) -> f64 {
    let names: Vec<&str> = spec.nfs.iter().map(|n| n.name).collect();
    let per_recorder = 10_000u64;
    let mut total_ns = 0u128;
    let mut samples = 0u64;
    while samples < MIN_TIMED_OPS / 10 {
        let mut m = MetricsRecorder::recording();
        m.init(names.iter().copied(), spec.chains.len());
        let t0 = Instant::now();
        for k in 0..per_recorder {
            m.begin_tick(SimTime::from_nanos(k * 1_000_000), k);
            m.record_flows(k, 0);
            for i in 0..names.len() {
                m.record_nf(i, k, k % 2 == 0, 1024, 1e6, 100);
            }
            for ch in 0..spec.chains.len() {
                m.record_chain(ch, false, 0, 1_000, 2_000);
            }
        }
        total_ns += t0.elapsed().as_nanos();
        samples += black_box(&m).samples() as u64;
    }
    total_ns as f64 / samples.max(1) as f64
}

/// The app wrappers' own cost: (bias, cost) in ns. `bias` is what an
/// empty timed call reads, subtracted from each measured handler call;
/// `cost` is the wrapper's average cost per call (counting, and the clock
/// reads of the sampled calls), which only the traced run pays.
fn timer_overhead_ns() -> (f64, f64) {
    let n = 400_000u64;
    let tally = crate::workload::Tally::default();
    let t0 = Instant::now();
    for _ in 0..n {
        tally.measure(|| black_box(()));
    }
    let cost = t0.elapsed().as_nanos() as f64 / n as f64;
    (tally.mean_timed_ns(), cost)
}

/// Keep `r` in `slot` if it is cheaper by `cost` than what is there.
fn keep<T>(slot: &mut Option<T>, r: T, cost: impl Fn(&T) -> f64) {
    if slot.as_ref().is_none_or(|b| cost(&r) < cost(b)) {
        *slot = Some(r);
    }
}

/// Run `f` under a span named `name` covering `count` ops.
fn timed<T>(spans: &mut Spans, name: &str, count: u64, f: impl FnOnce() -> T) -> T {
    spans.open(name);
    let r = f();
    spans.close(count);
    r
}

/// Best-of-rounds replay costs.
#[derive(Default)]
struct Replays {
    flow: Option<FlowReplay>,
    tcp_ns: Option<f64>,
    des: Option<(f64, u64)>,
    sched: Option<(f64, u64, f64)>,
    bp: Option<(f64, u64)>,
    load_ns: Option<f64>,
    ecn_ns: Option<f64>,
    ring_pool: Option<(f64, f64)>,
    platform: Option<PlatformReplay>,
    io_ns: Option<f64>,
    obs_ns: Option<f64>,
    timer: Option<(f64, f64)>,
}

/// Layer replays, one per `replay_step` call.
const LAYER_REPLAYS: usize = 12;

/// Run the `step`th layer replay in round-robin order and keep it if it is
/// that layer's fastest so far. Replays are deterministic, so only the
/// host time varies between rounds.
fn replay_step(step: usize, spec: &Spec, c: &Counts, spans: &mut Spans, r: &mut Replays) {
    match step % LAYER_REPLAYS {
        0 => {
            let x = timed(spans, "replay.pkt.flow", c.classified, || {
                replay_flow(spec, c)
            });
            keep(&mut r.flow, x, |f| {
                f.ns_per_classify + f.traffic_ns_per_frame
            });
        }
        1 => {
            let x = timed(spans, "replay.traffic.tcp", c.tcp_frames, || {
                replay_tcp(spec, c.tcp_frames)
            });
            keep(&mut r.tcp_ns, x, |&ns| ns);
        }
        2 => {
            let x = timed(spans, "replay.des", c.events, || replay_des(spec, c));
            keep(&mut r.des, x, |d| d.0);
        }
        3 => {
            let x = timed(spans, "replay.sched", c.switches, || replay_sched(spec, c));
            keep(&mut r.sched, x, |d| d.0 + d.2);
        }
        4 => {
            let x = timed(spans, "replay.core.bp", c.bp_evals, || replay_bp(spec, c));
            keep(&mut r.bp, x, |d| d.0);
        }
        5 => {
            let x = timed(spans, "replay.core.load", c.monitor_ticks, || {
                replay_load(spec, c)
            });
            keep(&mut r.load_ns, x, |&ns| ns);
        }
        6 => {
            let ops = c.monitor_ticks * spec.nfs.len() as u64;
            let x = timed(spans, "replay.core.ecn", ops, || replay_ecn(spec));
            keep(&mut r.ecn_ns, x, |&ns| ns);
        }
        7 => {
            let ops = c.ring_ops + c.mempool_ops;
            let x = timed(spans, "replay.pkt.ring_mempool", ops, || {
                replay_ring_mempool(spec)
            });
            keep(&mut r.ring_pool, x, |d| d.0 + d.1);
        }
        8 => {
            let x = timed(spans, "replay.platform", c.rx_frames, || {
                replay_platform(spec, c)
            });
            keep(&mut r.platform, x, |p| {
                p.rx_ns_per_frame + p.batch_ns_per_pkt + p.tx_ns_per_pkt
            });
        }
        9 => {
            let x = timed(spans, "replay.io", c.io_writes, || replay_io(spec));
            keep(&mut r.io_ns, x, |&ns| ns);
        }
        10 => {
            let x = timed(spans, "replay.obs", c.obs_samples, || replay_obs(spec));
            keep(&mut r.obs_ns, x, |&ns| ns);
        }
        _ => {
            let x = timed(
                spans,
                "replay.trace.wrapper",
                c.apps_pkts,
                timer_overhead_ns,
            );
            keep(&mut r.timer, x, |d| d.1);
        }
    }
}

/// The traced invocation. For `budget_s` host seconds (and at least
/// `REPLAY_ROUNDS` rounds of replays) it repeats: an untraced run, a
/// traced run, and the next layer replay. Interleaving lets every
/// measurement see the same mix of machine conditions; each keeps its
/// fastest sample, as `sim_mfps` does. Counts come from the first traced
/// run (they repeat exactly), host time from the fastest. Prints the
/// replay checks and the attribution table and writes the spans to
/// `.simbench/`.
pub fn traced(spec: &Spec, budget_s: f64, gate: &mut Gate) -> Traced {
    let mut spans = Spans::new();
    let start = Instant::now();
    let mut untraced_mfps = Vec::new();
    let mut traced_mfps = Vec::new();
    let mut counted: Option<Counts> = None;
    let mut fastest: Option<(f64, Vec<AppTally>)> = None;
    let mut replays = Replays::default();
    let mut step = 0;
    let mut attempts = 0;
    while start.elapsed().as_secs_f64() < budget_s || step < REPLAY_ROUNDS * LAYER_REPLAYS {
        attempts += 1;
        let plain = catch_unwind(AssertUnwindSafe(|| run_once(spec, None, None).0));
        if let Some(o) = gate.judge(plain) {
            untraced_mfps.push(o.sim_mfps());
        }
        let tallies: Vec<AppTally> = spec.nfs.iter().map(|_| AppTally::default()).collect();
        spans.open("traced_run");
        let run = catch_unwind(AssertUnwindSafe(|| {
            run_once(spec, Some(&tallies), Some(&mut spans))
        }));
        let t_check = Instant::now();
        match run {
            Ok((o, mut built, report)) => {
                gate.judge(Ok(o.clone()));
                traced_mfps.push(o.sim_mfps());
                if counted.is_none() {
                    crate::print_headline(spec.workload, spec.seed, &o);
                    counted = Some(counts(spec, &o, &mut built, &report));
                }
                if fastest.as_ref().is_none_or(|(s, _)| o.run_s < *s) {
                    fastest = Some((o.run_s, tallies));
                }
            }
            Err(e) => {
                gate.judge(Err(e));
            }
        }
        spans.record("check", t_check, Instant::now(), 1);
        spans.close(1);
        match &counted {
            Some(c) => {
                replay_step(step, spec, c, &mut spans, &mut replays);
                step += 1;
            }
            None if attempts >= 2 => break, // every traced run panics
            None => {}
        }
    }
    let (Some(mut c), Some((run_s, tallies))) = (counted, fastest) else {
        return Traced {
            metrics: Vec::new(),
            e2e_mfps: f64::NAN,
            replay_ok: false,
        };
    };
    c.run_ns = run_s * 1e9;
    let mut apps_timed_ns = 0.0;
    for (d, t) in spec.nfs.iter().zip(&tallies) {
        if d.app != crate::workload::App::Forward {
            c.apps_pkts += t.calls();
            apps_timed_ns += t.calls() as f64 * t.mean_timed_ns();
        }
    }
    let rp = replays;
    let flow = rp.flow.expect("every layer replayed");
    let tcp_ns = rp.tcp_ns.expect("every layer replayed");
    let (des_ns, des_pops) = rp.des.expect("every layer replayed");
    let (sched_ns, sched_ops, cg_ns) = rp.sched.expect("every layer replayed");
    let (bp_ns, bp_ops) = rp.bp.expect("every layer replayed");
    let load_ns = rp.load_ns.expect("every layer replayed");
    let ecn_ns = rp.ecn_ns.expect("every layer replayed");
    let (ring_ns, pool_ns) = rp.ring_pool.expect("every layer replayed");
    let plat = rp.platform.expect("every layer replayed");
    let io_ns = rp.io_ns.expect("every layer replayed");
    let obs_ns = rp.obs_ns.expect("every layer replayed");
    let (timer_bias, timer_cost) = rp.timer.expect("every layer replayed");

    let mut ok = true;
    let mut check = |name: &str, run: u64, replay: u64| {
        let pass = run == replay;
        ok &= pass;
        println!(
            "replay-check {:<22} run={:<12} replay={:<12} {}",
            name,
            run,
            replay,
            if pass { "ok" } else { "MISMATCH" }
        );
    };
    check("pkt.flow.classified", c.classified, flow.classified);
    // Exact stream replay needs every frame classified in emission order:
    // no NIC overflow and no closed-loop (TCP) traffic.
    if c.nic_overflow == 0 && spec.tcp.is_empty() {
        check("pkt.flow.installs", c.flow.installs, flow.stats.installs);
        check("pkt.flow.evicted", c.flows_evicted, flow.evicted);
        check("pkt.flow.memo_hits", c.flow.memo_hits, flow.stats.memo_hits);
        check(
            "pkt.flow.wildcard_hits",
            c.flow.wildcard_hits,
            flow.stats.wildcard_hits,
        );
        check(
            "pkt.flow.exact_hits",
            c.flow.exact_hits,
            flow.stats.exact_hits,
        );
    }
    check("des.events", c.events, des_pops);
    check("sched.switches", c.switches, sched_ops);
    check("core.bp.evals", c.bp_evals, bp_ops);

    // Each layer's own time in the run, ns.
    let r = c.run_ns.max(1.0);
    let source_frames = c.frames - c.tcp_frames;
    let traffic_ns = (flow.traffic_ns_per_frame * source_frames as f64
        + tcp_ns * c.tcp_frames as f64)
        / c.frames.max(1) as f64;
    let flow_t = c.classified as f64 * flow.ns_per_classify;
    let ring_t = c.ring_ops as f64 * ring_ns;
    let pool_t = c.mempool_ops as f64 * pool_ns;
    // The platform's per-frame path minus the classification, ring and
    // mempool work nested in it (each attributed to its own layer).
    let plat_incl = c.rx_frames as f64 * (plat.rx_ns_per_frame - plat.rx_classify_ns_per_frame)
        + c.nf_pkts as f64 * plat.batch_ns_per_pkt
        + c.tx_pkts as f64 * plat.tx_ns_per_pkt;
    let plat_t = (plat_incl - ring_t - pool_t).max(0.0);
    let des_t = c.events as f64 * des_ns;
    let sched_t = c.switches as f64 * sched_ns + c.cgroup_writes as f64 * cg_ns;
    let ecn_ops = c.monitor_ticks * spec.nfs.len() as u64;
    let core_ops = c.bp_evals + c.monitor_ticks + ecn_ops;
    let core_t =
        c.bp_evals as f64 * bp_ns + c.monitor_ticks as f64 * load_ns + ecn_ops as f64 * ecn_ns;
    let traffic_t = c.frames as f64 * traffic_ns;
    let io_ns = if c.io_writes > 0 { io_ns } else { 0.0 };
    let io_t = c.io_writes as f64 * io_ns;
    let apps_ns = if c.apps_pkts > 0 {
        (apps_timed_ns / c.apps_pkts as f64 - timer_bias).max(0.0)
    } else {
        0.0
    };
    let apps_t = c.apps_pkts as f64 * apps_ns;
    let obs_ns = if c.obs_samples > 0 { obs_ns } else { 0.0 };
    let obs_t = c.obs_samples as f64 * obs_ns;
    let wrap_t = c.apps_pkts as f64 * timer_cost;
    let rows = [
        ("des", c.events, des_ns, des_t),
        ("pkt.flow", c.classified, flow.ns_per_classify, flow_t),
        ("pkt.ring", c.ring_ops, ring_ns, ring_t),
        ("pkt.mempool", c.mempool_ops, pool_ns, pool_t),
        (
            "platform",
            c.rx_frames,
            plat_t / c.rx_frames.max(1) as f64,
            plat_t,
        ),
        (
            "sched",
            c.switches,
            sched_t / c.switches.max(1) as f64,
            sched_t,
        ),
        ("core", core_ops, core_t / core_ops.max(1) as f64, core_t),
        ("traffic", c.frames, traffic_ns, traffic_t),
        ("io", c.io_writes, io_ns, io_t),
        ("apps", c.apps_pkts, apps_ns, apps_t),
        ("obs", c.obs_samples, obs_ns, obs_t),
        // The app wrappers themselves: time only the traced run spends.
        ("trace", c.apps_pkts, timer_cost, wrap_t),
    ];
    let attributed: f64 = rows.iter().map(|row| row.3).sum();
    let residual = 1.0 - attributed / r;
    println!(
        "attribution {} seed={} run={:.3} ms ({} frames, {} events; fastest of {} traced runs, {} replay rounds)",
        spec.workload.name(),
        spec.seed,
        r / 1e6,
        c.frames,
        c.events,
        traced_mfps.len(),
        step / LAYER_REPLAYS
    );
    println!(
        "  {:<12} {:>12} {:>10} {:>8} {:>10}",
        "layer", "count", "ns/op", "busy", "self_ms"
    );
    for (name, count, ns, t) in rows {
        println!(
            "  {:<12} {:>12} {:>10.2} {:>8.4} {:>10.3}",
            name,
            count,
            ns,
            t / r,
            t / 1e6
        );
    }
    println!(
        "  {:<12} {:>12} {:>10} {:>8.4} {:>10.3}",
        "residual",
        "",
        "",
        residual,
        (r - attributed) / 1e6
    );
    write_spans(spec, &spans);

    let overhead = 1.0 - crate::best(&traced_mfps) / crate::best(&untraced_mfps);
    let frac = |x: u64, of: u64| x as f64 / of.max(1) as f64;
    let lookups = c.classified - c.flow.memo_hits + c.flow.installs;
    let metrics = vec![
        ("des.events", c.events as f64, "count"),
        (
            "des.events_per_kframe",
            1e3 * frac(c.events, c.frames),
            "1/kframe",
        ),
        ("des.ns_per_op", des_ns, "ns"),
        ("des.busy_frac", des_t / r, "ratio"),
        ("des.coalesced_frac", frac(c.coalesced, c.events), "ratio"),
        ("des.skipped_frac", frac(c.skipped, c.events), "ratio"),
        ("des.stale_frac", frac(c.stale, c.events), "ratio"),
        ("des.max_len", c.max_len as f64, "count"),
        ("pkt.flow.classified", c.classified as f64, "count"),
        (
            "pkt.flow.memo_frac",
            frac(c.flow.memo_hits, c.classified),
            "ratio",
        ),
        (
            "pkt.flow.wildcard_frac",
            frac(c.flow.wildcard_hits, c.classified),
            "ratio",
        ),
        ("pkt.flow.installs", c.flow.installs as f64, "count"),
        ("pkt.flow.evictions", c.flows_evicted as f64, "count"),
        (
            "pkt.flow.avg_probe",
            frac(c.flow.probe_steps, lookups),
            "steps",
        ),
        ("pkt.flow.max_probe", c.flow.max_probe as f64, "steps"),
        ("pkt.flow.rehashes", c.flow.rehashes as f64, "count"),
        ("pkt.flow.ns_per_classify", flow.ns_per_classify, "ns"),
        ("pkt.flow.busy_frac", flow_t / r, "ratio"),
        ("pkt.ring.ops", c.ring_ops as f64, "count"),
        ("pkt.ring.ns_per_op", ring_ns, "ns"),
        ("pkt.ring.busy_frac", ring_t / r, "ratio"),
        ("pkt.mempool.ops", c.mempool_ops as f64, "count"),
        ("pkt.mempool.ns_per_op", pool_ns, "ns"),
        ("pkt.mempool.busy_frac", pool_t / r, "ratio"),
        ("pkt.mempool.high_watermark", c.mempool_hwm as f64, "count"),
        ("pkt.nic.overflow", c.nic_overflow as f64, "count"),
        ("platform.rx_ns_per_frame", plat.rx_ns_per_frame, "ns"),
        (
            "platform.rx_classify_ns_per_frame",
            plat.rx_classify_ns_per_frame,
            "ns",
        ),
        ("platform.batch_ns_per_pkt", plat.batch_ns_per_pkt, "ns"),
        ("platform.tx_ns_per_pkt", plat.tx_ns_per_pkt, "ns"),
        ("platform.busy_frac", plat_t / r, "ratio"),
        ("platform.nf_pkts", c.nf_pkts as f64, "count"),
        (
            "platform.entry_shed_frac",
            frac(c.entry_shed, c.classified),
            "ratio",
        ),
        ("platform.wasted_frac", frac(c.wasted, c.nf_pkts), "ratio"),
        ("sched.switches", c.switches as f64, "count"),
        ("sched.ns_per_switch", sched_ns, "ns"),
        ("sched.busy_frac", sched_t / r, "ratio"),
        ("sched.cgroup_writes", c.cgroup_writes as f64, "count"),
        ("core.bp.evals", c.bp_evals as f64, "count"),
        ("core.bp.throttles", c.throttles as f64, "count"),
        ("core.bp.ns_per_eval", bp_ns, "ns"),
        ("core.load.ns_per_tick", load_ns, "ns"),
        ("core.ecn.marks", c.ecn_marks as f64, "count"),
        ("core.ecn.ns_per_op", ecn_ns, "ns"),
        ("core.busy_frac", core_t / r, "ratio"),
        ("traffic.frames", c.frames as f64, "count"),
        ("traffic.ns_per_frame", traffic_ns, "ns"),
        ("traffic.busy_frac", traffic_t / r, "ratio"),
        ("io.writes", c.io_writes as f64, "count"),
        ("io.ns_per_write", io_ns, "ns"),
        ("io.busy_frac", io_t / r, "ratio"),
        ("apps.pkts", c.apps_pkts as f64, "count"),
        ("apps.ns_per_pkt", apps_ns, "ns"),
        ("apps.busy_frac", apps_t / r, "ratio"),
        ("obs.samples", c.obs_samples as f64, "count"),
        ("obs.ns_per_sample", obs_ns, "ns"),
        ("obs.busy_frac", obs_t / r, "ratio"),
        ("attrib.host_ns_per_event", r / c.events.max(1) as f64, "ns"),
        ("attrib.host_ns_per_frame", r / c.frames.max(1) as f64, "ns"),
        ("attrib.residual_frac", residual, "ratio"),
        ("trace.wrapper_frac", wrap_t / r, "ratio"),
        ("trace.overhead_frac", overhead, "ratio"),
    ];
    Traced {
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect(),
        e2e_mfps: crate::best(&untraced_mfps),
        replay_ok: ok,
    }
}

fn write_spans(spec: &Spec, spans: &Spans) {
    let dir = std::path::Path::new(".simbench");
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        spec.workload.name(),
        spec.seed
    ));
    let written = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("simbench: could not write {}: {e}", path.display()),
    }
}
