//! Seeded workload definitions.
//!
//! A [`Spec`] is everything a workload needs, drawn from `--seed`: the
//! topology (NFs, chains), the traffic (rates, tuples, on/off phases) and
//! the run length. The simulator only ever sees the generated topology and
//! traffic. The same spec also rebuilds the traffic sources and the
//! explicit flow installs for the layer replays in `layers.rs`, which is
//! what lets a replay reproduce the run's own op stream.

use nfv_apps::{Firewall, FlowMonitor, Match, Nat, Prefix, Rule, Verdict};
use nfv_pkt::line_rate_pps;
use nfvnice::{
    tenant, CbrFlow, Duration, FiveTuple, FlowAging, FlowId, IoMode, NfIoSpec, NfSpec,
    NfvniceConfig, PacketHandler, Policy, Proto, SimConfig, SimRng, SimTime, Simulation,
    SweepSource, TcpSource, TenantSpec, TuplePattern, TENANT_SPAN,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// The three workloads. Each stresses a different set of layers; see
/// `README.md` for why each exists and which numbers it should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 7 chain at 10 G line rate on one core: the per-frame fast path
    /// under backpressure.
    ChainOverload,
    /// Wildcard-learned tenant sweeps with aging plus a large pinned
    /// population: the flow table does most of the work.
    FlowChurn,
    /// Fig 13 isolation shape on three cores with app handlers, ECN TCP,
    /// storage I/O and metrics: the layers the other two bypass.
    TenantMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ChainOverload,
        Workload::FlowChurn,
        Workload::TenantMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChainOverload => "chain_overload",
            Workload::FlowChurn => "flow_churn",
            Workload::TenantMix => "tenant_mix",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Packet handler an NF runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// The platform's stock forward-everything bridge (its dispatch is
    /// skipped by the platform, so it is not an `apps` op).
    Forward,
    Firewall,
    Nat,
    Monitor,
}

#[derive(Debug, Clone)]
pub struct NfDef {
    pub name: &'static str,
    pub core: usize,
    pub cycles: u64,
    pub app: App,
    pub io: Option<NfIoSpec>,
}

/// A constant-rate UDP flow, installed pinned by `Simulation::add_udp`.
#[derive(Debug, Clone)]
pub struct UdpDef {
    pub chain: usize,
    pub rate_pps: f64,
    pub start: SimTime,
    pub stop: SimTime,
    /// Packets of this flow trigger storage writes at I/O NFs.
    pub io: bool,
}

/// A tuple sweep. With `pinned` set, every tuple of the sweep's space is
/// installed (pinned) at set-up; otherwise a tenant wildcard steers the
/// sweep and its flows are learned and aged.
#[derive(Debug, Clone)]
pub struct SweepDef {
    pub tenant: u32,
    pub space: u32,
    pub rate_pps: f64,
    pub start: SimTime,
    pub chain: usize,
    pub pinned: bool,
}

#[derive(Debug, Clone)]
pub struct TcpDef {
    pub chain: usize,
    pub rtt: Duration,
    pub max_cwnd: f64,
}

/// Frame size of every workload's traffic (the paper's 64 B worst case;
/// TCP segments use `TCP_FRAME`).
pub const FRAME: u32 = 64;
pub const TCP_FRAME: u32 = 1500;

#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub cores: usize,
    pub policy: Policy,
    /// Simulated time per run.
    pub duration: Duration,
    pub metrics: bool,
    pub flow_detail: bool,
    pub aging: FlowAging,
    pub nfs: Vec<NfDef>,
    pub chains: Vec<Vec<usize>>,
    pub udp: Vec<UdpDef>,
    pub sweeps: Vec<SweepDef>,
    /// Wildcard rules ranked above the tenant rules that match none of the
    /// traffic: (pattern, chain index).
    pub acl: Vec<(TuplePattern, usize)>,
    pub tcp: Vec<TcpDef>,
}

/// Calls of one NF's app handler and their sampled host time, shared
/// between the traced run's wrapper and the benchmark. One call in
/// `SAMPLE_EVERY` is timed: a clock read costs several times a cheap
/// handler, so timing every call would mostly measure the clock.
#[derive(Default)]
pub struct Tally {
    calls: Cell<u64>,
    timed: Cell<u64>,
    timed_ns: Cell<u64>,
}

pub type AppTally = Rc<Tally>;

const SAMPLE_EVERY: u64 = 8;

impl Tally {
    /// Count one call of `f`, timing it if it is a sampled one.
    pub fn measure<T>(&self, f: impl FnOnce() -> T) -> T {
        let n = self.calls.get();
        self.calls.set(n + 1);
        if !n.is_multiple_of(SAMPLE_EVERY) {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.timed.set(self.timed.get() + 1);
        self.timed_ns.set(self.timed_ns.get() + ns);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Mean measured ns of a timed call (clock bias included).
    pub fn mean_timed_ns(&self) -> f64 {
        self.timed_ns.get() as f64 / self.timed.get().max(1) as f64
    }
}

/// Wraps an app handler and tallies its calls and sampled host time. Only
/// the traced run installs it; untraced runs hand the simulator the bare
/// handler.
struct Timed<H> {
    inner: H,
    tally: AppTally,
}

impl<H: PacketHandler> PacketHandler for Timed<H> {
    fn handle(&mut self, pkt: &mut nfvnice::Packet, now: SimTime) -> nfv_platform::NfAction {
        let inner = &mut self.inner;
        self.tally.measure(|| inner.handle(pkt, now))
    }
}

fn handler(app: App, tally: Option<&AppTally>) -> Option<Box<dyn PacketHandler>> {
    fn boxed<H: PacketHandler + 'static>(h: H, tally: Option<&AppTally>) -> Box<dyn PacketHandler> {
        match tally {
            Some(t) => Box::new(Timed {
                inner: h,
                tally: Rc::clone(t),
            }),
            None => Box::new(h),
        }
    }
    Some(match app {
        App::Forward => return None,
        // A short ACL evaluated first-match: the deny rules never match
        // the workload's tuples, so every packet walks the whole list.
        App::Firewall => boxed(
            Firewall::new(
                vec![
                    Rule {
                        dst_port: Match::Is(23),
                        ..Rule::any(Verdict::Deny)
                    },
                    Rule {
                        src: Prefix::new(0xc0a8_0000, 16),
                        ..Rule::any(Verdict::Deny)
                    },
                    Rule {
                        proto: Match::Is(Proto::Tcp),
                        dst_port: Match::Is(22),
                        ..Rule::any(Verdict::Deny)
                    },
                ],
                Verdict::Allow,
            ),
            tally,
        ),
        App::Nat => boxed(Nat::new(0xcb00_7101), tally),
        App::Monitor => boxed(FlowMonitor::new(), tally),
    })
}

/// Split `total` into `n` shares drawn from the seed: each weight is
/// uniform in [0.5, 1.5), so no share is tiny and the sum is exact.
fn split(rng: &mut SimRng, n: usize, total: f64) -> Vec<f64> {
    let w: Vec<f64> = (0..n).map(|_| 0.5 + rng.unit()).collect();
    let sum: f64 = w.iter().sum();
    w.iter().map(|x| total * x / sum).collect()
}

/// A start offset in `[0, max_us)` µs, on the 20 µs traffic-poll grid.
fn phase(rng: &mut SimRng, max_us: u64) -> SimTime {
    SimTime::from_nanos(rng.below(max_us / 20) * 20_000)
}

fn fwd(name: &'static str, core: usize, cycles: u64) -> NfDef {
    NfDef {
        name,
        core,
        cycles,
        app: App::Forward,
        io: None,
    }
}

impl Spec {
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x5349_4d42_454e_4348);
        let base = Spec {
            workload,
            seed,
            cores: 1,
            policy: Policy::CfsNormal,
            duration: Duration::from_millis(100),
            metrics: false,
            flow_detail: true,
            aging: FlowAging::default(),
            nfs: Vec::new(),
            chains: Vec::new(),
            udp: Vec::new(),
            sweeps: Vec::new(),
            acl: Vec::new(),
            tcp: Vec::new(),
        };
        match workload {
            Workload::ChainOverload => {
                // Four flows whose seeded rates sum to 64 B line rate at
                // 10 Gbit/s (14.88 Mpps), offered to the Low/Med/High chain.
                let udp = split(&mut rng, 4, line_rate_pps(10.0, FRAME))
                    .into_iter()
                    .map(|rate_pps| UdpDef {
                        chain: 0,
                        rate_pps,
                        start: phase(&mut rng, 200),
                        stop: SimTime::MAX,
                        io: false,
                    })
                    .collect();
                Spec {
                    duration: Duration::from_millis(60),
                    nfs: vec![fwd("low", 0, 120), fwd("med", 0, 270), fwd("high", 0, 550)],
                    chains: vec![vec![0, 1, 2]],
                    udp,
                    ..base
                }
            }
            Workload::FlowChurn => {
                // Three churn tenants sweep their whole 2^20-tuple slices
                // (every visit is a fresh wildcard install; aging evicts
                // it ~2 epochs later) beside a pinned tenant whose 2^17
                // flows are installed at set-up and swept as exact hits.
                // 4 Mpps in all over four forwarding NFs on one core,
                // well below capacity.
                let churn = split(&mut rng, 3, 3.0e6);
                let mut sweeps: Vec<SweepDef> = churn
                    .into_iter()
                    .enumerate()
                    .map(|(i, rate_pps)| SweepDef {
                        tenant: 1 + i as u32,
                        space: TENANT_SPAN,
                        rate_pps,
                        start: phase(&mut rng, 2_000),
                        chain: i,
                        pinned: false,
                    })
                    .collect();
                sweeps.push(SweepDef {
                    tenant: 4,
                    space: 1 << 17,
                    rate_pps: 1.0e6,
                    start: phase(&mut rng, 2_000),
                    chain: 3,
                    pinned: true,
                });
                // A rule table ahead of the tenant rules: eleven idle
                // tenants' prefixes and sixteen seeded service ports (the
                // traffic's destination port is 9), so every wildcard
                // classification walks 27 rules before its own.
                let mut acl: Vec<(TuplePattern, usize)> = (5..16)
                    .map(|t| (tenant_pattern(t), t as usize % 4))
                    .collect();
                for _ in 0..16 {
                    let port = 10 + rng.below(60_000) as u16;
                    acl.push((TuplePattern::any().dst_port(port), rng.below(4) as usize));
                }
                Spec {
                    policy: Policy::CfsBatch,
                    duration: Duration::from_millis(40),
                    flow_detail: false,
                    aging: FlowAging {
                        idle_epochs: 2,
                        epoch_ticks: 4,
                    },
                    nfs: vec![
                        fwd("t1", 0, 120),
                        fwd("t2", 0, 120),
                        fwd("t3", 0, 120),
                        fwd("pinned", 0, 120),
                    ],
                    chains: vec![vec![0], vec![1], vec![2], vec![3]],
                    sweeps,
                    acl,
                    ..base
                }
            }
            Workload::TenantMix => {
                // NF ids: 0 fw, 1 nat, 2 mon (core 0); 3 heavy (core 1);
                // 4 logger (core 2, async storage writes).
                let nfs = vec![
                    NfDef {
                        app: App::Firewall,
                        ..fwd("fw", 0, 120)
                    },
                    NfDef {
                        app: App::Nat,
                        ..fwd("nat", 0, 270)
                    },
                    NfDef {
                        app: App::Monitor,
                        ..fwd("mon", 0, 200)
                    },
                    fwd("heavy", 1, 4753),
                    NfDef {
                        io: Some(NfIoSpec {
                            bytes_per_packet: 256,
                            mode: IoMode::Async { buf_size: 1 << 16 },
                        }),
                        ..fwd("logger", 2, 300)
                    },
                ];
                // Chain 0 carries the ECN TCP flow, chain 1 the logged
                // flow; each UDP tenant gets a chain of its own behind the
                // heavy NF, alternating a plain and an NF-revisiting path.
                let mut chains = vec![vec![0, 1], vec![0, 4]];
                let d_us = 100_000u64;
                let mut udp = vec![UdpDef {
                    chain: 1,
                    rate_pps: 150_000.0 + rng.below(50) as f64 * 1_000.0,
                    start: phase(&mut rng, 1_000),
                    stop: SimTime::MAX,
                    io: true,
                }];
                for (i, rate_pps) in split(&mut rng, 4, 2.4e6).into_iter().enumerate() {
                    chains.push(if i % 2 == 0 {
                        vec![0, 1, 3]
                    } else {
                        vec![0, 3, 0, 2]
                    });
                    // On/off: each tenant is on for a seeded 40–60 % of
                    // the run, starting in the first quarter.
                    let on = phase(&mut rng, d_us / 4);
                    let len_us = d_us * (40 + rng.below(21)) / 100;
                    udp.push(UdpDef {
                        chain: 2 + i,
                        rate_pps,
                        start: on,
                        stop: on + Duration::from_micros(len_us),
                        io: false,
                    });
                }
                Spec {
                    cores: 3,
                    policy: Policy::CfsBatch,
                    duration: Duration::from_micros(d_us),
                    metrics: true,
                    nfs,
                    chains,
                    udp,
                    tcp: vec![TcpDef {
                        chain: 0,
                        rtt: Duration::from_micros(100),
                        max_cwnd: 33.0,
                    }],
                    ..base
                }
            }
        }
    }

    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.platform.nf_cores = self.cores;
        cfg.platform.policy = self.policy;
        cfg.platform.flow_detail = self.flow_detail;
        cfg.platform.flow_aging = self.aging;
        cfg.nfvnice = NfvniceConfig::full();
        cfg.obs.metrics = self.metrics;
        cfg.seed = self.seed;
        cfg
    }

    /// Build the simulation. `tallies` (one per NF) wraps each app handler
    /// in a timing wrapper; `apps` = false deploys every NF with the stock
    /// forwarder and marks no I/O flow (the platform replay uses that to
    /// keep app and storage work out of its per-frame figures).
    pub fn build(&self, tallies: Option<&[AppTally]>, apps: bool) -> Built {
        let mut sim = Simulation::new(self.sim_config());
        let nf_ids: Vec<_> = self
            .nfs
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut spec = NfSpec::new(d.name, d.core, d.cycles);
                if let Some(io) = d.io {
                    spec = spec.with_io(io);
                }
                let h = if apps {
                    handler(d.app, tallies.map(|t| &t[i]))
                } else {
                    None
                };
                match h {
                    Some(h) => sim.add_nf_with_handler(spec, h),
                    None => sim.add_nf(spec),
                }
            })
            .collect();
        let chains: Vec<_> = self
            .chains
            .iter()
            .map(|path| {
                let path: Vec<_> = path.iter().map(|&i| nf_ids[i]).collect();
                sim.add_chain(&path)
            })
            .collect();
        if let Some(p) = self.sweeps.iter().find(|s| s.pinned) {
            for tuple in self.pinned_tuples() {
                sim.platform.install_flow(tuple, chains[p.chain]);
            }
        }
        for (pattern, chain, priority) in self.wildcards() {
            sim.add_wildcard(pattern, chains[chain], priority);
        }
        for source in self.sweep_sources() {
            sim.add_sweep(source);
        }
        let mut flows = Vec::new();
        for u in &self.udp {
            let (start, stop) = (u.start, u.stop);
            let f = sim.add_udp_with(chains[u.chain], u.rate_pps, FRAME, |f| {
                f.window(start, stop)
            });
            if apps && u.io {
                sim.mark_io_flow(f);
            }
            flows.push(f);
        }
        let mut tcp_flows = Vec::new();
        for t in &self.tcp {
            let cwnd = t.max_cwnd;
            let f = sim.add_tcp_with(chains[t.chain], TCP_FRAME, t.rtt, |s| {
                s.with_ecn().with_max_cwnd(cwnd)
            });
            tcp_flows.push(f);
        }
        Built { sim, tcp_flows }
    }

    /// Tuples of the pinned population, in install order.
    pub fn pinned_tuples(&self) -> impl Iterator<Item = FiveTuple> + '_ {
        self.sweeps.iter().filter(|s| s.pinned).flat_map(|s| {
            let base = s.tenant * TENANT_SPAN;
            (0..s.space).map(move |i| FiveTuple::synthetic(base + i, Proto::Udp))
        })
    }

    /// Fresh copies of the sweep sources, in the order the engine emits
    /// them.
    pub fn sweep_sources(&self) -> Vec<SweepSource> {
        self.sweeps
            .iter()
            .map(|s| {
                tenant(TenantSpec {
                    index: s.tenant,
                    flows: s.space,
                    rate_pps: s.rate_pps,
                    frame_size: FRAME,
                })
                .sweep
                .window(s.start, SimTime::MAX)
            })
            .collect()
    }

    /// Fresh copies of the UDP sources with the tuples `Simulation`
    /// assigns them (synthetic tuples numbered from 1 in add order).
    pub fn udp_sources(&self) -> Vec<CbrFlow> {
        self.udp
            .iter()
            .enumerate()
            .map(|(i, u)| {
                CbrFlow::new(
                    FiveTuple::synthetic(i as u32 + 1, Proto::Udp),
                    FRAME,
                    u.rate_pps,
                )
                .window(u.start, u.stop)
            })
            .collect()
    }

    /// Fresh copies of the TCP sources (tuples numbered after the UDP
    /// flows').
    pub fn tcp_sources(&self) -> Vec<TcpSource> {
        self.tcp
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let n = (self.udp.len() + i) as u32 + 1;
                TcpSource::new(FiveTuple::synthetic(n, Proto::Tcp), TCP_FRAME, t.rtt)
                    .with_ecn()
                    .with_max_cwnd(t.max_cwnd)
            })
            .collect()
    }

    /// Wildcard rules in install order: (pattern, chain index, priority).
    /// The rule table ranks above the unpinned sweeps' tenant rules.
    pub fn wildcards(&self) -> Vec<(TuplePattern, usize, i32)> {
        let acl = self.acl.iter().map(|&(p, c)| (p, c, 1));
        let tenants = self
            .sweeps
            .iter()
            .filter(|s| !s.pinned)
            .map(|s| (tenant_pattern(s.tenant), s.chain, 0));
        acl.chain(tenants).collect()
    }
}

/// The wildcard pattern covering tenant `index`'s slice of the tuple space.
fn tenant_pattern(index: u32) -> TuplePattern {
    tenant(TenantSpec {
        index,
        flows: 1,
        rate_pps: 1.0,
        frame_size: FRAME,
    })
    .pattern
}

/// A built simulation plus the ids the benchmark reads back after the run.
pub struct Built {
    pub sim: Simulation,
    pub tcp_flows: Vec<FlowId>,
}
