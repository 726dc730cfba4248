//! Edge-case integration tests: resource exhaustion, unclassified traffic,
//! wildcard steering, and a full NF-application chain under NFVnice.

use nfvnice::{Duration, NfSpec, NfvniceConfig, Policy, SimConfig, Simulation};

fn cfg(variant: NfvniceConfig) -> SimConfig {
    let mut c = SimConfig::default();
    c.platform.nf_cores = 1;
    c.platform.policy = Policy::CfsBatch;
    c.nfvnice = variant;
    c
}

/// A tiny mempool exhausts under overload; the system degrades gracefully
/// (drops counted, no panic, accounting intact) and keeps delivering.
#[test]
fn mempool_exhaustion_degrades_gracefully() {
    let mut c = cfg(NfvniceConfig::off());
    c.platform.mempool_capacity = 256; // far below ring capacity
    let mut sim = Simulation::new(c);
    let nf = sim.add_nf(NfSpec::new("slow", 0, 5_000));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 5_000_000.0, 64);
    let r = sim.run(Duration::from_millis(200));
    assert!(sim.platform.stats.mempool_fail > 0, "pool should exhaust");
    assert!(r.flows[0].delivered > 0, "still makes progress");
    assert!(sim.platform.packets_accounted());
    assert!(sim.platform.mempool.high_watermark() <= 256);
}

/// Traffic with no flow rule is dropped at classification and counted.
#[test]
fn unclassified_traffic_is_counted_not_crashed() {
    use nfv_pkt::{Ecn, FiveTuple, Proto, WireFrame};
    let mut sim = Simulation::new(cfg(NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("nf", 0, 100));
    let chain = sim.add_chain(&[nf]);
    sim.add_udp(chain, 10_000.0, 64);
    // inject frames for a tuple nobody installed
    for seq in 0..50 {
        sim.platform.nic.deliver(WireFrame {
            tuple: FiveTuple::synthetic(9999, Proto::Udp),
            size: 64,
            seq,
            cost_class: 0,
            ecn: Ecn::NotEct,
            arrival: nfvnice::SimTime::ZERO,
        });
    }
    let r = sim.run(Duration::from_millis(100));
    assert_eq!(sim.platform.stats.unclassified, 50);
    assert!(r.flows[0].delivered > 0, "installed flow unaffected");
}

/// Wildcard rules steer unknown flows end-to-end: a /8 rule admits traffic
/// the harness never installed exactly, and the cached flow delivers.
#[test]
fn wildcard_rules_steer_unknown_flows_end_to_end() {
    use nfv_pkt::{Ecn, FiveTuple, IpPrefix, Proto, TuplePattern, WireFrame};
    let mut sim = Simulation::new(cfg(NfvniceConfig::off()));
    let nf = sim.add_nf(NfSpec::new("bridge", 0, 100));
    let chain = sim.add_chain(&[nf]);
    sim.platform.flow_table.install_wildcard(
        TuplePattern::any().from_src(IpPrefix::new(0x0a00_0000, 8)),
        chain,
        0,
    );
    // no exact rule for this tuple — only the wildcard matches
    for seq in 0..100u64 {
        sim.platform.nic.deliver(WireFrame {
            tuple: FiveTuple::synthetic(77, Proto::Udp), // src 10.0.0.77
            size: 64,
            seq,
            cost_class: 0,
            ecn: Ecn::NotEct,
            arrival: nfvnice::SimTime::ZERO,
        });
    }
    sim.run(Duration::from_millis(50));
    // the wildcard minted one exact flow entry and delivered its packets
    assert_eq!(sim.platform.flow_table.len(), 1);
    let delivered: u64 = sim.platform.stats.flows.iter().map(|f| f.delivered).sum();
    assert_eq!(delivered, 100);
    assert!(sim.platform.packets_accounted());
}

/// A realistic chain of nfv-apps NFs (policer → firewall → NAT → monitor)
/// under full NFVnice: functional behaviour and resource management
/// compose without interfering.
#[test]
fn apps_chain_functional_under_nfvnice() {
    use nfv_apps::{Firewall, FlowMonitor, Nat, Rule, TokenBucket, Verdict};
    let mut sim = Simulation::new(cfg(NfvniceConfig::full()));
    let policer = sim.add_nf_with_handler(
        NfSpec::new("policer", 0, 150),
        Box::new(TokenBucket::new(100_000.0, 512)),
    );
    let fw = sim.add_nf_with_handler(
        NfSpec::new("fw", 0, 300),
        Box::new(Firewall::new(
            vec![Rule::any(Verdict::Allow)],
            Verdict::Deny,
        )),
    );
    let nat = sim.add_nf_with_handler(NfSpec::new("nat", 0, 250), Box::new(Nat::new(0xc0a80001)));
    let mon = sim.add_nf_with_handler(NfSpec::new("mon", 0, 100), Box::new(FlowMonitor::new()));
    let chain = sim.add_chain(&[policer, fw, nat, mon]);
    sim.add_udp(chain, 200_000.0, 128);
    let r = sim.run(Duration::from_millis(500));
    // the policer caps 200 kpps offered at ~100 kpps
    let rate = r.flows[0].delivered_pps;
    assert!((90_000.0..115_000.0).contains(&rate), "rate {rate}");
    // latency accounting captured the chain transit
    assert!(r.flows[0].latency_p50 > Duration::ZERO);
    assert!(r.flows[0].latency_p99 >= r.flows[0].latency_p50);
    assert_eq!(r.total_wasted_drops, 0);
}

/// The cooperative policy end-to-end: backpressure rescues a chain that a
/// pure cooperative scheduler wastes.
#[test]
fn cooperative_scheduler_rescued_by_backpressure() {
    let run = |variant| {
        let mut c = cfg(variant);
        c.platform.policy = Policy::Cooperative;
        let mut sim = Simulation::new(c);
        let a = sim.add_nf(NfSpec::new("a", 0, 120));
        let b = sim.add_nf(NfSpec::new("b", 0, 550));
        let chain = sim.add_chain(&[a, b]);
        sim.add_udp(chain, 14_880_000.0, 64);
        sim.run(Duration::from_millis(300))
    };
    let coop = run(NfvniceConfig::off());
    let nice = run(NfvniceConfig::backpressure_only());
    assert!(coop.total_wasted_drops > 100_000, "cooperative wastes");
    assert_eq!(nice.total_wasted_drops, 0);
    assert!(nice.total_delivered_pps >= coop.total_delivered_pps);
}

/// `rx_poll` walks a poll's frames as same-tuple runs and decides each
/// run once. Frames `A A A X A B B T T` — X unclassified, B's chain
/// routed through a crashed NF, A's and T's chains shed, T a TCP flow —
/// must produce exactly the counters, feedback and trace records of
/// per-frame handling (values below worked out frame by frame), with one
/// admission call per classified run on a live chain.
#[test]
fn rx_poll_runs_match_per_frame_semantics() {
    use nfv_obs::NO_ID;
    use nfv_pkt::{Ecn, WireFrame};
    use nfv_platform::{Platform, TcpEventKind};
    use nfvnice::{
        ChainId, DropCause, FiveTuple, FlowId, NfId, PlatformConfig, Proto, SimTime, TraceKind,
        TraceSink,
    };

    let mut p = Platform::new(PlatformConfig::default());
    let entry = p.add_nf(NfSpec::new("entry", 0, 100));
    let dead = p.add_nf(NfSpec::new("dead", 0, 100));
    let tail = p.add_nf(NfSpec::new("tail", 0, 100));
    let chain_a = p.install_chain(&[entry, tail]);
    let chain_b = p.install_chain(&[entry, dead]);
    let chain_t = p.install_chain(&[tail]);
    let (ta, tb, tt) = (
        FiveTuple::synthetic(1, Proto::Udp),
        FiveTuple::synthetic(2, Proto::Udp),
        FiveTuple::synthetic(3, Proto::Tcp),
    );
    let tx = FiveTuple::synthetic(4, Proto::Udp); // no rule: unclassified
    let fa = p.install_flow(ta, chain_a);
    let fb = p.install_flow(tb, chain_b);
    let ft = p.install_flow(tt, chain_t);
    let mut crash_feedback = Vec::new();
    p.crash_nf(dead, SimTime::ZERO, &mut crash_feedback);
    p.trace = TraceSink::recording();

    let now = SimTime::from_micros(10);
    for (seq, tuple) in [ta, ta, ta, tx, ta, tb, tb, tt, tt].into_iter().enumerate() {
        p.nic.deliver(WireFrame {
            tuple,
            size: 64,
            seq: 100 + seq as u64,
            cost_class: 0,
            ecn: Ecn::NotEct,
            arrival: now,
        });
    }
    let mut admit_calls = Vec::new();
    let mut tcp = Vec::new();
    p.rx_poll(
        now,
        &mut |chain: ChainId, flow: FlowId, _: &mut dyn FnMut(NfId) -> bool| {
            admit_calls.push(flow);
            chain != chain_a && chain != chain_t
        },
        &mut tcp,
    );

    // Runs: [A A A] [X] [A] [B B] [T T]. B's run sheds on the dead-chain
    // check before admission; the unclassified run never reaches it.
    assert_eq!(admit_calls, vec![fa, fa, ft]);
    let flow = |f: FlowId| {
        let s = &p.stats.flows[f.index()];
        (s.dropped, s.entry_drops)
    };
    assert_eq!(flow(fa), (4, 4));
    assert_eq!(flow(fb), (2, 0));
    assert_eq!(flow(ft), (2, 2));
    let chain_drops: Vec<u64> = p.stats.chains.iter().map(|c| c.entry_drops).collect();
    assert_eq!(chain_drops, vec![4, 0, 2]);
    assert_eq!(p.stats.entry_throttle_drops, 6);
    assert_eq!(p.stats.nf_down_drops, 2);
    assert_eq!(p.stats.unclassified, 1);
    // λ counts every admitted-or-shed frame at its entry instance, but not
    // frames shed for a dead chain.
    let arrivals: Vec<u64> = p.nfs.iter().map(|nf| nf.arrivals).collect();
    assert_eq!(arrivals, vec![4, 0, 2]);
    assert_eq!(p.mempool.in_use(), 0);

    let seqs: Vec<u64> = tcp
        .iter()
        .map(|e| {
            assert_eq!((e.flow, e.kind), (ft, TcpEventKind::Dropped));
            e.seq
        })
        .collect();
    assert_eq!(seqs, vec![107, 108]);

    let drops: Vec<(DropCause, u32, u32, u32)> = p
        .trace
        .take()
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceKind::PacketDrop {
                cause,
                flow,
                chain,
                nf,
            } => {
                assert_eq!(e.t, now);
                Some((cause, flow, chain, nf))
            }
            _ => None,
        })
        .collect();
    let shed_a = (DropCause::EntryThrottle, fa.0, chain_a.0, entry.0);
    let down_b = (DropCause::NfDown, fb.0, chain_b.0, dead.0);
    let shed_t = (DropCause::EntryThrottle, ft.0, chain_t.0, tail.0);
    let unclassified = (DropCause::Unclassified, NO_ID, NO_ID, NO_ID);
    assert_eq!(
        drops,
        vec![
            shed_a,
            shed_a,
            shed_a,
            unclassified,
            shed_a,
            down_b,
            down_b,
            shed_t,
            shed_t
        ]
    );
}
