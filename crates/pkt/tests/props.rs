//! Property-based tests for rings, mempool and flow table.

use nfv_des::SimTime;
use nfv_pkt::{ChainId, FlowId, FlowTableKind, TuplePattern};
use nfv_pkt::{Enqueue, FiveTuple, FlowTable, Mempool, Packet, PktId, Proto, Ring};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// Reference model of the flow table's external contract: dense LIFO-
/// recycled ids, pinned-vs-learned aging, epoch eviction, cumulative
/// forgotten counters. Keyed by synthetic tuple index, no hashing at all.
#[derive(Default)]
struct ModelTable {
    live: BTreeMap<u16, ModelFlow>,
    free: Vec<u32>,
    next_id: u32,
    epoch: u32,
    wildcards: Vec<(i32, u32)>, // (priority, install seq) → chain by seq
    wildcard_chains: Vec<ChainId>,
    forgotten_packets: u64,
}

struct ModelFlow {
    id: u32,
    chain: ChainId,
    packets: u64,
    pinned: bool,
    last_seen: u32,
}

impl ModelTable {
    fn mint(&mut self, n: u16, chain: ChainId, pinned: bool) -> u32 {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        });
        self.live.insert(
            n,
            ModelFlow {
                id,
                chain,
                packets: 0,
                pinned,
                last_seen: self.epoch,
            },
        );
        id
    }

    fn install(&mut self, n: u16, chain: ChainId) -> u32 {
        if let Some(f) = self.live.get_mut(&n) {
            f.chain = chain;
            f.pinned = true;
            return f.id;
        }
        self.mint(n, chain, true)
    }

    fn install_wildcard(&mut self, chain: ChainId, priority: i32) {
        let seq = self.wildcard_chains.len() as u32;
        self.wildcards.push((priority, seq));
        self.wildcard_chains.push(chain);
    }

    /// Winning rule: highest priority, then earliest install (all model
    /// rules are match-anything patterns).
    fn wildcard_winner(&self) -> Option<ChainId> {
        self.wildcards
            .iter()
            .max_by_key(|&&(p, seq)| (p, std::cmp::Reverse(seq)))
            .map(|&(_, seq)| self.wildcard_chains[seq as usize])
    }

    fn classify(&mut self, n: u16) -> Option<(u32, ChainId)> {
        let epoch = self.epoch;
        if let Some(f) = self.live.get_mut(&n) {
            f.packets += 1;
            if !f.pinned {
                f.last_seen = epoch;
            }
            return Some((f.id, f.chain));
        }
        let chain = self.wildcard_winner()?;
        let id = self.mint(n, chain, false);
        self.live.get_mut(&n).unwrap().packets += 1;
        Some((id, chain))
    }

    fn age(&mut self, idle_epochs: u32) -> Vec<u32> {
        self.epoch += 1;
        let epoch = self.epoch;
        let victims: Vec<u16> = self
            .live
            .iter()
            .filter(|(_, f)| !f.pinned && epoch - f.last_seen > idle_epochs)
            .map(|(&n, _)| n)
            .collect();
        let mut ids: Vec<u32> = Vec::new();
        for n in victims {
            let f = self.live.remove(&n).unwrap();
            self.forgotten_packets += f.packets;
            ids.push(f.id);
        }
        // The engine scans (and frees) in ascending id order.
        ids.sort_unstable();
        self.free.extend(ids.iter().copied());
        ids
    }
}

/// One step of the interleaved churn script (`ClassifyRun` is `len`
/// back-to-back frames of one tuple).
#[derive(Debug, Clone)]
enum FtOp {
    Install { n: u16, chain: u8 },
    InstallWildcard { chain: u8, priority: i32 },
    Classify { n: u16 },
    ClassifyRun { n: u16, len: u32 },
    Age { idle_epochs: u32 },
}

fn ft_op() -> impl Strategy<Value = FtOp> {
    // The stand-in `prop_oneof!` has no arm weights; repeating the
    // classify arm biases the script toward data-path traffic.
    prop_oneof![
        (0u16..48, 0u8..6).prop_map(|(n, chain)| FtOp::Install { n, chain }),
        (0u8..6, 0u8..4).prop_map(|(chain, priority)| FtOp::InstallWildcard {
            chain,
            priority: priority as i32,
        }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (0u16..48).prop_map(|n| FtOp::Classify { n }),
        (0u16..48).prop_map(|n| FtOp::ClassifyRun { n, len: 1 }),
        (0u16..48, 1u32..65).prop_map(|(n, len)| FtOp::ClassifyRun { n, len }),
        (1u32..3).prop_map(|idle_epochs| FtOp::Age { idle_epochs }),
    ]
}

/// Tuple for the run-vs-repeat script: a 16-tuple space (so runs often
/// hit the memo'd flow, or one just evicted), whose top quarter is TCP —
/// unmatched by the script's UDP-only wildcard rules unless installed
/// exactly, so runs of unclassified frames occur.
fn run_tuple(n: u16) -> FiveTuple {
    let n = (n % 16) as u32;
    FiveTuple::synthetic(n, if n >= 12 { Proto::Tcp } else { Proto::Udp })
}

proptest! {
    /// The ring behaves exactly like a bounded VecDeque under a random
    /// enqueue/dequeue script, and its counters add up.
    #[test]
    fn ring_matches_reference_model(
        capacity in 1usize..64,
        script in prop::collection::vec(prop::bool::ANY, 1..500),
    ) {
        let mut ring = Ring::new(capacity);
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for op_is_enqueue in script {
            if op_is_enqueue {
                let ok = ring.enqueue(PktId(next)).is_ok();
                if model.len() < capacity {
                    prop_assert!(ok);
                    model.push_back(next);
                } else {
                    prop_assert!(!ok);
                }
                next += 1;
            } else {
                prop_assert_eq!(ring.dequeue(), model.pop_front().map(PktId));
            }
            prop_assert_eq!(ring.len(), model.len());
        }
        prop_assert_eq!(ring.enqueued, ring.dequeued + ring.len() as u64);
    }

    /// Mempool: in_use + free == capacity at every step; allocated ids are
    /// unique; freed packets round-trip their content.
    #[test]
    fn mempool_conservation(
        capacity in 1usize..64,
        script in prop::collection::vec(prop::bool::ANY, 1..500),
    ) {
        let mut pool = Mempool::new(capacity);
        let mut live: Vec<PktId> = Vec::new();
        let mut seq = 0u64;
        for op_is_alloc in script {
            if op_is_alloc {
                let mut pkt = Packet::new(FlowId(0), ChainId(0), 64, SimTime::ZERO);
                pkt.seq = seq;
                match pool.alloc(pkt) {
                    Some(id) => {
                        prop_assert!(!live.contains(&id), "duplicate live id");
                        prop_assert_eq!(pool.get(id).seq, seq);
                        live.push(id);
                        seq += 1;
                    }
                    None => prop_assert_eq!(live.len(), capacity),
                }
            } else if let Some(id) = live.pop() {
                pool.free(id);
            }
            prop_assert_eq!(pool.in_use(), live.len());
        }
    }

    /// Flow table: classification counters equal the number of classify
    /// calls per tuple; ids are stable.
    #[test]
    fn flow_table_counts(tuples in prop::collection::vec(0u32..8, 1..300)) {
        let mut ft = FlowTable::new();
        let mut expected = [0u64; 8];
        for &n in &tuples {
            let t = FiveTuple::synthetic(n, Proto::Udp);
            let id = ft.install(t, ChainId(n));
            let (flow, chain) = ft.classify(&t, 64).unwrap();
            prop_assert_eq!(flow, id);
            prop_assert_eq!(chain, ChainId(n));
            expected[n as usize] += 1;
        }
        for n in 0u32..8 {
            let t = FiveTuple::synthetic(n, Proto::Udp);
            if let Some(e) = ft.get(&t) {
                prop_assert_eq!(e.packets, expected[n as usize]);
            } else {
                prop_assert_eq!(expected[n as usize], 0);
            }
        }
    }

    /// Interleaved install / install_wildcard / classify / eviction churn:
    /// the sharded engine, the flat-table oracle and a BTreeMap model all
    /// agree on classification results, flow ids, counters, eviction order
    /// and the conservation accumulator at every step.
    #[test]
    fn flow_table_backends_match_model_under_churn(
        script in prop::collection::vec(ft_op(), 1..400),
    ) {
        let mut sharded = FlowTable::with_kind(FlowTableKind::Sharded);
        let mut flat = FlowTable::with_kind(FlowTableKind::Flat);
        let mut model = ModelTable::default();
        let mut scratch_s = Vec::new();
        let mut scratch_f = Vec::new();
        for op in script {
            match op {
                FtOp::Install { n, chain } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let c = ChainId(chain as u32);
                    let fs = sharded.install(t, c);
                    let ff = flat.install(t, c);
                    let fm = model.install(n, c);
                    prop_assert_eq!(fs, ff);
                    prop_assert_eq!(fs, FlowId(fm));
                }
                FtOp::InstallWildcard { chain, priority } => {
                    let c = ChainId(chain as u32);
                    sharded.install_wildcard(TuplePattern::any(), c, priority);
                    flat.install_wildcard(TuplePattern::any(), c, priority);
                    model.install_wildcard(c, priority);
                }
                FtOp::Classify { n } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let rs = sharded.classify(&t, 64);
                    let rf = flat.classify(&t, 64);
                    let rm = model.classify(n).map(|(id, c)| (FlowId(id), c));
                    prop_assert_eq!(rs, rf);
                    prop_assert_eq!(rs, rm);
                }
                FtOp::ClassifyRun { n, len } => {
                    let t = FiveTuple::synthetic(n as u32, Proto::Udp);
                    let rs = sharded.classify_run(&t, len, 64 * len as u64);
                    for _ in 0..len {
                        let rf = flat.classify(&t, 64);
                        let rm = model.classify(n).map(|(id, c)| (FlowId(id), c));
                        prop_assert_eq!(rs, rf);
                        prop_assert_eq!(rs, rm);
                    }
                }
                FtOp::Age { idle_epochs } => {
                    scratch_s.clear();
                    scratch_f.clear();
                    sharded.age(idle_epochs, &mut scratch_s);
                    flat.age(idle_epochs, &mut scratch_f);
                    let em: Vec<FlowId> =
                        model.age(idle_epochs).into_iter().map(FlowId).collect();
                    prop_assert_eq!(&scratch_s, &scratch_f);
                    prop_assert_eq!(&scratch_s, &em);
                }
            }
            prop_assert_eq!(sharded.len(), model.live.len());
            prop_assert_eq!(flat.len(), model.live.len());
        }
        // Terminal state: every tuple's counters and chain agree.
        for n in 0u16..48 {
            let t = FiveTuple::synthetic(n as u32, Proto::Udp);
            let es = sharded.get(&t);
            prop_assert_eq!(es, flat.get(&t));
            match (es, model.live.get(&n)) {
                (Some(e), Some(m)) => {
                    prop_assert_eq!(e.flow, FlowId(m.id));
                    prop_assert_eq!(e.chain, m.chain);
                    prop_assert_eq!(e.packets, m.packets);
                }
                (None, None) => {}
                (e, _) => prop_assert!(false, "presence mismatch for tuple {}: {:?}", n, e),
            }
        }
        prop_assert_eq!(sharded.forgotten_packets(), model.forgotten_packets);
        prop_assert_eq!(flat.forgotten_packets(), model.forgotten_packets);
        prop_assert_eq!(sharded.id_space(), flat.id_space());
        // The running lifetime total must equal live counters + forgotten
        // (the O(1) conservation-ledger invariant).
        let live_sum: u64 = sharded.entries().map(|e| e.packets).sum();
        prop_assert_eq!(sharded.classified_packets(), live_sum + model.forgotten_packets);
        prop_assert_eq!(flat.classified_packets(), sharded.classified_packets());
    }

    /// `classify_run(t, len, bytes)` on one table and `len` back-to-back
    /// `classify(t, ..)` calls on a twin return the same result and leave
    /// identical state — every internal counter (memo/exact/wildcard
    /// hits, probe steps, installs, recycles), every live entry and the
    /// conservation totals — under interleaved installs, aging, id
    /// recycling and unclassified runs. Frame sizes vary within a run.
    #[test]
    fn classify_run_matches_repeated_classify(
        script in prop::collection::vec(ft_op(), 1..400),
    ) {
        let mut run = FlowTable::new();
        let mut twin = FlowTable::new();
        let (mut ev_run, mut ev_twin) = (Vec::new(), Vec::new());
        for (step, op) in script.into_iter().enumerate() {
            match op {
                FtOp::Install { n, chain } => {
                    let c = ChainId(chain as u32);
                    prop_assert_eq!(run.install(run_tuple(n), c), twin.install(run_tuple(n), c));
                }
                FtOp::InstallWildcard { chain, priority } => {
                    let udp = TuplePattern::any().proto(Proto::Udp);
                    run.install_wildcard(udp, ChainId(chain as u32), priority);
                    twin.install_wildcard(udp, ChainId(chain as u32), priority);
                }
                FtOp::Classify { n } => {
                    let t = run_tuple(n);
                    prop_assert_eq!(run.classify(&t, 64), twin.classify(&t, 64));
                }
                FtOp::ClassifyRun { n, len } => {
                    let t = run_tuple(n);
                    let size = |i: u32| 64 + (step as u32 + i) % 1437;
                    let bytes: u64 = (0..len).map(|i| size(i) as u64).sum();
                    let r = run.classify_run(&t, len, bytes);
                    for i in 0..len {
                        prop_assert_eq!(twin.classify(&t, size(i)), r);
                    }
                }
                FtOp::Age { idle_epochs } => {
                    ev_run.clear();
                    ev_twin.clear();
                    run.age(idle_epochs, &mut ev_run);
                    twin.age(idle_epochs, &mut ev_twin);
                    prop_assert_eq!(&ev_run, &ev_twin);
                }
            }
            prop_assert_eq!(run.stats(), twin.stats());
            prop_assert!(run.entries().eq(twin.entries()));
            prop_assert_eq!(run.classified_packets(), twin.classified_packets());
            prop_assert_eq!(run.forgotten_packets(), twin.forgotten_packets());
            prop_assert_eq!(run.forgotten_bytes(), twin.forgotten_bytes());
        }
        prop_assert_eq!(run.id_space(), twin.id_space());
    }

    /// Watermark comparison is exact integer arithmetic at all fill levels.
    #[test]
    fn watermark_exactness(capacity in 1usize..200, pct in 0u32..=100) {
        let mut ring = Ring::new(capacity);
        let mut i = 0u32;
        loop {
            let expect = ring.len() * 100 >= capacity * pct as usize;
            prop_assert_eq!(ring.at_or_above_percent(pct), expect);
            if let Enqueue::Full = ring.enqueue(PktId(i)) {
                break;
            }
            i += 1;
        }
    }
}
