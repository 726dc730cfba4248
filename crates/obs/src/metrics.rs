//! Per-NF / per-chain time series sampled on the monitor tick.
//!
//! The engine calls [`MetricsRecorder::begin_tick`] once per monitor tick
//! (1 ms by default), then [`MetricsRecorder::record_nf`] /
//! [`MetricsRecorder::record_chain`] for every NF and chain. All series
//! are column vectors aligned on [`MetricsRecorder::t_ns`], so sample `i`
//! of every series belongs to the same tick. A recorder built with
//! [`MetricsRecorder::off`] ignores every call.

use crate::json;
use nfv_des::SimTime;
use std::fmt::Write as _;

/// Time series for one NF.
#[derive(Debug, Clone, Default)]
pub struct NfSeries {
    /// NF name (from its spec).
    pub name: String,
    /// Instantaneous RX queue depth.
    pub qlen: Vec<u64>,
    /// Backpressure state: 1 = `Throttle`, 0 = `Watch`.
    pub throttled: Vec<u64>,
    /// Current cgroup `cpu.shares`.
    pub shares: Vec<u64>,
    /// Arrival-rate estimate λ (packets/s) over the estimator window.
    pub lambda_pps: Vec<f64>,
    /// Median per-packet service time estimate (ns; 0 before any sample).
    pub svc_median_ns: Vec<u64>,
}

/// Time series for one chain.
#[derive(Debug, Clone, Default)]
pub struct ChainSeries {
    /// 1 when the chain is subject to entry discard, else 0.
    pub throttled: Vec<u64>,
    /// Number of NFs currently throttling this chain.
    pub bottlenecks: Vec<u64>,
    /// Running 99th-percentile end-to-end latency (ns) of delivered
    /// packets; 0 before any delivery.
    pub lat_p99_ns: Vec<u64>,
    /// Running 99.9th-percentile end-to-end latency (ns).
    pub lat_p999_ns: Vec<u64>,
}

/// The monitor-tick sampler for all NFs and chains.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    on: bool,
    /// Sample timestamps (ns of simulated time), one per tick.
    pub t_ns: Vec<u64>,
    /// Per-NF series, indexed by NF id.
    pub nfs: Vec<NfSeries>,
    /// Per-chain series, indexed by chain id.
    pub chains: Vec<ChainSeries>,
    /// Mempool packets in flight at each tick.
    pub in_flight: Vec<u64>,
    /// Flows installed in the flow table at each tick.
    pub flows_active: Vec<u64>,
    /// Cumulative flows evicted by aging up to each tick.
    pub flows_evicted: Vec<u64>,
}

impl MetricsRecorder {
    /// A disabled recorder: every call is a no-op.
    pub fn off() -> Self {
        MetricsRecorder::default()
    }

    /// An enabled recorder (call [`MetricsRecorder::init`] before use).
    pub fn recording() -> Self {
        MetricsRecorder {
            on: true,
            ..MetricsRecorder::default()
        }
    }

    /// Is this recorder collecting samples?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Size the series for the deployed NFs and chains. Called by the
    /// engine when the simulation starts.
    pub fn init<'a>(&mut self, nf_names: impl Iterator<Item = &'a str>, num_chains: usize) {
        if !self.on {
            return;
        }
        self.nfs = nf_names
            .map(|n| NfSeries {
                name: n.to_string(),
                ..NfSeries::default()
            })
            .collect();
        self.chains = vec![ChainSeries::default(); num_chains];
    }

    /// Append a series for an NF deployed mid-run (elastic scale-out
    /// replica). Ticks before its birth are zero-backfilled so every
    /// column stays aligned on `t_ns` — the CSV exporter indexes each
    /// series by tick for all NFs.
    pub fn add_nf_series(&mut self, name: &str) {
        if !self.on {
            return;
        }
        let n = self.samples();
        self.nfs.push(NfSeries {
            name: name.to_string(),
            qlen: vec![0; n], // nfv-lint: allow(hot-alloc) -- one-time backfill per scale-out action, not per packet
            throttled: vec![0; n], // nfv-lint: allow(hot-alloc) -- one-time backfill per scale-out action, not per packet
            shares: vec![0; n], // nfv-lint: allow(hot-alloc) -- one-time backfill per scale-out action, not per packet
            lambda_pps: vec![0.0; n], // nfv-lint: allow(hot-alloc) -- one-time backfill per scale-out action, not per packet
            svc_median_ns: vec![0; n], // nfv-lint: allow(hot-alloc) -- one-time backfill per scale-out action, not per packet
        });
    }

    /// Open a new sample column at time `t`.
    pub fn begin_tick(&mut self, t: SimTime, in_flight: u64) {
        if !self.on {
            return;
        }
        self.t_ns.push(t.as_nanos());
        self.in_flight.push(in_flight);
    }

    /// Record the flow-table column for the current tick: currently
    /// installed flows and the cumulative aged-out eviction count. Both
    /// are deterministic sim state, independent of the flow-table index
    /// layout — the layout-dependent probe/rehash counters never appear
    /// in the metrics document.
    pub fn record_flows(&mut self, active: u64, evicted: u64) {
        if !self.on {
            return;
        }
        self.flows_active.push(active);
        self.flows_evicted.push(evicted);
    }

    /// Record NF `idx`'s column for the current tick.
    pub fn record_nf(
        &mut self,
        idx: usize,
        qlen: u64,
        throttled: bool,
        shares: u64,
        lambda_pps: f64,
        svc_median_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let nf = &mut self.nfs[idx];
        nf.qlen.push(qlen);
        nf.throttled.push(u64::from(throttled));
        nf.shares.push(shares);
        nf.lambda_pps.push(lambda_pps);
        nf.svc_median_ns.push(svc_median_ns);
    }

    /// Record chain `idx`'s column for the current tick.
    pub fn record_chain(
        &mut self,
        idx: usize,
        throttled: bool,
        bottlenecks: u64,
        lat_p99_ns: u64,
        lat_p999_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let c = &mut self.chains[idx];
        c.throttled.push(u64::from(throttled));
        c.bottlenecks.push(bottlenecks);
        c.lat_p99_ns.push(lat_p99_ns);
        c.lat_p999_ns.push(lat_p999_ns);
    }

    /// Number of completed sample ticks.
    pub fn samples(&self) -> usize {
        self.t_ns.len()
    }

    /// Render the whole recording as one JSON object. Byte-deterministic
    /// for a given recording.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"samples\":");
        let _ = write!(s, "{}", self.samples());
        s.push_str(",\"t_ns\":");
        json::push_u64_array(&mut s, &self.t_ns);
        s.push_str(",\"in_flight\":");
        json::push_u64_array(&mut s, &self.in_flight);
        s.push_str(",\"flows_active\":");
        json::push_u64_array(&mut s, &self.flows_active);
        s.push_str(",\"flows_evicted\":");
        json::push_u64_array(&mut s, &self.flows_evicted);
        s.push_str(",\"nfs\":[");
        for (i, nf) in self.nfs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"name\":");
            json::push_str_lit(&mut s, &nf.name);
            s.push_str(",\"qlen\":");
            json::push_u64_array(&mut s, &nf.qlen);
            s.push_str(",\"throttled\":");
            json::push_u64_array(&mut s, &nf.throttled);
            s.push_str(",\"shares\":");
            json::push_u64_array(&mut s, &nf.shares);
            s.push_str(",\"lambda_pps\":");
            json::push_f64_array(&mut s, &nf.lambda_pps);
            s.push_str(",\"svc_median_ns\":");
            json::push_u64_array(&mut s, &nf.svc_median_ns);
            s.push('}');
        }
        s.push_str("],\"chains\":[");
        for (i, c) in self.chains.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"throttled\":");
            json::push_u64_array(&mut s, &c.throttled);
            s.push_str(",\"bottlenecks\":");
            json::push_u64_array(&mut s, &c.bottlenecks);
            s.push_str(",\"lat_p99_ns\":");
            json::push_u64_array(&mut s, &c.lat_p99_ns);
            s.push_str(",\"lat_p999_ns\":");
            json::push_u64_array(&mut s, &c.lat_p999_ns);
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Render as CSV: one row per (tick, NF) pair plus chain columns in a
    /// second section (long format, easy to load into pandas/gnuplot).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_ns,nf,name,qlen,throttled,shares,lambda_pps,svc_median_ns\n");
        for (i, &t) in self.t_ns.iter().enumerate() {
            for (nf_idx, nf) in self.nfs.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{t},{nf_idx},{},{},{},{},{},{}",
                    nf.name,
                    nf.qlen[i],
                    nf.throttled[i],
                    nf.shares[i],
                    nf.lambda_pps[i],
                    nf.svc_median_ns[i]
                );
            }
        }
        out.push_str(
            "\nt_ns,chain,throttled,bottlenecks,lat_p99_ns,lat_p999_ns,in_flight,flows_active,flows_evicted\n",
        );
        for (i, &t) in self.t_ns.iter().enumerate() {
            for (c_idx, c) in self.chains.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "{t},{c_idx},{},{},{},{},{},{},{}",
                    c.throttled[i],
                    c.bottlenecks[i],
                    c.lat_p99_ns[i],
                    c.lat_p999_ns[i],
                    self.in_flight[i],
                    self.flows_active.get(i).copied().unwrap_or(0),
                    self.flows_evicted.get(i).copied().unwrap_or(0),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_recorder() -> MetricsRecorder {
        let mut m = MetricsRecorder::recording();
        m.init(["a", "b"].into_iter(), 1);
        m.begin_tick(SimTime::from_millis(1), 5);
        m.record_flows(7, 2);
        m.record_nf(0, 10, false, 1024, 1e6, 100);
        m.record_nf(1, 90, true, 512, 2e6, 550);
        m.record_chain(0, true, 1, 250_000, 900_000);
        m
    }

    #[test]
    fn add_nf_backfills_to_current_tick() {
        let mut m = sample_recorder(); // one completed tick
        m.add_nf_series("a~1");
        assert_eq!(m.nfs[2].name, "a~1");
        assert_eq!(m.nfs[2].qlen, vec![0], "birth tick backfilled");
        m.begin_tick(SimTime::from_millis(2), 0);
        m.record_flows(7, 2);
        m.record_nf(0, 11, false, 1024, 1e6, 100);
        m.record_nf(1, 80, true, 512, 2e6, 550);
        m.record_nf(2, 3, false, 1024, 5e5, 90);
        m.record_chain(0, true, 1, 250_000, 900_000);
        assert_eq!(m.nfs[2].qlen, vec![0, 3]);
        assert_eq!(m.nfs[2].qlen.len(), m.samples());
        // exporters index every series by tick: must not panic
        let csv = m.to_csv();
        assert!(csv.contains("a~1"));
    }

    #[test]
    fn off_recorder_ignores_add_nf_series() {
        let mut m = MetricsRecorder::off();
        m.add_nf_series("x");
        assert!(m.nfs.is_empty());
    }

    #[test]
    fn off_recorder_ignores_everything() {
        let mut m = MetricsRecorder::off();
        m.init(["a"].into_iter(), 1);
        m.begin_tick(SimTime::ZERO, 0);
        m.record_nf(0, 1, false, 1, 0.0, 0);
        assert_eq!(m.samples(), 0);
        assert!(m.nfs.is_empty());
    }

    #[test]
    fn columns_align() {
        let m = sample_recorder();
        assert_eq!(m.samples(), 1);
        assert_eq!(m.nfs[0].qlen, vec![10]);
        assert_eq!(m.nfs[1].throttled, vec![1]);
        assert_eq!(m.chains[0].bottlenecks, vec![1]);
        assert_eq!(m.in_flight, vec![5]);
    }

    #[test]
    fn json_is_stable() {
        let a = sample_recorder().to_json();
        let b = sample_recorder().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"samples\":1,"));
        assert!(a.contains("\"name\":\"b\""));
        assert!(a.contains("\"lambda_pps\":[1000000]"));
        assert!(a.contains("\"lat_p99_ns\":[250000],\"lat_p999_ns\":[900000]"));
        assert!(a.contains("\"flows_active\":[7],\"flows_evicted\":[2]"));
    }

    #[test]
    fn csv_has_both_sections() {
        let csv = sample_recorder().to_csv();
        assert!(csv.starts_with("t_ns,nf,name,"));
        assert!(csv.contains("1000000,1,b,90,1,512,2000000,550"));
        assert!(csv.contains("t_ns,chain,"));
        assert!(csv.contains("1000000,0,1,1,250000,900000,5,7,2"));
    }
}
