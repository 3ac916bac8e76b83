//! End-to-end and per-layer benchmark of the X-SSD simulator stack.
//!
//! Three workloads, each chosen to load a different part of the stack
//! (see `README.md` in this directory for the reasons and the metric
//! table):
//!
//! - [`tpcc_local`] — the Fig. 9 headline cell; host time is mostly the
//!   database hot path;
//! - [`ycsb_lifecycle`] — cheap transactions plus checkpoints, power
//!   failure, restore and bounded replay; the only user of the
//!   conventional-side block path;
//! - [`append_replicated`] — raw `x_pwrite`/`x_fsync`/`x_pread` on a
//!   primary with two eager secondaries; no database at all.
//!
//! One call of [`run_rep`] is one repetition: set up, run, power-fail,
//! recover, verify. Virtual-time results are a pure function of the
//! seed; host times come from the caller's clock and, when tracing is
//! on, from spans recorded by the wrappers in [`wrap`].

pub mod append_replicated;
pub mod calib;
pub mod report;
pub mod tpcc_local;
pub mod trace;
pub mod wrap;
pub mod ycsb_lifecycle;

use simkit::{MetricValue, Snapshot};
use std::collections::BTreeMap;
use trace::SharedTracer;

/// Workload names, as given to `--workload`.
pub const WORKLOADS: [&str; 3] = ["tpcc-local", "ycsb-lifecycle", "append-replicated"];

/// What one repetition measured.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host ns spent loading data and building devices.
    pub setup_ns: u64,
    /// Host ns of the run phase (checkpoints included).
    pub run_ns: u64,
    /// Host ns from power failure to verified state.
    pub recovery_ns: u64,
    /// Committed transactions, or fsync'd append groups.
    pub ops: u64,
    /// Operations attempted plus correctness checks made.
    pub attempted: u64,
    /// Operations or checks that failed.
    pub failed: u64,
    /// What failed, one line per kind of failure.
    pub failures: Vec<String>,
    /// Everything measured in virtual time.
    pub sim: SimResult,
}

/// The virtual-time side of a repetition: identical for equal seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Median commit-to-durable (or group-to-fsync) time, µs.
    pub commit_p50_us: f64,
    /// 99th percentile of the same, µs.
    pub commit_p99_us: f64,
    /// Samples behind the two percentiles.
    pub commit_samples: u64,
    /// Operations per virtual second of the run phase.
    pub virt_ops_per_s: f64,
    /// Virtual power-fail-to-verified time, ms.
    pub recovery_virt_ms: f64,
    /// Per-layer counts and virtual-time metrics, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Counts the host-time metrics are normalised by (not reported).
    pub counts: BTreeMap<&'static str, f64>,
    /// Hash of the telemetry snapshot and of the fields above.
    pub digest: u64,
}

/// Run one repetition of `workload` at `seed`, recording spans on
/// `tracer` when it is enabled.
pub fn run_rep(workload: &str, seed: u64, tracer: &SharedTracer) -> Rep {
    match workload {
        "tpcc-local" => tpcc_local::run(seed, tracer),
        "ycsb-lifecycle" => ycsb_lifecycle::run(seed, tracer),
        "append-replicated" => append_replicated::run(seed, tracer),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Correctness checks made during a repetition.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub made: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    /// Record one check; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.made += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// `p`-th percentile (nearest rank) of `v`, sorting it in place.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A metric's value on every device of a snapshot: single-device
/// clusters report at the root, multi-device ones under `dev<i>.`.
fn dev_values<'a>(snap: &'a Snapshot, path: &'a str) -> impl Iterator<Item = f64> + 'a {
    snap.iter()
        .filter(move |(k, _)| {
            *k == path
                || (k.starts_with("dev") && k.split_once('.').is_some_and(|(_, rest)| rest == path))
        })
        .map(|(_, v)| metric_f64(v))
}

/// Sum of a metric over every device.
pub fn dev_sum(snap: &Snapshot, path: &str) -> f64 {
    dev_values(snap, path).sum()
}

/// Largest value of a metric over every device.
pub fn dev_max(snap: &Snapshot, path: &str) -> f64 {
    dev_values(snap, path).fold(0.0, f64::max)
}

fn metric_f64(v: &MetricValue) -> f64 {
    match v {
        MetricValue::Counter(c) => *c as f64,
        MetricValue::Gauge(g) => *g,
        MetricValue::Latency { mean_us, .. } => *mean_us,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The device-stack per-layer metrics every workload reports, from the
/// snapshot taken after recovery. `ops` normalises the per-op counts;
/// `virt_ns` is the virtual span the busy fractions are taken over;
/// `dies` is the flash dies per device.
pub fn device_layers(
    snap: &Snapshot,
    ops: u64,
    virt_ns: u64,
    dies: u32,
    devices: usize,
    cross_device_deliveries: u64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let ops = ops as f64;
    let virt = virt_ns as f64;
    out.insert(
        "core.fast.credit_reads_per_op",
        ratio(dev_sum(snap, "core.fast.credit_reads"), ops),
    );
    out.insert("core.cmb.queue_high_water", dev_max(snap, "core.cmb.lane0.queue_high_water"));
    out.insert("core.destage.deadline_misses", dev_sum(snap, "core.destage.lane0.deadline_misses"));
    out.insert(
        "core.destage.partial_page_frac",
        ratio(
            dev_sum(snap, "core.destage.lane0.partial_pages"),
            dev_sum(snap, "core.destage.lane0.pages_written"),
        ),
    );
    out.insert("core.transport.mirror_messages", dev_sum(snap, "core.transport.mirror_messages"));
    out.insert(
        "core.transport.shadow_updates_applied",
        dev_sum(snap, "core.transport.shadow_updates_applied"),
    );
    out.insert("simkit.cross_device_deliveries_per_op", ratio(cross_device_deliveries as f64, ops));
    let payload = dev_sum(snap, "pcie.host_link.payload_bytes");
    let overhead = dev_sum(snap, "pcie.host_link.overhead_bytes");
    out.insert("pcie.host_link.payload_efficiency", ratio(payload, payload + overhead));
    // Only the primary's host link carries host traffic; secondaries'
    // links idle, so the fraction is taken over one link.
    out.insert("pcie.host_link.busy_frac", ratio(dev_sum(snap, "pcie.host_link.busy_ns"), virt));
    out.insert("flash.array.programs", dev_sum(snap, "flash.array.programs"));
    out.insert("flash.array.reads", dev_sum(snap, "flash.array.reads"));
    out.insert(
        "flash.array.die_busy_frac",
        ratio(dev_sum(snap, "flash.array.die_busy_ns"), virt * dies as f64 * devices as f64),
    );
    let host_writes = dev_sum(snap, "ssd.ftl.host_writes");
    let gc_writes = dev_sum(snap, "ssd.ftl.gc_writes");
    out.insert("ssd.ftl.write_amplification", ratio(host_writes + gc_writes, host_writes));
    out.insert("ssd.ftl.gc_writes", gc_writes);
    let hits = dev_sum(snap, "ssd.buffer.read_hits");
    let misses = dev_sum(snap, "ssd.buffer.read_misses");
    out.insert("ssd.buffer.read_hit_frac", ratio(hits, hits + misses));
    out.insert("ssd.hic.fetches", dev_sum(snap, "ssd.hic.fetches"));
}

/// Hash a snapshot (virtual-time telemetry only: the simulator's
/// wall-clock scheduler metrics are off) together with the scalar
/// results, so any change to a simulated statistic changes the digest.
pub fn sim_digest(snap: &Snapshot, sim: &SimResult) -> u64 {
    let mut h = FNV_BASIS;
    for (k, v) in snap.iter() {
        if k.contains("stall_ns") {
            continue;
        }
        h = fnv1a(k.as_bytes(), h);
        h = fnv1a(format!("{v:?}").as_bytes(), h);
    }
    for x in [
        sim.commit_p50_us,
        sim.commit_p99_us,
        sim.commit_samples as f64,
        sim.virt_ops_per_s,
        sim.recovery_virt_ms,
    ] {
        h = fnv1a(&x.to_bits().to_le_bytes(), h);
    }
    for (k, v) in sim.layers.iter().chain(sim.counts.iter()) {
        h = fnv1a(k.as_bytes(), h);
        h = fnv1a(&v.to_bits().to_le_bytes(), h);
    }
    h
}
