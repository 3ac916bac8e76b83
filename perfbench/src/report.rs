//! From repetitions to the named metrics the benchmark prints.
//!
//! End-to-end metrics come from untraced repetitions only; virtual-time
//! results are the same in every one. Host times are in reference
//! seconds: each repetition's phase time is divided by the reference
//! kernel's time around it ([`crate::calib`]), and the median of those
//! ratios over the run is divided by [`RUNS_PER_REF_S`]. Every repetition
//! does the same work, so what moves a repetition's wall time but not
//! its ratio is other load on the machine, not the program.
//! Per-layer metrics come from traced repetitions: host times are wall
//! clock, from span totals; counts and virtual-time figures come from
//! the simulation.

use crate::calib::RUNS_PER_REF_S;
use crate::trace::SpanTotals;
use crate::{ratio, Rep};
use std::collections::BTreeMap;

/// End-to-end metrics, in output order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("recovery_host_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("virt_ops_per_s", "1/s"),
    ("recovery_virt_ms", "ms"),
];

/// Per-layer metrics, in output order: `(name, unit)`. Every workload
/// reports all of them; 0 means the workload does not use that layer.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("workload.execute.host_ns_per_txn", "ns"),
    ("workload.execute.host_share", "frac"),
    ("driver.self_host_ns_per_txn", "ns"),
    ("driver.self_host_share", "frac"),
    ("memdb.backend.host_ns_per_call", "ns"),
    ("memdb.backend.calls_per_txn", "count"),
    ("memdb.backend.host_share", "frac"),
    ("memdb.backend.ack_virt_p99_us", "us"),
    ("memdb.wal.group_bytes_mean", "B"),
    ("memdb.wal.flushes_per_ktxn", "count"),
    ("memdb.segment.seals", "count"),
    ("memdb.segment.retired", "count"),
    ("memdb.checkpoint.host_ms", "ms"),
    ("memdb.checkpoint.virt_ms", "ms"),
    ("memdb.checkpoint.image_mib", "MiB"),
    ("memdb.checkpoint.host_share", "frac"),
    ("memdb.recovery.restore_host_ms", "ms"),
    ("memdb.recovery.replay_host_ms", "ms"),
    ("memdb.recovery.replay_bytes", "B"),
    ("memdb.recovery.records_scanned", "count"),
    ("core.api.x_pwrite.host_ns_per_kib", "ns/KiB"),
    ("core.api.x_fsync.host_ns_per_call", "ns"),
    ("core.api.x_pread.host_ns_per_kib", "ns/KiB"),
    ("core.api.host_share", "frac"),
    ("core.fast.credit_reads_per_op", "count"),
    ("core.cmb.queue_high_water", "count"),
    ("core.destage.deadline_misses", "count"),
    ("core.destage.partial_page_frac", "frac"),
    ("core.transport.mirror_messages", "count"),
    ("core.transport.shadow_updates_applied", "count"),
    ("simkit.cross_device_deliveries_per_op", "count"),
    ("pcie.host_link.payload_efficiency", "frac"),
    ("pcie.host_link.busy_frac", "frac"),
    ("flash.array.programs", "count"),
    ("flash.array.reads", "count"),
    ("flash.array.die_busy_frac", "frac"),
    ("ssd.ftl.write_amplification", "ratio"),
    ("ssd.ftl.gc_writes", "count"),
    ("ssd.buffer.read_hit_frac", "frac"),
    ("ssd.hic.fetches", "count"),
    ("run.host_ms", "ms"),
    ("commit.samples", "count"),
    ("trace.untraced_host_ops_per_s", "1/s"),
    ("trace.traced_host_ops_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("bench.failed_frac", "frac"),
    ("bench.reps", "count"),
];

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The fastest repetition's value of a host time, wall-clock ns.
fn fastest(reps: &[Rep], f: fn(&Rep) -> u64) -> f64 {
    reps.iter().map(f).min().unwrap_or(0) as f64
}

/// Wall-clock operations per second of the fastest run phase.
fn host_ops_per_s(reps: &[Rep]) -> f64 {
    ratio(reps.first().map_or(0, |r| r.ops) as f64 * 1e9, fastest(reps, |r| r.run_ns))
}

/// Median over repetitions of a phase's host time divided by the
/// reference time around it, in reference seconds.
fn ref_seconds(reps: &[Rep], ref_ns: &[f64], f: fn(&Rep) -> u64) -> f64 {
    let ratios: Vec<f64> = reps.iter().zip(ref_ns).map(|(r, &t)| ratio(f(r) as f64, t)).collect();
    median(&ratios) / RUNS_PER_REF_S
}

/// The end-to-end metrics over untraced repetitions, in [`END_TO_END`]
/// order. `ref_ns` is the reference time around each repetition.
pub fn end_to_end(reps: &[Rep], ref_ns: &[f64], peak_rss_mib: f64) -> Vec<f64> {
    let sim = &reps[0].sim;
    vec![
        ref_seconds(reps, ref_ns, |r| r.setup_ns),
        ratio(reps[0].ops as f64, ref_seconds(reps, ref_ns, |r| r.run_ns)),
        ref_seconds(reps, ref_ns, |r| r.recovery_ns),
        peak_rss_mib,
        sim.commit_p50_us,
        sim.commit_p99_us,
        sim.virt_ops_per_s,
        sim.recovery_virt_ms,
    ]
}

/// Span totals keyed by `(phase root, span name)`, summed over the
/// traced repetitions.
pub type Totals = BTreeMap<(&'static str, &'static str), SpanTotals>;

/// Add one traced repetition's totals into `acc`.
pub fn accumulate(acc: &mut Totals, rep: Totals) {
    for (k, t) in rep {
        let a = acc.entry(k).or_default();
        a.count += t.count;
        a.total_ns += t.total_ns;
        a.self_ns += t.self_ns;
    }
}

/// The per-layer metrics, in [`PER_LAYER`] order. `traced` and
/// `untraced` are the repetitions of each kind, `totals` the traced
/// ones' spans.
pub fn per_layer(traced: &[Rep], untraced: &[Rep], totals: &Totals, failed_frac: f64) -> Vec<f64> {
    let n = traced.len() as f64;
    let sim = &traced[0].sim;
    let count = |k: &str| sim.counts.get(k).copied().unwrap_or(0.0) * n;
    let sum = |root: Option<&str>, prefix: &str| {
        totals
            .iter()
            .filter(|((r, name), _)| root.is_none_or(|x| x == *r) && name.starts_with(prefix))
            .fold(SpanTotals::default(), |mut a, (_, t)| {
                a.count += t.count;
                a.total_ns += t.total_ns;
                a.self_ns += t.self_ns;
                a
            })
    };
    let run = sum(Some("run"), "run").total_ns as f64;
    let txns = count("txns");
    let execute = sum(Some("run"), "workload.execute");
    let driver = sum(Some("run"), "driver.run");
    let backend = sum(Some("run"), "memdb.backend.");
    let checkpoint = sum(Some("run"), "memdb.checkpoint");
    let restore = sum(Some("recovery"), "memdb.recovery.restore");
    let replay = sum(Some("recovery"), "memdb.recovery.replay");
    let pwrite = sum(None, "core.api.x_pwrite");
    let fsync = sum(None, "core.api.x_fsync");
    let pread = sum(None, "core.api.x_pread");
    let core_run = sum(Some("run"), "core.api.");
    let layers: BTreeMap<&str, f64> = [
        ("workload.execute.host_ns_per_txn", ratio(execute.total_ns as f64, txns)),
        ("workload.execute.host_share", ratio(execute.total_ns as f64, run)),
        ("driver.self_host_ns_per_txn", ratio(driver.self_ns as f64, txns)),
        ("driver.self_host_share", ratio(driver.self_ns as f64, run)),
        ("memdb.backend.host_ns_per_call", ratio(backend.total_ns as f64, backend.count as f64)),
        ("memdb.backend.host_share", ratio(backend.total_ns as f64, run)),
        (
            "memdb.checkpoint.host_ms",
            ratio(checkpoint.total_ns as f64 / 1e6, checkpoint.count as f64),
        ),
        ("memdb.checkpoint.host_share", ratio(checkpoint.total_ns as f64, run)),
        ("memdb.recovery.restore_host_ms", ratio(restore.total_ns as f64 / 1e6, n)),
        ("memdb.recovery.replay_host_ms", ratio(replay.total_ns as f64 / 1e6, n)),
        (
            "core.api.x_pwrite.host_ns_per_kib",
            ratio(pwrite.total_ns as f64, count("core.api.x_pwrite.kib")),
        ),
        ("core.api.x_fsync.host_ns_per_call", ratio(fsync.total_ns as f64, fsync.count as f64)),
        (
            "core.api.x_pread.host_ns_per_kib",
            ratio(pread.total_ns as f64, count("core.api.x_pread.kib")),
        ),
        ("core.api.host_share", ratio(core_run.total_ns as f64, run)),
        ("run.host_ms", ratio(run / 1e6, n)),
        ("commit.samples", sim.commit_samples as f64),
        ("trace.untraced_host_ops_per_s", host_ops_per_s(untraced)),
        ("trace.traced_host_ops_per_s", host_ops_per_s(traced)),
        ("trace.overhead_frac", 1.0 - ratio(host_ops_per_s(traced), host_ops_per_s(untraced))),
        ("bench.failed_frac", failed_frac),
        ("bench.reps", (traced.len() + untraced.len()) as f64),
    ]
    .into_iter()
    .chain(sim.layers.iter().map(|(k, v)| (*k, *v)))
    .collect();
    PER_LAYER.iter().map(|(name, _)| layers.get(name).copied().unwrap_or(0.0)).collect()
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str)],
    values: &[f64],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .zip(values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
