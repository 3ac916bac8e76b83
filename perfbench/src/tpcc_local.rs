//! `tpcc-local`: the Fig. 9 headline cell.
//!
//! TPC-C standard mix at bench scale, 8 simulated workers, one
//! villars-sram device with the paper's 32 KiB intake queue, 16 KiB
//! group commit on the blocking log writer. Most host time is spent
//! executing transactions (`tpcc` + `memdb::storage`), so a change to the
//! database hot path shows here; 16 KiB groups fit the intake queue, so a
//! device-stack change should barely move it.
//!
//! Recovery: power-fail the device, read the whole durable log back
//! through `x_pread` and check that it decodes, without a torn byte, to
//! exactly the transactions that committed.

use crate::trace::{timed, SharedTracer};
use crate::wrap::{TimedBackend, TimedWorkload};
use crate::{device_layers, percentile, ratio, sim_digest, Checks, Rep, SimResult};
use memdb::{decode_stream, LogOp, WalConfig, WalManager, XssdLog};
use pcie::MmioMode;
use simkit::{MetricsRegistry, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;
use tpcc::TpccConfig;
use xssd_bench::driver::{self, DriverConfig};
use xssd_core::{Cluster, VillarsConfig, XLogFile};

/// Simulated run length.
const MEASURE_MS: u64 = 50;
/// Simulated worker cores.
const WORKERS: usize = 8;
/// Bytes per `x_pread` call when reading the log back.
const READBACK_CHUNK: usize = 1 << 20;

/// The villars-sram device with the paper's 32 KiB CMB flow-control queue.
pub fn device() -> VillarsConfig {
    let mut config = VillarsConfig::villars_sram();
    config.cmb.intake_queue_bytes = 32 << 10;
    config
}

/// One repetition.
pub fn run(seed: u64, tracer: &SharedTracer) -> Rep {
    let t_setup = Instant::now();
    let (mut db, mut workload, mut wal, dev) = timed(tracer, "setup", 0, || {
        let (db, workload, _rng) = tpcc::setup(TpccConfig::bench(), seed);
        let mut cluster = Cluster::new();
        let dev = cluster.add_device(device());
        let backend = TimedBackend::new(XssdLog::new(cluster, dev, "villars-sram"), tracer.clone());
        let wal = WalManager::new(backend, WalConfig::default());
        (db, TimedWorkload::new(workload, tracer.clone()), wal, dev)
    });
    let setup_ns = t_setup.elapsed().as_nanos() as u64;

    let cfg = DriverConfig {
        workers: WORKERS,
        measure: SimDuration::from_millis(MEASURE_MS),
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7DCC,
        log_pipeline_depth: 1,
        ..DriverConfig::default()
    };
    let t_run = Instant::now();
    let run_span = tracer.borrow_mut().enter("run", 0);
    let report =
        timed(tracer, "driver.run", 0, || driver::run(&mut db, &mut wal, &mut workload, &cfg));
    tracer.borrow_mut().exit(run_span);
    let run_ns = t_run.elapsed().as_nanos() as u64;

    let mut checks = Checks::default();
    checks.check(wal.pending_bytes() == 0, || {
        format!("{} WAL bytes still pending after the drain", wal.pending_bytes())
    });
    let spec_rollbacks = workload.inner().stats().rollbacks;
    let unexpected_aborts = report.run.aborted.saturating_sub(spec_rollbacks);

    // Power-fail at the end of the run, then read the durable log back.
    let crash_at = wal.log_writer_free().max(SimTime::ZERO + report.run.elapsed);
    let t_rec = Instant::now();
    let rec_span = tracer.borrow_mut().enter("recovery", 0);
    let cluster = wal.backend_mut().inner_mut().cluster_mut();
    let crash = cluster.power_fail(dev, crash_at);
    cluster.reboot_device(dev);
    let durable = crash.durable_upto[0];
    let mut reader = XLogFile::open_lane_at(dev, 0, MmioMode::WriteCombining, 0);
    let mut stream = Vec::with_capacity(durable as usize);
    let mut now = crash_at;
    while (stream.len() as u64) < durable {
        let len = READBACK_CHUNK.min((durable - stream.len() as u64) as usize);
        let op = stream.len() as u64;
        match timed(tracer, "core.api.x_pread", op, || reader.x_pread(cluster, now, len)) {
            Ok((t, bytes)) => {
                now = t;
                stream.extend_from_slice(&bytes);
            }
            Err(e) => {
                checks.check(false, || format!("log read-back failed at {}: {e}", stream.len()));
                break;
            }
        }
    }
    let (records, consumed) = timed(tracer, "recovery.decode", 0, || decode_stream(&stream));
    tracer.borrow_mut().exit(rec_span);
    let recovery_ns = t_rec.elapsed().as_nanos() as u64;
    let recovery_virt_ms = now.saturating_since(crash_at).as_nanos() as f64 / 1e6;

    let committed = report.run.committed;
    let commits_on_log = records.iter().filter(|r| r.op == LogOp::Commit).count() as u64;
    checks.check(durable == report.run.log_bytes, || {
        format!("durable log {durable} B != {} B the WAL wrote", report.run.log_bytes)
    });
    checks.check(consumed == stream.len(), || {
        format!("log decodes only {consumed} of {} durable bytes", stream.len())
    });
    checks.check(commits_on_log == committed, || {
        format!("{commits_on_log} commit records on the log, {committed} transactions committed")
    });

    let mut reg = MetricsRegistry::new();
    reg.collect("", &report);
    reg.collect("", &wal);
    reg.collect("", workload.inner());
    let snap = reg.snapshot();
    let bytes_in = snap.counter("core.cmb.lane0.bytes_in");
    checks.check(bytes_in == report.run.log_bytes, || {
        format!("db.log_bytes {} != CMB bytes_in {bytes_in}", report.run.log_bytes)
    });

    let mut samples = report.run.latency_us.samples().to_vec();
    let backend = wal.backend();
    let executed = workload.executed();
    let mut acks = backend.ack_us().to_vec();
    let mut layers = BTreeMap::new();
    layers.insert("memdb.backend.calls_per_txn", ratio(backend.calls() as f64, executed as f64));
    layers.insert("memdb.backend.ack_virt_p99_us", percentile(&mut acks, 99.0));
    layers.insert(
        "memdb.wal.group_bytes_mean",
        ratio(report.run.log_bytes as f64, report.run.flushes as f64),
    );
    layers.insert(
        "memdb.wal.flushes_per_ktxn",
        ratio(report.run.flushes as f64 * 1e3, committed as f64),
    );
    let cl = backend.inner().cluster();
    let dies = cl.device(dev).config().conventional.geometry.total_dies();
    let deliveries = cl.domain_event_counts().iter().sum();
    device_layers(&snap, committed, now.as_nanos(), dies, cl.len(), deliveries, &mut layers);
    let mut counts = BTreeMap::new();
    counts.insert("txns", executed as f64);
    counts.insert("core.api.x_pread.kib", stream.len() as f64 / 1024.0);

    let mut sim = SimResult {
        commit_p50_us: percentile(&mut samples, 50.0),
        commit_p99_us: percentile(&mut samples, 99.0),
        commit_samples: samples.len() as u64,
        virt_ops_per_s: report.throughput_tps(),
        recovery_virt_ms,
        layers,
        counts,
        digest: 0,
    };
    sim.digest = sim_digest(&snap, &sim);
    let mut failures = checks.failures;
    let failed = failures.len() as u64 + unexpected_aborts;
    if unexpected_aborts > 0 {
        failures.push(format!("{unexpected_aborts} aborts beyond the spec's NewOrder rollbacks"));
    }
    Rep {
        setup_ns,
        run_ns,
        recovery_ns,
        ops: committed,
        attempted: executed + checks.made,
        failed,
        failures,
        sim,
    }
}
