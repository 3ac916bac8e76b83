//! `ycsb-lifecycle`: the log lifecycle end to end.
//!
//! YCSB-A (50/50 read/update, zipfian) on 4 simulated workers with 4 KiB
//! groups and a log pipeline of depth 4, on the segmented WAL. The run is
//! cut into chunks; after each but the last, a ping-pong checkpoint goes
//! to the conventional side and truncates the archive. Then the device
//! power-fails, the newest checkpoint is restored, and the segments after
//! it are replayed; the recovered database must match the live one.
//!
//! Why: each transaction is cheap, so the runner, WAL and segment costs
//! per transaction show; checkpoint, restore and replay are the only
//! users of the block path and of the conventional side's reads. The
//! table is sized so the snapshot image (~40 MiB) exceeds the device's
//! 32 MiB data buffer.

use crate::tpcc_local::device;
use crate::trace::{timed, SharedTracer};
use crate::wrap::{TimedBackend, TimedWorkload};
use crate::{device_layers, percentile, ratio, sim_digest, Checks, Rep, SimResult};
use memdb::SegmentView;
use memdb::{replay_segments, Checkpointer, Lsn, SegmentConfig, WalConfig, WalManager, XssdLog};
use pcie::MmioMode;
use simkit::{MetricsRegistry, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;
use xssd_bench::driver::{self, DriverConfig};
use xssd_bench::ycsb::{self, YcsbConfig};
use xssd_core::{Cluster, XLogFile};

/// Rows loaded.
const RECORDS: u64 = 100_000;
/// Value bytes per row.
const VALUE_SIZE: usize = 400;
/// Simulated length of one chunk.
const CHUNK_MS: u64 = 15;
/// Chunks per run; a checkpoint follows every chunk but the last.
const CHUNKS: u64 = 4;
/// Simulated worker cores.
const WORKERS: usize = 4;
/// Group-commit threshold.
const GROUP_BYTES: u64 = 4 << 10;
/// Group commits in flight.
const PIPELINE_DEPTH: usize = 4;
/// Sealed-segment size.
const SEGMENT_BYTES: u64 = 64 << 10;
/// First LBA of the checkpoint slots, clear of the destage ring
/// (LBAs 0..4096).
const CHECKPOINT_BASE_LBA: u64 = 8192;
/// LBAs per checkpoint slot (64 MiB of 16 KiB pages).
const CHECKPOINT_SLOT_LBAS: u64 = 4096;

/// Bytes per `x_pread` call when reading the log back.
const READBACK_CHUNK: u64 = 1 << 20;

fn ycsb_config() -> YcsbConfig {
    YcsbConfig { records: RECORDS, value_size: VALUE_SIZE, ..YcsbConfig::default() }
}

/// One repetition.
pub fn run(seed: u64, tracer: &SharedTracer) -> Rep {
    let t_setup = Instant::now();
    let (mut db, mut workload, mut wal, dev) = timed(tracer, "setup", 0, || {
        let (db, workload, _rng) = ycsb::setup(ycsb_config(), seed);
        let mut cluster = Cluster::new();
        let dev = cluster.add_device(device());
        let backend = TimedBackend::new(XssdLog::new(cluster, dev, "villars-sram"), tracer.clone());
        let mut wal = WalManager::new(
            backend,
            WalConfig { group_threshold: GROUP_BYTES, ..WalConfig::default() },
        );
        wal.enable_segments(SegmentConfig { segment_bytes: SEGMENT_BYTES });
        (db, TimedWorkload::new(workload, tracer.clone()), wal, dev)
    });
    let setup_ns = t_setup.elapsed().as_nanos() as u64;
    let mut ck = Checkpointer::new(dev, CHECKPOINT_BASE_LBA, CHECKPOINT_SLOT_LBAS);

    let mut checks = Checks::default();
    let mut samples = Vec::new();
    let (mut committed, mut measured, mut measured_ns) = (0u64, 0u64, 0u64);
    let (mut log_bytes, mut flushes) = (0u64, 0u64);
    let (mut ck_virt_ns, mut ck_image_bytes, mut checkpoints) = (0u64, 0u64, 0u64);
    let mut ck_done = SimTime::ZERO;
    let mut snapshot_offset = 0u64;
    let mut committed_since_snapshot = 0u64;

    let t_run = Instant::now();
    let run_span = tracer.borrow_mut().enter("run", 0);
    for chunk in 0..CHUNKS {
        // Every driver call restarts its clock at zero while the device
        // timeline carries on: the workers' first transactions catch up
        // to the log writer's clock and are excluded as a ramp (committed
        // all the same). The measured window then also spans the previous
        // checkpoint's virtual duration, during which logging goes on, so
        // throughput and latency are taken over checkpoints too.
        let start = wal.log_writer_free();
        let cfg = DriverConfig {
            workers: WORKERS,
            ramp_up: start.saturating_since(SimTime::ZERO),
            measure: SimDuration::from_millis(CHUNK_MS) + ck_done.saturating_since(start),
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ chunk,
            log_pipeline_depth: PIPELINE_DEPTH,
            ..DriverConfig::default()
        };
        let report = timed(tracer, "driver.run", chunk, || {
            driver::run(&mut db, &mut wal, &mut workload, &cfg)
        });
        let chunk_committed = report.run.committed + report.ramp_excluded;
        committed += chunk_committed;
        committed_since_snapshot += chunk_committed;
        measured += report.run.committed;
        measured_ns += report.run.elapsed.as_nanos();
        samples.extend_from_slice(report.run.latency_us.samples());
        log_bytes = report.run.log_bytes;
        flushes = report.run.flushes;
        if chunk + 1 < CHUNKS {
            let span = tracer.borrow_mut().enter("memdb.checkpoint", chunk);
            let now = wal.log_writer_free();
            let horizon = wal.durable_upto().0;
            let cluster = wal.backend_mut().inner_mut().cluster_mut();
            let (t, meta) = ck.checkpoint(cluster, now, &db, horizon);
            wal.truncate_below(Lsn(meta.log_offset));
            tracer.borrow_mut().exit(span);
            ck_virt_ns += t.saturating_since(now).as_nanos();
            ck_image_bytes += meta.bytes;
            ck_done = ck_done.max(t);
            checkpoints += 1;
            snapshot_offset = meta.log_offset;
            committed_since_snapshot = 0;
        }
    }
    tracer.borrow_mut().exit(run_span);
    let run_ns = t_run.elapsed().as_nanos() as u64;
    checks.check(wal.pending_bytes() == 0, || {
        format!("{} WAL bytes still pending after the drain", wal.pending_bytes())
    });
    let durable = wal.durable_upto().0;
    let aborted = db.aborts();

    // Power-fail, reboot, restore the newest checkpoint, read the log
    // after it back from the device, replay it, and compare with the
    // live database.
    let crash_at = wal.log_writer_free().max(ck_done) + SimDuration::from_millis(1);
    let t_rec = Instant::now();
    let rec_span = tracer.borrow_mut().enter("recovery", 0);
    let cluster = wal.backend_mut().inner_mut().cluster_mut();
    cluster.advance(crash_at);
    cluster.power_fail(dev, crash_at);
    cluster.reboot_device(dev);
    let restored = timed(tracer, "memdb.recovery.restore", 0, || ck.restore(cluster, crash_at));
    let mut recovered_at = crash_at;
    let mut suffix = Vec::new();
    if let Some((t, meta, _)) = &restored {
        recovered_at = *t;
        let mut reader = XLogFile::open_lane_at(dev, 0, MmioMode::WriteCombining, meta.log_offset);
        while meta.log_offset + (suffix.len() as u64) < durable {
            let offset = meta.log_offset + suffix.len() as u64;
            let len = READBACK_CHUNK.min(durable - offset) as usize;
            let read = timed(tracer, "core.api.x_pread", offset, || {
                reader.x_pread(cluster, recovered_at, len)
            });
            match read {
                Ok((t, bytes)) => {
                    recovered_at = t;
                    suffix.extend_from_slice(&bytes);
                }
                Err(e) => {
                    checks.check(false, || format!("log read-back at {offset}: {e}"));
                    break;
                }
            }
        }
    }
    let mut replay = None;
    match restored {
        Some((_, meta, mut recovered)) => {
            checks.check(
                meta.generation == checkpoints && meta.log_offset == snapshot_offset,
                || {
                    format!(
                        "restored generation {} at {}, expected {checkpoints} at {snapshot_offset}",
                        meta.generation, meta.log_offset
                    )
                },
            );
            let seg = wal.segments().expect("segments are enabled in setup");
            let views = seg.views();
            checks.check(suffix == archived(&views, meta.log_offset, durable), || {
                format!("device log after {} differs from the WAL's archive", meta.log_offset)
            });
            let r = timed(tracer, "memdb.recovery.replay", 0, || {
                replay_segments(&mut recovered, meta.log_offset, &views, durable)
            });
            let live = db.fingerprint();
            checks.check(recovered.fingerprint() == live, || {
                "recovered database differs from the live one".to_string()
            });
            checks.check(r.torn_bytes == 0, || {
                format!("{} torn bytes on a drained log", r.torn_bytes)
            });
            checks.check(r.txns_committed as u64 == committed_since_snapshot, || {
                format!(
                    "replayed {} transactions, {committed_since_snapshot} committed after the snapshot",
                    r.txns_committed
                )
            });
            replay = Some(r);
        }
        None => checks.check(false, || "no valid checkpoint to restore".to_string()),
    }
    tracer.borrow_mut().exit(rec_span);
    let recovery_ns = t_rec.elapsed().as_nanos() as u64;

    let mut reg = MetricsRegistry::new();
    reg.collect("", &wal);
    reg.collect("", workload.inner());
    if let Some(r) = &replay {
        reg.collect("", r);
    }
    let snap = reg.snapshot();

    let backend = wal.backend();
    let executed = workload.executed();
    let mut acks = backend.ack_us().to_vec();
    let seg = wal.segments().expect("segments are enabled in setup");
    let mut layers = BTreeMap::new();
    layers.insert("memdb.backend.calls_per_txn", ratio(backend.calls() as f64, executed as f64));
    layers.insert("memdb.backend.ack_virt_p99_us", percentile(&mut acks, 99.0));
    layers.insert("memdb.wal.group_bytes_mean", ratio(log_bytes as f64, flushes as f64));
    layers.insert("memdb.wal.flushes_per_ktxn", ratio(flushes as f64 * 1e3, committed as f64));
    layers.insert("memdb.segment.seals", seg.seals() as f64);
    layers.insert("memdb.segment.retired", seg.retired_segments() as f64);
    layers.insert("memdb.checkpoint.virt_ms", ratio(ck_virt_ns as f64 / 1e6, checkpoints as f64));
    layers.insert(
        "memdb.checkpoint.image_mib",
        ratio(ck_image_bytes as f64 / (1 << 20) as f64, checkpoints as f64),
    );
    let r = replay.unwrap_or_default();
    layers.insert("memdb.recovery.replay_bytes", r.replay_bytes as f64);
    layers.insert("memdb.recovery.records_scanned", r.records_scanned as f64);
    let cl = backend.inner().cluster();
    let dies = cl.device(dev).config().conventional.geometry.total_dies();
    let deliveries = cl.domain_event_counts().iter().sum();
    let end = recovered_at;
    device_layers(&snap, committed, end.as_nanos(), dies, cl.len(), deliveries, &mut layers);
    let mut counts = BTreeMap::new();
    counts.insert("txns", executed as f64);
    counts.insert("core.api.x_pread.kib", suffix.len() as f64 / 1024.0);

    let mut sim = SimResult {
        commit_p50_us: percentile(&mut samples, 50.0),
        commit_p99_us: percentile(&mut samples, 99.0),
        commit_samples: samples.len() as u64,
        virt_ops_per_s: ratio(measured as f64 * 1e9, measured_ns as f64),
        recovery_virt_ms: recovered_at.saturating_since(crash_at).as_nanos() as f64 / 1e6,
        layers,
        counts,
        digest: 0,
    };
    sim.digest = sim_digest(&snap, &sim);
    let mut failures = checks.failures;
    let failed = failures.len() as u64 + aborted;
    if aborted > 0 {
        failures.push(format!("{aborted} YCSB transactions aborted"));
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

/// The archived log bytes at `[from, to)`.
fn archived(views: &[SegmentView<'_>], from: u64, to: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for v in views {
        let end = v.base_lsn + v.bytes.len() as u64;
        let (a, b) = (from.max(v.base_lsn), to.min(end));
        if a < b {
            out.extend_from_slice(&v.bytes[(a - v.base_lsn) as usize..(b - v.base_lsn) as usize]);
        }
    }
    out
}
