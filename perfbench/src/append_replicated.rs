//! `append-replicated`: the device stack with no database above it.
//!
//! One `XLogFile` on a primary with two eager secondaries over NTB writes
//! seeded groups of appends whose sizes span below and above the 32 KiB
//! intake queue, calls `x_fsync` after each group, and every few groups
//! reads the newest destaged page back with `x_pread`. Recovery
//! power-fails the primary and reads back everything its destage ring
//! still holds.
//!
//! Why: host time is nearly all `core`/`pcie`/`flash`/`simkit`, with no
//! `memdb` or `tpcc` work, and it is the only workload with cross-device
//! traffic — where a change to the event loop or the transport shows.

use crate::tpcc_local::device;
use crate::trace::{timed, SharedTracer};
use crate::{device_layers, percentile, ratio, sim_digest, Checks, Rep, SimResult};
use pcie::MmioMode;
use simkit::{DetRng, MetricsRegistry, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;
use xssd_core::{Cluster, XLogFile};

/// Append groups per run, each ending in one `x_fsync`.
const GROUPS: u64 = 2400;
/// Appends per group are drawn from `1..=MAX_APPENDS_PER_GROUP`.
const MAX_APPENDS_PER_GROUP: u64 = 4;
/// Append sizes are log-uniform in `[MIN_APPEND, MAX_APPEND]` bytes.
const MIN_APPEND: u64 = 256;
/// 1.5x the intake queue: the largest appends wait for credits. With
/// [`GROUPS`] groups the log (~56 MB) stays within the 64 MiB destage
/// ring, so recovery reads back all of it.
const MAX_APPEND: u64 = 48 << 10;
/// A tail read follows every this many groups.
const TAIL_EVERY: u64 = 8;
/// Bytes per tail read: one flash page.
const TAIL_BYTES: u64 = 16 << 10;
/// Bytes per `x_pread` call when reading the log back.
const READBACK_CHUNK: u64 = 1 << 20;
/// Period of the seeded byte pattern the log is made of: log byte `o` is
/// `pattern[o % PERIOD]`. Odd, so it never lines up with pages.
const PERIOD: u64 = (1 << 20) + 4099;
/// Secondaries mirrored to.
const SECONDARIES: [usize; 2] = [1, 2];

/// The seeded inputs: the byte pattern and each group's append sizes.
struct Inputs {
    pattern: Vec<u8>,
    groups: Vec<Vec<usize>>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0xA99E_4D00);
        let len = (PERIOD + MAX_APPEND.max(READBACK_CHUNK)) as usize;
        let mut pattern = Vec::with_capacity(len + 8);
        while pattern.len() < PERIOD as usize {
            pattern.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        pattern.truncate(PERIOD as usize);
        let wrap: Vec<u8> = pattern[..len - PERIOD as usize].to_vec();
        pattern.extend_from_slice(&wrap);
        let (lo, hi) = ((MIN_APPEND as f64).ln(), (MAX_APPEND as f64).ln());
        let groups = (0..GROUPS)
            .map(|_| {
                let n = rng.uniform(1, MAX_APPENDS_PER_GROUP);
                (0..n).map(|_| (lo + (hi - lo) * rng.unit()).exp().round() as usize).collect()
            })
            .collect();
        Inputs { pattern, groups }
    }

    /// The log bytes at `[offset, offset + len)`, `len <= READBACK_CHUNK`.
    fn at(&self, offset: u64, len: usize) -> &[u8] {
        let start = (offset % PERIOD) as usize;
        &self.pattern[start..start + len]
    }
}

/// One repetition.
pub fn run(seed: u64, tracer: &SharedTracer) -> Rep {
    let t_setup = Instant::now();
    let (inputs, mut cl, t0) = timed(tracer, "setup", 0, || {
        let inputs = Inputs::new(seed);
        let mut cl = Cluster::new();
        let primary = cl.add_device(device());
        for _ in SECONDARIES {
            cl.add_device(device());
        }
        let t0 = cl.configure_replication(SimTime::ZERO, primary, &SECONDARIES);
        (inputs, cl, t0)
    });
    let setup_ns = t_setup.elapsed().as_nanos() as u64;

    let mut checks = Checks::default();
    let mut file = XLogFile::open(0);
    let mut samples = Vec::with_capacity(GROUPS as usize);
    let (mut appends, mut tail_reads, mut tail_bytes) = (0u64, 0u64, 0u64);
    let mut now = t0;
    let t_run = Instant::now();
    let run_span = tracer.borrow_mut().enter("run", 0);
    for (g, sizes) in inputs.groups.iter().enumerate() {
        let g = g as u64;
        let group_span = tracer.borrow_mut().enter("append.group", g);
        let start = now;
        for &len in sizes {
            let data = inputs.at(file.written(), len);
            match timed(tracer, "core.api.x_pwrite", g, || file.x_pwrite(&mut cl, now, data)) {
                Ok(t) => now = t,
                Err(e) => {
                    checks.check(false, || format!("x_pwrite in group {g}: {e}"));
                }
            }
            appends += 1;
        }
        match timed(tracer, "core.api.x_fsync", g, || file.x_fsync(&mut cl, now)) {
            Ok(t) => now = t,
            Err(e) => {
                checks.check(false, || format!("x_fsync in group {g}: {e}"));
            }
        }
        samples.push(now.saturating_since(start).as_micros_f64());
        let fsynced = file.written();
        for s in SECONDARIES {
            let credit = cl.device_mut(s).local_credit(now, 0);
            checks.check(credit >= fsynced, || {
                format!("secondary {s} credit {credit} < fsync'd offset {fsynced} (group {g})")
            });
        }
        if (g + 1).is_multiple_of(TAIL_EVERY) {
            let destaged = cl.device(0).destaged_upto(0);
            if destaged >= TAIL_BYTES {
                let offset = destaged - TAIL_BYTES;
                let mut reader = XLogFile::open_lane_at(0, 0, MmioMode::WriteCombining, offset);
                let read = timed(tracer, "core.api.x_pread", g, || {
                    reader.x_pread(&mut cl, now, TAIL_BYTES as usize)
                });
                match read {
                    Ok((t, bytes)) => {
                        now = t;
                        tail_reads += 1;
                        tail_bytes += bytes.len() as u64;
                        checks.check(bytes == inputs.at(offset, bytes.len()), || {
                            format!("tail read at {offset} returned other bytes than written")
                        });
                    }
                    Err(e) => {
                        checks.check(false, || format!("x_pread at {offset}: {e}"));
                    }
                }
            }
        }
        tracer.borrow_mut().exit(group_span);
    }
    tracer.borrow_mut().exit(run_span);
    let run_ns = t_run.elapsed().as_nanos() as u64;
    let run_virt_ns = now.saturating_since(t0).as_nanos();
    let written = file.written();

    // Power-fail the primary and read back what its destage ring holds.
    let crash_at = now;
    let t_rec = Instant::now();
    let rec_span = tracer.borrow_mut().enter("recovery", 0);
    let crash = cl.power_fail(0, crash_at);
    cl.reboot_device(0);
    let durable = crash.durable_upto[0];
    checks.check(durable >= written, || {
        format!("durable frontier {durable} below the fsync'd offset {written}")
    });
    let from = cl.device(0).destage_readable_from(0).unwrap_or(0);
    let mut reader = XLogFile::open_lane_at(0, 0, MmioMode::WriteCombining, from);
    let mut offset = from;
    let mut rnow = crash_at;
    while offset < durable {
        let len = READBACK_CHUNK.min(durable - offset) as usize;
        match timed(tracer, "core.api.x_pread", offset, || reader.x_pread(&mut cl, rnow, len)) {
            Ok((t, bytes)) => {
                rnow = t;
                checks.check(bytes == inputs.at(offset, len), || {
                    format!("read-back at {offset} returned other bytes than written")
                });
                offset += len as u64;
            }
            Err(e) => {
                checks.check(false, || format!("read-back x_pread at {offset}: {e}"));
                break;
            }
        }
    }
    tracer.borrow_mut().exit(rec_span);
    let recovery_ns = t_rec.elapsed().as_nanos() as u64;
    let readback = offset - from;

    let mut reg = MetricsRegistry::new();
    reg.collect("", &cl);
    let snap = reg.snapshot();
    let mut layers = BTreeMap::new();
    let dies = cl.device(0).config().conventional.geometry.total_dies();
    let deliveries = cl.domain_event_counts().iter().sum();
    device_layers(&snap, GROUPS, rnow.as_nanos(), dies, cl.len(), deliveries, &mut layers);
    let mut counts = BTreeMap::new();
    counts.insert("core.api.x_pwrite.kib", written as f64 / 1024.0);
    counts.insert("core.api.x_pread.kib", (tail_bytes + readback) as f64 / 1024.0);

    let mut sim = SimResult {
        commit_p50_us: percentile(&mut samples, 50.0),
        commit_p99_us: percentile(&mut samples, 99.0),
        commit_samples: samples.len() as u64,
        virt_ops_per_s: ratio(GROUPS as f64 * 1e9, run_virt_ns as f64),
        recovery_virt_ms: rnow.saturating_since(crash_at).as_nanos() as f64 / 1e6,
        layers,
        counts,
        digest: 0,
    };
    sim.digest = sim_digest(&snap, &sim);
    Rep {
        setup_ns,
        run_ns,
        recovery_ns,
        ops: GROUPS,
        attempted: appends + GROUPS + tail_reads + checks.made,
        failed: checks.failures.len() as u64,
        failures: checks.failures,
        sim,
    }
}
