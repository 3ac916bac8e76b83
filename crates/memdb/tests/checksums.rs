//! Error-detection properties of the CRC-32C (Castagnoli) framing.
//!
//! CRC-32C detects every single-bit error and every burst error of 32 bits
//! or less. These tests hold the three framed formats to that: an encoded
//! [`LogRecord`], a sealed segment and a small snapshot image must reject
//! every single-bit flip, and every burst of 2–32 bits at a sample of
//! offsets (a burst of length `L` flips its first and last bit and a
//! seeded random pattern in between).

use memdb::{
    decode_one, decode_snapshot, encode_snapshot, keys, Database, LogOp, LogRecord, SegmentConfig,
    SegmentedLog,
};
use simkit::DetRng;

/// Every single-bit flip of `buf`, as a mutated copy.
fn single_bit_flips(buf: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..buf.len() * 8).map(move |bit| {
        let mut m = buf.to_vec();
        m[bit / 8] ^= 1 << (bit % 8);
        (bit, m)
    })
}

/// Bursts of every length 2..=32 bits at `offsets` sampled start bits,
/// as mutated copies with a description.
fn bursts(buf: &[u8], seed: u64, offsets: usize) -> Vec<(String, Vec<u8>)> {
    let mut rng = DetRng::new(seed);
    let bits = buf.len() * 8;
    let mut out = Vec::new();
    for _ in 0..offsets {
        for len in 2..=32usize.min(bits) {
            let start = rng.uniform(0, (bits - len) as u64) as usize;
            let mut m = buf.to_vec();
            for i in 0..len {
                let edge = i == 0 || i == len - 1;
                if edge || rng.chance(0.5) {
                    let bit = start + i;
                    m[bit / 8] ^= 1 << (bit % 8);
                }
            }
            out.push((format!("burst of {len} bits at bit {start}"), m));
        }
    }
    out
}

fn sample_record() -> LogRecord {
    LogRecord {
        txn_id: 0x0123_4567_89AB_CDEF,
        op: LogOp::Update,
        table: 5,
        key: b"warehouse-1/district-7".to_vec().into(),
        value: (0..120u8).collect::<Vec<u8>>().into(),
    }
}

#[test]
fn log_record_rejects_every_single_bit_flip() {
    let buf = sample_record().encode();
    assert!(decode_one(&buf).is_ok());
    for (bit, m) in single_bit_flips(&buf) {
        assert!(decode_one(&m).is_err(), "flip of bit {bit} accepted");
    }
}

#[test]
fn log_record_rejects_bursts_up_to_32_bits() {
    let buf = sample_record().encode();
    for (what, m) in bursts(&buf, 0xC5C0_0001, 24) {
        assert!(decode_one(&m).is_err(), "{what} accepted");
    }
}

fn sealed_segment() -> memdb::SealedSegment {
    let mut log = SegmentedLog::new(SegmentConfig { segment_bytes: 4096 });
    for i in 0..6u64 {
        let rec = LogRecord {
            txn_id: i,
            op: LogOp::Insert,
            table: 1,
            key: keys::composite(&[i as u32]),
            value: vec![i as u8; 40].into(),
        };
        log.append_record_bytes(&rec.encode());
    }
    log.seal();
    let seg = log.sealed().next().expect("one sealed segment").clone();
    assert!(seg.verify());
    seg
}

#[test]
fn sealed_segment_rejects_every_single_bit_flip() {
    let seg = sealed_segment();
    for (bit, bytes) in single_bit_flips(&seg.bytes) {
        let m = memdb::SealedSegment { bytes, ..seg.clone() };
        assert!(!m.verify(), "flip of bit {bit} accepted");
    }
    // Flips of the stamped CRC itself are caught too.
    for bit in 0..32 {
        let m = memdb::SealedSegment { crc: seg.crc ^ (1 << bit), ..seg.clone() };
        assert!(!m.verify(), "flip of CRC bit {bit} accepted");
    }
}

#[test]
fn sealed_segment_rejects_bursts_up_to_32_bits() {
    let seg = sealed_segment();
    for (what, bytes) in bursts(&seg.bytes, 0xC5C0_0002, 24) {
        let m = memdb::SealedSegment { bytes, ..seg.clone() };
        assert!(!m.verify(), "{what} accepted");
    }
}

fn small_snapshot() -> Vec<u8> {
    let mut db = Database::new();
    let a = db.create_table("alpha");
    let b = db.create_table("beta");
    let mut ctx = db.begin();
    for i in 0..6u32 {
        db.insert(&mut ctx, a, keys::composite(&[i]), vec![i as u8; 12]);
    }
    db.insert(&mut ctx, b, b"solo".to_vec(), b"row".to_vec());
    db.commit(ctx).unwrap();
    let image = encode_snapshot(&db, 9, 4242);
    assert!(decode_snapshot(&image).is_ok());
    image
}

#[test]
fn snapshot_rejects_every_single_bit_flip() {
    let image = small_snapshot();
    for (bit, m) in single_bit_flips(&image) {
        assert!(decode_snapshot(&m).is_err(), "flip of bit {bit} accepted");
    }
}

#[test]
fn snapshot_rejects_bursts_up_to_32_bits() {
    let image = small_snapshot();
    for (what, m) in bursts(&image, 0xC5C0_0003, 24) {
        assert!(decode_snapshot(&m).is_err(), "{what} accepted");
    }
}
