//! Checkpointing: bounding recovery when the destage ring wraps.
//!
//! A Villars destage ring is finite — the paper sizes it "much larger than
//! the one on the fast side" (Fig. 3), but it still wraps, and log data
//! beyond the ring is gone. A database that runs longer than one ring's
//! worth of log therefore checkpoints: it serializes its tables through the
//! *conventional* block interface (the same device, the workload isolation
//! of §6.4 applies) and records the log offset the snapshot covers.
//! Recovery = load the newest valid snapshot + replay the log suffix from
//! its offset.
//!
//! Snapshots are written ping-pong into two slots so a crash mid-checkpoint
//! always leaves the previous one intact.

use crate::key::SmallKey;
use crate::log::{crc32c, Crc32c};
use crate::storage::Database;
use simkit::{Bytes, SimTime};
use xssd_core::{Cluster, DeviceIndex};

/// Snapshot framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Magic bytes missing (slot never written or torn header).
    BadMagic,
    /// Checksum mismatch (torn or corrupt snapshot).
    BadChecksum,
    /// Structurally truncated image.
    Truncated,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("snapshot magic missing"),
            SnapshotError::BadChecksum => f.write_str("snapshot checksum mismatch"),
            SnapshotError::Truncated => f.write_str("snapshot truncated"),
        }
    }
}

impl std::error::Error for SnapshotError {}

const SNAP_MAGIC: &[u8; 8] = b"XSSDSNAP";
/// Magic + framed length + generation + log offset.
const HEADER_LEN: usize = 8 + 8 + 8 + 8;
/// Header + table count + trailing CRC: the smallest well-formed image.
const MIN_IMAGE: usize = HEADER_LEN + 4 + 4;

/// Metadata describing one checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Monotonically increasing checkpoint generation.
    pub generation: u64,
    /// The snapshot reflects every log byte below this offset; recovery
    /// replays from here.
    pub log_offset: u64,
    /// Serialized snapshot length in bytes.
    pub bytes: u64,
}

/// Serialize the full database (catalog + rows) into a self-validating
/// image, framed by a trailing CRC-32C (Castagnoli).
pub fn encode_snapshot(db: &Database, generation: u64, log_offset: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_pieces(db, generation, log_offset, 64 << 10, |piece| out.extend_from_slice(piece));
    out
}

/// The same image as [`encode_snapshot`], cut into `page`-byte device
/// pages (the last one may be short), each its own buffer ready to stage.
/// Returns the pages and the image length.
fn encode_pages(db: &Database, generation: u64, log_offset: u64, page: usize) -> (Vec<Bytes>, u64) {
    let mut pages = Vec::new();
    let total = encode_pieces(db, generation, log_offset, page, |p| {
        pages.push(Bytes::copy_from_slice(p));
    });
    (pages, total)
}

/// The encoded length of `db`'s snapshot image.
fn snapshot_len(db: &Database) -> u64 {
    let mut len = MIN_IMAGE;
    for (tid, name) in db.table_names().iter().enumerate() {
        len += 2 + name.len() + 8;
        db.for_each_row(tid as u16, |k, v| len += 4 + 4 + k.len() + v.len());
    }
    len as u64
}

/// Encode `db`'s snapshot image and hand it to `emit` in `piece`-byte
/// pieces (the last one may be short). The image is never held whole:
/// each piece is folded into the CRC while it is still in cache. Returns
/// the image length.
fn encode_pieces(
    db: &Database,
    generation: u64,
    log_offset: u64,
    piece: usize,
    emit: impl FnMut(&[u8]),
) -> u64 {
    // The total image length goes in the header, so the first piece can
    // leave before the rows are all encoded; it lets a reader working over
    // page-padded media find the exact image boundary.
    let total = snapshot_len(db);
    let mut w =
        PieceWriter { buf: Vec::with_capacity(piece), piece, written: 0, crc: Crc32c::new(), emit };
    w.put(SNAP_MAGIC);
    w.put(&total.to_le_bytes());
    w.put(&generation.to_le_bytes());
    w.put(&log_offset.to_le_bytes());
    let names = db.table_names();
    w.put(&(names.len() as u32).to_le_bytes());
    for (tid, name) in names.iter().enumerate() {
        w.put(&(name.len() as u16).to_le_bytes());
        w.put(name.as_bytes());
        let rows = db.table(tid as u16).map(|t| t.len()).unwrap_or(0) as u64;
        w.put(&rows.to_le_bytes());
        db.for_each_row(tid as u16, |k, v| {
            w.put(&(k.len() as u32).to_le_bytes());
            w.put(&(v.len() as u32).to_le_bytes());
            w.put(k);
            w.put(v);
        });
    }
    let written = w.finish();
    assert_eq!(written, total, "snapshot length precomputed wrongly");
    total
}

/// Buffers encoded bytes into fixed-size pieces, folding each full piece
/// into the running CRC before handing it on.
struct PieceWriter<F: FnMut(&[u8])> {
    buf: Vec<u8>,
    piece: usize,
    written: u64,
    crc: Crc32c,
    emit: F,
}

impl<F: FnMut(&[u8])> PieceWriter<F> {
    fn put(&mut self, mut data: &[u8]) {
        self.written += data.len() as u64;
        while !data.is_empty() {
            let n = (self.piece - self.buf.len()).min(data.len());
            self.buf.extend_from_slice(&data[..n]);
            data = &data[n..];
            if self.buf.len() == self.piece {
                self.crc.update(&self.buf);
                (self.emit)(&self.buf);
                self.buf.clear();
            }
        }
    }

    /// Append the CRC of everything put so far, emit the last piece, and
    /// return the image length.
    fn finish(mut self) -> u64 {
        self.crc.update(&self.buf);
        let sum = self.crc.finish();
        // The CRC bytes may complete a piece; folding them into the
        // (already finished) CRC on the way out is harmless.
        self.put(&sum.to_le_bytes());
        if !self.buf.is_empty() {
            (self.emit)(&self.buf);
        }
        self.written
    }
}

/// The exact image length framed in a snapshot header, if the prefix is
/// long enough and carries the magic. Trailing page padding is ignored.
pub fn framed_len(bytes: &[u8]) -> Result<usize, SnapshotError> {
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated);
    }
    if &bytes[..8] != SNAP_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize)
}

/// Reconstruct a database from a snapshot image. Trailing bytes beyond the
/// framed length (page padding, stale data from an older, larger snapshot in
/// the same slot) are ignored.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(CheckpointMeta, Database), SnapshotError> {
    let total = framed_len(bytes)?;
    if total < MIN_IMAGE || bytes.len() < total {
        return Err(SnapshotError::Truncated);
    }
    let bytes = &bytes[..total];
    let stored = u32::from_le_bytes(bytes[total - 4..].try_into().expect("4 bytes"));
    if crc32c(&bytes[..total - 4]) != stored {
        return Err(SnapshotError::BadChecksum);
    }
    decode_verified(bytes)
}

/// Decode an image of exactly its framed length whose CRC has already
/// been checked. Keys and rows are built straight from slices of the
/// image.
fn decode_verified(bytes: &[u8]) -> Result<(CheckpointMeta, Database), SnapshotError> {
    let total = bytes.len();
    let body = &bytes[..total - 4];
    let mut pos = 16usize;
    let mut take = |n: usize| -> Result<&[u8], SnapshotError> {
        if n > body.len() - pos {
            return Err(SnapshotError::Truncated);
        }
        let s = &body[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let generation = u64::from_le_bytes(take(8)?.try_into().expect("8"));
    let log_offset = u64::from_le_bytes(take(8)?.try_into().expect("8"));
    let tables = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
    let mut db = Database::new();
    for _ in 0..tables {
        let nlen = u16::from_le_bytes(take(2)?.try_into().expect("2")) as usize;
        let name = String::from_utf8_lossy(take(nlen)?).into_owned();
        let tid = db.create_table(&name);
        let rows = u64::from_le_bytes(take(8)?.try_into().expect("8"));
        for _ in 0..rows {
            let klen = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
            let vlen = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
            let key = SmallKey::from_slice(take(klen)?);
            let val = Bytes::copy_from_slice(take(vlen)?);
            db.install_row(tid, key, val);
        }
    }
    Ok((CheckpointMeta { generation, log_offset, bytes: total as u64 }, db))
}

/// Streaming check of one slot's image, fed page by page as it lies on
/// the media: the CRC runs over the body without collecting it, and the
/// stored CRC (the image's last 4 bytes) may straddle a page boundary.
struct SlotCheck {
    header: [u8; HEADER_LEN],
    crc: Crc32c,
    stored: [u8; 4],
    seen: usize,
}

impl SlotCheck {
    fn new() -> Self {
        SlotCheck { header: [0; HEADER_LEN], crc: Crc32c::new(), stored: [0; 4], seen: 0 }
    }

    /// Feed the next page. `Ok(Some(total))` once the framed image is
    /// covered, `Ok(None)` while more pages are needed.
    fn feed(&mut self, page: &[u8]) -> Result<Option<usize>, SnapshotError> {
        let start = self.seen;
        self.seen += page.len();
        if start < HEADER_LEN {
            let n = (HEADER_LEN - start).min(page.len());
            self.header[start..start + n].copy_from_slice(&page[..n]);
        }
        if self.seen < 16 {
            // Framed length not known yet; a valid image's body runs past
            // it, so all of this page is body.
            self.crc.update(page);
            return Ok(None);
        }
        let total = framed_len(&self.header)?;
        if total < MIN_IMAGE {
            return Err(SnapshotError::Truncated);
        }
        let body_end = total - 4;
        if start < body_end {
            self.crc.update(&page[..self.seen.min(body_end) - start]);
        }
        let (from, to) = (start.max(body_end), self.seen.min(total));
        if from < to {
            self.stored[from - body_end..to - body_end]
                .copy_from_slice(&page[from - start..to - start]);
        }
        Ok((self.seen >= total).then_some(total))
    }

    /// The generation of a covered image whose CRC matches.
    fn finish(&self) -> Result<u64, SnapshotError> {
        if self.crc.finish() != u32::from_le_bytes(self.stored) {
            return Err(SnapshotError::BadChecksum);
        }
        Ok(u64::from_le_bytes(self.header[16..24].try_into().expect("8 bytes")))
    }
}

/// Ping-pong checkpoint storage on a Villars conventional side.
#[derive(Debug)]
pub struct Checkpointer {
    dev: DeviceIndex,
    /// First LBA of slot 0; slot 1 follows at `base + slot_lbas`.
    base_lba: u64,
    /// LBAs reserved per slot.
    slot_lbas: u64,
    generation: u64,
}

impl Checkpointer {
    /// A checkpointer over device `dev`, using `2 * slot_lbas` blocks from
    /// `base_lba` (keep this range disjoint from the destage ring).
    pub fn new(dev: DeviceIndex, base_lba: u64, slot_lbas: u64) -> Self {
        assert!(slot_lbas > 0);
        Checkpointer { dev, base_lba, slot_lbas, generation: 0 }
    }

    fn slot_base(&self, slot: u64) -> u64 {
        self.base_lba + slot * self.slot_lbas
    }

    fn page_bytes(&self, cl: &Cluster) -> usize {
        cl.device(self.dev).config().conventional.geometry.page_bytes as usize
    }

    /// Write a checkpoint of `db` covering the log below `log_offset`.
    /// Returns the completion instant and the metadata. The write goes
    /// through the conventional block interface (Conventional-class flash
    /// traffic) and is durable (flushed) when this returns.
    pub fn checkpoint(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        db: &Database,
        log_offset: u64,
    ) -> (SimTime, CheckpointMeta) {
        self.generation += 1;
        let page = self.page_bytes(cl);
        let (pages, bytes) = encode_pages(db, self.generation, log_offset, page);
        assert!(
            pages.len() as u64 <= self.slot_lbas,
            "snapshot ({bytes} B) exceeds the checkpoint slot ({} LBAs of {page} B)",
            self.slot_lbas
        );
        let t = self.write_slot(cl, now, pages);
        (t, CheckpointMeta { generation: self.generation, log_offset, bytes })
    }

    /// Crash-injection helper: begin a checkpoint of `db` but tear it —
    /// only the first `keep` bytes of the image reach the slot before the
    /// power cut. The generation is consumed (the slot this wrote into is
    /// the one the torn checkpoint was claiming), exactly as a real
    /// mid-checkpoint crash leaves things; [`Checkpointer::restore`] must
    /// then fall back to the surviving slot's previous generation.
    /// Returns the instant the torn prefix was durable and the metadata
    /// the checkpoint *would* have carried.
    pub fn checkpoint_partial(
        &mut self,
        cl: &mut Cluster,
        now: SimTime,
        db: &Database,
        log_offset: u64,
        keep: usize,
    ) -> (SimTime, CheckpointMeta) {
        self.generation += 1;
        let image = encode_snapshot(db, self.generation, log_offset);
        let meta =
            CheckpointMeta { generation: self.generation, log_offset, bytes: image.len() as u64 };
        let keep = keep.min(image.len());
        if keep == 0 {
            return (now, meta);
        }
        let page = self.page_bytes(cl);
        let pages: Vec<Bytes> = image[..keep].chunks(page).map(Bytes::copy_from_slice).collect();
        assert!(pages.len() as u64 <= self.slot_lbas, "torn prefix exceeds the checkpoint slot");
        (self.write_slot(cl, now, pages), meta)
    }

    /// Stage `pages` into the current generation's slot, then issue one
    /// ranged block write and a flush. Returns when they are durable.
    fn write_slot(&self, cl: &mut Cluster, now: SimTime, pages: Vec<Bytes>) -> SimTime {
        let base = self.slot_base(self.generation % 2);
        let blocks = pages.len() as u32;
        let conv = cl.device_mut(self.dev).conventional_mut();
        for (lba, page) in (base..).zip(pages) {
            conv.stage_write_data(lba, page);
        }
        let t = cl.block_write_blocking(self.dev, now, base, blocks);
        cl.block_flush_blocking(self.dev, t)
    }

    /// Check a slot's image in place on the media. Returns its generation
    /// and framed length when the CRC matches.
    fn check_slot(&self, cl: &Cluster, slot: u64) -> Result<(u64, usize), SnapshotError> {
        let conv = cl.device(self.dev).conventional();
        let base = self.slot_base(slot);
        let mut check = SlotCheck::new();
        for i in 0..self.slot_lbas {
            let Some(page) = conv.media_content(base + i) else { break };
            if let Some(total) = check.feed(&page)? {
                return Ok((check.finish()?, total));
            }
        }
        Err(SnapshotError::Truncated)
    }

    /// Collect a checked slot's image (exactly `total` bytes) and decode
    /// it.
    fn load_slot(
        &self,
        cl: &Cluster,
        slot: u64,
        total: usize,
    ) -> Result<(CheckpointMeta, Database), SnapshotError> {
        let conv = cl.device(self.dev).conventional();
        let base = self.slot_base(slot);
        let mut image = Vec::with_capacity(total);
        for i in 0..self.slot_lbas {
            let Some(page) = conv.media_content(base + i) else { break };
            let n = (total - image.len()).min(page.len());
            image.extend_from_slice(&page[..n]);
            if image.len() == total {
                return decode_verified(&image);
            }
        }
        Err(SnapshotError::Truncated)
    }

    /// Load the newest valid checkpoint from either slot, driving the
    /// device for the read timing. Returns `None` when no valid snapshot
    /// exists.
    ///
    /// Both slots are checked in place; each valid one is read through the
    /// block interface (in slot order, from `now`), but only the newest is
    /// collected and decoded — the older one only if that decode fails.
    pub fn restore(
        &self,
        cl: &mut Cluster,
        now: SimTime,
    ) -> Option<(SimTime, CheckpointMeta, Database)> {
        let page = self.page_bytes(cl) as u64;
        // (generation, slot, framed length, read completion)
        let mut valid = Vec::with_capacity(2);
        for slot in 0..2u64 {
            let Ok((generation, total)) = self.check_slot(cl, slot) else { continue };
            // Timing: one block read per page actually used.
            let blocks = (total as u64).div_ceil(page) as u32;
            let t = cl.block_read_blocking(self.dev, now, self.slot_base(slot), blocks);
            valid.push((generation, slot, total, t));
        }
        // Newest first; on a tie the lower slot wins (stable sort).
        valid.sort_by_key(|v| std::cmp::Reverse(v.0));
        valid.into_iter().find_map(|(_, slot, total, t)| {
            self.load_slot(cl, slot, total).ok().map(|(meta, db)| (t, meta, db))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xssd_core::VillarsConfig;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let a = db.create_table("alpha");
        let b = db.create_table("beta");
        let mut ctx = db.begin();
        for i in 0..50u32 {
            db.insert(&mut ctx, a, crate::storage::keys::composite(&[i]), vec![i as u8; 40]);
        }
        db.insert(&mut ctx, b, b"solo".to_vec(), b"row".to_vec());
        db.commit(ctx).unwrap();
        db
    }

    #[test]
    fn snapshot_round_trip() {
        let db = sample_db();
        let image = encode_snapshot(&db, 3, 12345);
        let (meta, restored) = decode_snapshot(&image).unwrap();
        assert_eq!(meta.generation, 3);
        assert_eq!(meta.log_offset, 12345);
        assert_eq!(restored.fingerprint(), db.fingerprint());
        assert_eq!(restored.table_id("beta"), db.table_id("beta"));
    }

    #[test]
    fn paged_encoding_matches_the_whole_image() {
        let db = sample_db();
        let image = encode_snapshot(&db, 4, 321);
        assert_eq!(image.len() as u64, snapshot_len(&db));
        for page in [1, 3, 7, 16, 37, 512, 4096, image.len(), image.len() + 1] {
            let (pages, total) = encode_pages(&db, 4, 321, page);
            assert_eq!(total, image.len() as u64);
            assert_eq!(pages.len(), image.len().div_ceil(page), "page {page}");
            assert!(pages.iter().rev().skip(1).all(|p| p.len() == page), "page {page}");
            assert_eq!(pages.iter().flat_map(|p| p.iter().copied()).collect::<Vec<u8>>(), image);
        }
    }

    #[test]
    fn snapshot_detects_corruption() {
        let db = sample_db();
        let mut image = encode_snapshot(&db, 1, 0);
        let mid = image.len() / 2;
        image[mid] ^= 0x40;
        assert_eq!(decode_snapshot(&image).err(), Some(SnapshotError::BadChecksum));
        assert_eq!(decode_snapshot(&image[..10]).err(), Some(SnapshotError::Truncated));
        let mut bad_magic = encode_snapshot(&db, 1, 0);
        bad_magic[0] = b'Y';
        assert_eq!(decode_snapshot(&bad_magic).err(), Some(SnapshotError::BadMagic));
    }

    #[test]
    fn checkpoint_restore_round_trip_through_device() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let db = sample_db();
        // Keep the slot range clear of the small destage ring (64 LBAs).
        let mut ck = Checkpointer::new(dev, 128, 16);
        let (t1, meta) = ck.checkpoint(&mut cl, SimTime::ZERO, &db, 777);
        assert!(t1 > SimTime::ZERO);
        assert_eq!(meta.generation, 1);
        let (t2, meta2, restored) = ck.restore(&mut cl, t1).expect("snapshot present");
        assert!(t2 > t1);
        assert_eq!(meta2.log_offset, 777);
        assert_eq!(restored.fingerprint(), db.fingerprint());
    }

    #[test]
    fn ping_pong_keeps_previous_generation() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let mut ck = Checkpointer::new(dev, 128, 16);
        let db1 = sample_db();
        let (t1, _) = ck.checkpoint(&mut cl, SimTime::ZERO, &db1, 100);
        // Mutate and checkpoint again (other slot).
        let mut db2 = sample_db();
        let t = db2.table_id("alpha").unwrap();
        let mut ctx = db2.begin();
        db2.insert(&mut ctx, t, b"extra".to_vec(), b"row".to_vec());
        db2.commit(ctx).unwrap();
        let (t2, meta2) = ck.checkpoint(&mut cl, t1, &db2, 200);
        assert_eq!(meta2.generation, 2);
        // Restore returns the NEWEST.
        let (_t3, meta3, restored) = ck.restore(&mut cl, t2).expect("snapshot");
        assert_eq!(meta3.generation, 2);
        assert_eq!(restored.fingerprint(), db2.fingerprint());
    }

    #[test]
    fn shrinking_snapshot_in_reused_slot_still_restores() {
        // Regression: generation 3 writes a SMALLER image into the slot
        // generation 1 used; the stale non-zero tail pages of generation 1
        // must not confuse the reader (the framed length bounds the image).
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let mut ck = Checkpointer::new(dev, 128, 32);
        let big = sample_db(); // ~50 rows
        let mut small = Database::new();
        let t = small.create_table("alpha");
        small.create_table("beta");
        let mut ctx = small.begin();
        small.insert(&mut ctx, t, b"only".to_vec(), b"row".to_vec());
        small.commit(ctx).unwrap();

        let (t1, m1) = ck.checkpoint(&mut cl, SimTime::ZERO, &big, 10); // slot 1
        let (t2, _m2) = ck.checkpoint(&mut cl, t1, &big, 20); // slot 0
        let (t3, m3) = ck.checkpoint(&mut cl, t2, &small, 30); // slot 1 again, smaller
        assert!(m3.bytes < m1.bytes, "test needs a shrinking image");
        let (_t, meta, restored) = ck.restore(&mut cl, t3).expect("restores");
        assert_eq!(meta.generation, 3, "newest generation wins");
        assert_eq!(restored.fingerprint(), small.fingerprint());
    }

    #[test]
    fn checkpoint_survives_power_failure() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let mut ck = Checkpointer::new(dev, 128, 16);
        let db = sample_db();
        let (t1, _) = ck.checkpoint(&mut cl, SimTime::ZERO, &db, 42);
        cl.power_fail(dev, t1);
        cl.reboot_device(dev);
        let (_t, meta, restored) = ck.restore(&mut cl, t1).expect("flushed checkpoint survives");
        assert_eq!(meta.log_offset, 42);
        assert_eq!(restored.fingerprint(), db.fingerprint());
    }

    #[test]
    fn torn_checkpoint_restores_the_surviving_slot() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let mut ck = Checkpointer::new(dev, 128, 16);
        let db1 = sample_db();
        let (t1, m1) = ck.checkpoint(&mut cl, SimTime::ZERO, &db1, 100);
        // Generation 2 tears mid-image; the crash lands before the slot
        // is complete.
        let mut db2 = sample_db();
        let tab = db2.table_id("alpha").unwrap();
        let mut ctx = db2.begin();
        db2.insert(&mut ctx, tab, b"post-snap".to_vec(), b"row".to_vec());
        db2.commit(ctx).unwrap();
        let (t2, m2) = ck.checkpoint_partial(&mut cl, t1, &db2, 200, m1.bytes as usize / 2);
        cl.power_fail(dev, t2);
        cl.reboot_device(dev);
        // The surviving generation-1 snapshot wins.
        let (_t, meta, restored) = ck.restore(&mut cl, t2).expect("survivor slot valid");
        assert_eq!(meta.generation, 1);
        assert_eq!(meta.log_offset, 100);
        assert_eq!(restored.fingerprint(), db1.fingerprint());
        assert_eq!(m2.generation, 2, "the torn generation was consumed");
        // The next full checkpoint (generation 3) lands in the other slot
        // and takes over cleanly.
        let (t3, m3) = ck.checkpoint(&mut cl, t2, &db2, 200);
        assert_eq!(m3.generation, 3);
        let (_t, meta3, restored3) = ck.restore(&mut cl, t3).expect("snapshot");
        assert_eq!(meta3.generation, 3);
        assert_eq!(restored3.fingerprint(), db2.fingerprint());
    }

    /// Feed `image` to a [`SlotCheck`] in seeded random pieces, the way a
    /// slot's pages arrive (the last piece may run past the image, as
    /// stale slot bytes do).
    fn check_in_pieces(
        image: &[u8],
        rng: &mut simkit::DetRng,
    ) -> Result<(u64, usize), SnapshotError> {
        let mut check = SlotCheck::new();
        let mut rest = image;
        while !rest.is_empty() {
            let n = rng.uniform(1, rest.len().min(64) as u64) as usize;
            if let Some(total) = check.feed(&rest[..n])? {
                return Ok((check.finish()?, total));
            }
            rest = &rest[n..];
        }
        Err(SnapshotError::Truncated)
    }

    #[test]
    fn streaming_slot_check_agrees_with_decode_over_any_page_split() {
        let db = sample_db();
        let image = encode_snapshot(&db, 5, 99);
        let mut rng = simkit::DetRng::new(0x5107_C8EC);
        let mut padded = image.clone();
        padded.extend_from_slice(&[0xEE; 100]); // stale tail past the frame
        for _ in 0..50 {
            assert_eq!(check_in_pieces(&image, &mut rng), Ok((5, image.len())));
            assert_eq!(check_in_pieces(&padded, &mut rng), Ok((5, image.len())));
        }
        // Corrupt one byte anywhere, including each of the stored CRC's
        // four bytes: the streaming check and the full decode both refuse.
        for _ in 0..200 {
            let mut bad = image.clone();
            let at = rng.uniform(0, image.len() as u64 - 1) as usize;
            bad[at] ^= 1 << rng.uniform(0, 7);
            assert!(check_in_pieces(&bad, &mut rng).is_err(), "byte {at}");
            assert!(decode_snapshot(&bad).is_err(), "byte {at}");
        }
        assert!(check_in_pieces(&image[..image.len() - 1], &mut rng).is_err());
    }

    #[test]
    fn restore_when_the_stored_crc_straddles_a_page_boundary() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let page = cl.device(dev).config().conventional.geometry.page_bytes as usize;
        let with_row = |len: usize| {
            let mut db = Database::new();
            let t = db.create_table("t");
            let mut ctx = db.begin();
            db.insert(&mut ctx, t, b"key".to_vec(), vec![0x5A; len]);
            db.commit(ctx).unwrap();
            db
        };
        let base = encode_snapshot(&with_row(0), 1, 0).len();
        let mut ck = Checkpointer::new(dev, 128, 16);
        let mut now = SimTime::ZERO;
        // 1, 2 or 3 CRC bytes spill onto the image's last page.
        for spill in 1..=3usize {
            let len = page + (page + spill - base % page) % page;
            let db = with_row(len);
            let (t, meta) = ck.checkpoint(&mut cl, now, &db, spill as u64);
            assert_eq!(meta.bytes as usize % page, spill);
            let (t, restored_meta, restored) = ck.restore(&mut cl, t).expect("restores");
            assert_eq!(restored_meta, meta);
            assert_eq!(restored.fingerprint(), db.fingerprint());
            now = t;
        }
    }

    #[test]
    fn empty_device_restores_nothing() {
        let mut cl = Cluster::new();
        let dev = cl.add_device(VillarsConfig::small());
        let ck = Checkpointer::new(dev, 128, 16);
        assert!(ck.restore(&mut cl, SimTime::ZERO).is_none());
    }
}
