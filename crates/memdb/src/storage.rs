//! The main-memory storage engine.
//!
//! An ERMIA-class main-memory database keeps all data in DRAM and persists
//! only the transaction log (paper §1); the storage engine is therefore
//! ordered in-memory tables plus a transaction layer producing WAL records.
//! Tables are `BTreeMap`s over order-preserving encoded keys, so TPC-C's
//! range lookups (customer-by-last-name, latest order, oldest new-order)
//! are native scans.
//!
//! The steady-state transaction loop is allocation-free on the read side:
//! reads return borrowed `&[u8]` slices, range lookups go through visitor
//! APIs ([`Database::scan_visit`]), keys live inline in [`SmallKey`]s, the
//! read validation set records `(offset, len)` spans into a per-[`TxnCtx`]
//! bump arena, and finished contexts are recycled through a pool so their
//! buffers are reused across transactions. Row images are refcounted
//! [`simkit::Bytes`], shared between the stored table image and the
//! emitted [`LogRecord`]s.

use crate::key::SmallKey;
use crate::log::{LogOp, LogRecord, TableId};
use std::collections::BTreeMap;
use std::ops::Bound;

/// A row image (refcounted; cloning shares the allocation).
pub type Row = simkit::Bytes;
/// An encoded, order-preserving key (inline up to 24 bytes).
pub type Key = SmallKey;

#[derive(Debug, Clone)]
struct Versioned {
    row: Row,
    version: u64,
}

/// One table: ordered rows + a version per row for validation.
#[derive(Debug, Default)]
pub struct Table {
    rows: BTreeMap<Key, Versioned>,
}

impl Table {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Why a transaction failed to commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// A row read by the transaction changed before commit.
    Conflict {
        /// Table of the conflicting read.
        table: TableId,
        /// Key of the conflicting read.
        key: Key,
    },
    /// Insert of a key that already exists.
    DuplicateKey(Key),
    /// Update/delete of a missing key.
    NotFound(Key),
    /// Unknown table id.
    NoSuchTable(TableId),
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Conflict { table, key } => {
                write!(f, "validation conflict on table {table}, key {key:02X?}")
            }
            TxnError::DuplicateKey(k) => write!(f, "duplicate key {k:02X?}"),
            TxnError::NotFound(k) => write!(f, "key not found {k:02X?}"),
            TxnError::NoSuchTable(t) => write!(f, "no such table {t}"),
        }
    }
}

impl std::error::Error for TxnError {}

#[derive(Debug, Clone)]
enum PendingWrite {
    Insert(Key, Row),
    Update(Key, Row),
    Delete(Key),
}

/// One validation-set entry: the read key lives as a span in the
/// context's bump arena, not its own allocation.
#[derive(Debug, Clone, Copy)]
struct ReadEntry {
    table: TableId,
    start: u32,
    len: u16,
    version: Option<u64>,
}

/// An open transaction: buffered writes + read validation set.
///
/// Read keys are appended to an internal bump arena; the context itself is
/// recycled through the database's pool on commit, so a steady-state
/// transaction reuses the previous one's buffers instead of allocating.
#[derive(Debug, Default)]
pub struct TxnCtx {
    id: u64,
    reads: Vec<ReadEntry>,
    writes: Vec<(TableId, PendingWrite)>,
    arena: Vec<u8>,
}

impl TxnCtx {
    /// Transaction id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Buffered write count.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Validation-set entry count.
    pub fn read_count(&self) -> usize {
        self.reads.len()
    }

    fn record_read(&mut self, table: TableId, key: &[u8], version: Option<u64>) {
        debug_assert!(key.len() <= u16::MAX as usize);
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(key);
        self.reads.push(ReadEntry { table, start, len: key.len() as u16, version });
    }

    fn read_key(&self, e: &ReadEntry) -> &[u8] {
        &self.arena[e.start as usize..e.start as usize + e.len as usize]
    }

    fn reset(&mut self, id: u64) {
        self.id = id;
        self.reads.clear();
        self.writes.clear();
        self.arena.clear();
    }
}

/// Recycled contexts kept per database (bounds pool memory under bursty
/// worker counts).
const CTX_POOL_CAP: usize = 64;

/// The database: a catalog of tables and the transaction layer.
#[derive(Debug, Default)]
pub struct Database {
    tables: Vec<Table>,
    names: Vec<String>,
    next_txn: u64,
    commits: u64,
    aborts: u64,
    ctx_pool: Vec<TxnCtx>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Create a table; returns its id.
    pub fn create_table(&mut self, name: &str) -> TableId {
        assert!(self.tables.len() < u16::MAX as usize);
        self.tables.push(Table::default());
        self.names.push(name.to_string());
        (self.tables.len() - 1) as TableId
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.names.iter().position(|n| n == name).map(|i| i as TableId)
    }

    /// Borrow a table.
    pub fn table(&self, id: TableId) -> Option<&Table> {
        self.tables.get(id as usize)
    }

    /// Committed transactions so far.
    pub fn commits(&self) -> u64 {
        self.commits
    }

    /// Aborted transactions so far.
    pub fn aborts(&self) -> u64 {
        self.aborts
    }

    /// Begin a transaction (reusing a pooled context when available).
    pub fn begin(&mut self) -> TxnCtx {
        let id = self.next_txn;
        self.next_txn += 1;
        let mut ctx = self.ctx_pool.pop().unwrap_or_default();
        ctx.reset(id);
        ctx
    }

    /// Return a context's buffers to the pool without committing (explicit
    /// application-level rollback; does not count as an abort).
    pub fn rollback(&mut self, mut ctx: TxnCtx) {
        if self.ctx_pool.len() < CTX_POOL_CAP {
            ctx.reset(0);
            self.ctx_pool.push(ctx);
        }
    }

    /// Transactional point read. Records the observed version for commit
    /// validation. Sees the transaction's own buffered writes. The
    /// returned slice borrows the stored row image — decode what you need
    /// before the next operation on `ctx`.
    pub fn get<'a>(&'a self, ctx: &'a mut TxnCtx, table: TableId, key: &[u8]) -> Option<&'a [u8]> {
        // Own writes first (read-your-writes). Resolve to an index first so
        // the borrow returned below starts inside its own arm (NLL).
        let mut own: Option<Option<usize>> = None;
        for (i, (t, w)) in ctx.writes.iter().enumerate().rev() {
            if *t != table {
                continue;
            }
            match w {
                PendingWrite::Insert(k, _) | PendingWrite::Update(k, _) if *k == *key => {
                    own = Some(Some(i));
                    break;
                }
                PendingWrite::Delete(k) if *k == *key => {
                    own = Some(None);
                    break;
                }
                _ => {}
            }
        }
        match own {
            Some(Some(i)) => match &ctx.writes[i].1 {
                PendingWrite::Insert(_, v) | PendingWrite::Update(_, v) => {
                    return Some(v.as_slice())
                }
                PendingWrite::Delete(_) => unreachable!("index resolved to a buffered image"),
            },
            Some(None) => return None,
            None => {}
        }
        let slot = self.tables.get(table as usize)?.rows.get(key);
        ctx.record_read(table, key, slot.map(|s| s.version));
        slot.map(|s| s.row.as_slice())
    }

    /// Transactional range scan over `[from, to)`, visiting up to `limit`
    /// `(key, row)` pairs in key order without cloning either. (Scans
    /// validate at item granularity, not phantom-proof — adequate for the
    /// workload model.) Returns the number of rows visited.
    pub fn scan_visit<F>(
        &self,
        ctx: &mut TxnCtx,
        table: TableId,
        from: &[u8],
        to: &[u8],
        limit: usize,
        mut visit: F,
    ) -> usize
    where
        F: FnMut(&[u8], &[u8]),
    {
        let Some(t) = self.tables.get(table as usize) else { return 0 };
        let mut n = 0;
        for (k, v) in t.rows.range::<[u8], _>((Bound::Included(from), Bound::Excluded(to))) {
            if n >= limit {
                break;
            }
            ctx.record_read(table, k.as_slice(), Some(v.version));
            visit(k.as_slice(), v.row.as_slice());
            n += 1;
        }
        n
    }

    /// Allocating convenience form of [`scan_visit`](Database::scan_visit)
    /// for tests and cold paths: collects up to `limit` cloned pairs.
    pub fn scan(
        &self,
        ctx: &mut TxnCtx,
        table: TableId,
        from: &[u8],
        to: &[u8],
        limit: usize,
    ) -> Vec<(Key, Row)> {
        let Some(t) = self.tables.get(table as usize) else { return Vec::new() };
        let mut out = Vec::new();
        for (k, v) in t.rows.range::<[u8], _>((Bound::Included(from), Bound::Excluded(to))) {
            if out.len() >= limit {
                break;
            }
            ctx.record_read(table, k.as_slice(), Some(v.version));
            out.push((k.clone(), v.row.clone()));
        }
        out
    }

    /// First `(key, row)` in `[from, to)` (e.g. the oldest new-order),
    /// borrowed.
    pub fn first_in_range<'a>(
        &'a self,
        ctx: &'a mut TxnCtx,
        table: TableId,
        from: &[u8],
        to: &[u8],
    ) -> Option<(&'a [u8], &'a [u8])> {
        let t = self.tables.get(table as usize)?;
        let (k, v) =
            t.rows.range::<[u8], _>((Bound::Included(from), Bound::Excluded(to))).next()?;
        ctx.record_read(table, k.as_slice(), Some(v.version));
        Some((k.as_slice(), v.row.as_slice()))
    }

    /// Last `(key, row)` in `[from, to)` (e.g. a customer's latest order),
    /// borrowed.
    pub fn last_in_range<'a>(
        &'a self,
        ctx: &'a mut TxnCtx,
        table: TableId,
        from: &[u8],
        to: &[u8],
    ) -> Option<(&'a [u8], &'a [u8])> {
        let t = self.tables.get(table as usize)?;
        let (k, v) =
            t.rows.range::<[u8], _>((Bound::Included(from), Bound::Excluded(to))).next_back()?;
        ctx.record_read(table, k.as_slice(), Some(v.version));
        Some((k.as_slice(), v.row.as_slice()))
    }

    /// Buffer an insert.
    pub fn insert(
        &self,
        ctx: &mut TxnCtx,
        table: TableId,
        key: impl Into<Key>,
        row: impl Into<Row>,
    ) {
        ctx.writes.push((table, PendingWrite::Insert(key.into(), row.into())));
    }

    /// Buffer an update.
    pub fn update(
        &self,
        ctx: &mut TxnCtx,
        table: TableId,
        key: impl Into<Key>,
        row: impl Into<Row>,
    ) {
        ctx.writes.push((table, PendingWrite::Update(key.into(), row.into())));
    }

    /// Buffer a delete.
    pub fn delete(&self, ctx: &mut TxnCtx, table: TableId, key: impl Into<Key>) {
        ctx.writes.push((table, PendingWrite::Delete(key.into())));
    }

    /// Validate and apply the transaction. On success the buffered writes
    /// are installed atomically and the WAL records (ending with a commit
    /// marker) are returned for the log manager to persist. Row images in
    /// the records share their allocation with the installed table rows.
    pub fn commit(&mut self, mut ctx: TxnCtx) -> Result<Vec<LogRecord>, TxnError> {
        let result = self.commit_inner(&mut ctx);
        if self.ctx_pool.len() < CTX_POOL_CAP {
            ctx.reset(0);
            self.ctx_pool.push(ctx);
        }
        result
    }

    fn commit_inner(&mut self, ctx: &mut TxnCtx) -> Result<Vec<LogRecord>, TxnError> {
        // Validation: every read version unchanged.
        for e in &ctx.reads {
            let t = self.tables.get(e.table as usize).ok_or(TxnError::NoSuchTable(e.table))?;
            let key = ctx.read_key(e);
            let current = t.rows.get(key).map(|s| s.version);
            if current != e.version {
                self.aborts += 1;
                return Err(TxnError::Conflict { table: e.table, key: Key::from_slice(key) });
            }
        }
        // Pre-check writes for structural errors (atomicity: reject before
        // applying anything).
        for (table, w) in &ctx.writes {
            let t = self.tables.get(*table as usize).ok_or(TxnError::NoSuchTable(*table))?;
            match w {
                PendingWrite::Insert(k, _) => {
                    if t.rows.contains_key(k) {
                        self.aborts += 1;
                        return Err(TxnError::DuplicateKey(k.clone()));
                    }
                }
                PendingWrite::Update(k, _) | PendingWrite::Delete(k) => {
                    if !t.rows.contains_key(k) {
                        // Updating a row this txn itself inserts is legal.
                        let own_insert = ctx.writes.iter().any(|(t2, w2)| {
                            *t2 == *table && matches!(w2, PendingWrite::Insert(k2, _) if k2 == k)
                        });
                        if !own_insert {
                            self.aborts += 1;
                            return Err(TxnError::NotFound(k.clone()));
                        }
                    }
                }
            }
        }
        // Apply + emit log records. Inserted/updated images are installed
        // and logged as the same refcounted buffer.
        let mut records = Vec::with_capacity(ctx.writes.len() + 1);
        let txn_id = ctx.id;
        for (table, w) in ctx.writes.drain(..) {
            let t = &mut self.tables[table as usize];
            match w {
                PendingWrite::Insert(k, v) => {
                    records.push(LogRecord {
                        txn_id,
                        op: LogOp::Insert,
                        table,
                        key: k.clone(),
                        value: v.clone(),
                    });
                    t.rows.insert(k, Versioned { row: v, version: txn_id });
                }
                PendingWrite::Update(k, v) => {
                    records.push(LogRecord {
                        txn_id,
                        op: LogOp::Update,
                        table,
                        key: k.clone(),
                        value: v.clone(),
                    });
                    t.rows.insert(k, Versioned { row: v, version: txn_id });
                }
                PendingWrite::Delete(k) => {
                    records.push(LogRecord {
                        txn_id,
                        op: LogOp::Delete,
                        table,
                        key: k.clone(),
                        value: Row::new(),
                    });
                    t.rows.remove(&k);
                }
            }
        }
        records.push(LogRecord::commit(txn_id));
        self.commits += 1;
        Ok(records)
    }

    /// Apply one *committed* log record directly (recovery / replica redo).
    /// Record application is idempotent for inserts/updates; the record's
    /// row image is installed by refcount bump, not copied.
    pub fn apply_record(&mut self, rec: &LogRecord) {
        match rec.op {
            LogOp::Commit => {}
            LogOp::Insert | LogOp::Update => {
                let table = rec.table as usize;
                while self.tables.len() <= table {
                    self.create_table(&format!("recovered_{}", self.tables.len()));
                }
                self.tables[table].rows.insert(
                    rec.key.clone(),
                    Versioned { row: rec.value.clone(), version: rec.txn_id },
                );
            }
            LogOp::Delete => {
                if let Some(t) = self.tables.get_mut(rec.table as usize) {
                    t.rows.remove(rec.key.as_slice());
                }
            }
        }
    }

    /// Raw (non-transactional) read, e.g. for verification.
    pub fn peek(&self, table: TableId, key: &[u8]) -> Option<&[u8]> {
        self.tables.get(table as usize)?.rows.get(key).map(|v| v.row.as_slice())
    }

    /// The catalog's table names in id order (checkpoint encoding).
    pub fn table_names(&self) -> &[String] {
        &self.names
    }

    /// Visit every `(key, row)` of a table in key order without cloning
    /// (checkpointing, verification).
    pub fn for_each_row<F>(&self, table: TableId, mut visit: F)
    where
        F: FnMut(&[u8], &[u8]),
    {
        if let Some(t) = self.tables.get(table as usize) {
            for (k, v) in &t.rows {
                visit(k.as_slice(), v.row.as_slice());
            }
        }
    }

    /// Install a row directly (checkpoint restore); bypasses transactions.
    pub fn install_row(&mut self, table: TableId, key: impl Into<Key>, row: impl Into<Row>) {
        let t = self.tables.get_mut(table as usize).expect("install_row into missing table");
        t.rows.insert(key.into(), Versioned { row: row.into(), version: 0 });
    }

    /// A stable fingerprint of all content (tables, keys, rows) for
    /// primary/replica equivalence checks. Every key and row is hashed
    /// behind its length, so moving bytes across a key/row boundary
    /// changes the fingerprint.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprint(0xcbf2_9ce4_8422_2325);
        for (i, t) in self.tables.iter().enumerate() {
            h.word(i as u64);
            for (k, v) in &t.rows {
                h.bytes(k);
                h.bytes(&v.row);
            }
        }
        h.finish()
    }
}

/// The [`Database::fingerprint`] mix: eight bytes per multiply-rotate step,
/// with a final avalanche. An equality check, not a cryptographic hash.
struct Fingerprint(u64);

impl Fingerprint {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }

    /// Length, then the bytes in 8-byte little-endian words (the last
    /// one zero-padded).
    fn bytes(&mut self, data: &[u8]) {
        self.word(data.len() as u64);
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ (h >> 33)
    }
}

/// Order-preserving key encoding helpers (big-endian fixed-width fields).
pub mod keys {
    use super::Key;

    /// Append a `u32` big-endian component.
    pub fn push_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a `u64` big-endian component.
    pub fn push_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a fixed-width, zero-padded string component.
    pub fn push_str(out: &mut Vec<u8>, s: &str, width: usize) {
        let bytes = s.as_bytes();
        let take = bytes.len().min(width);
        out.extend_from_slice(&bytes[..take]);
        out.extend(std::iter::repeat_n(0u8, width - take));
    }

    /// Compose a key from `u32` components (stack-built, no allocation for
    /// up to six components).
    pub fn composite(parts: &[u32]) -> Key {
        let mut out = Key::new();
        for p in parts {
            out.push_u32(*p);
        }
        out
    }

    /// The smallest key strictly greater than every key with prefix `p`
    /// (for range scans: `[p, successor(p))`).
    pub fn successor(p: &[u8]) -> Key {
        for i in (0..p.len()).rev() {
            if p[i] != 0xFF {
                let mut out = Key::from_slice(&p[..=i]);
                out.as_mut_slice()[i] += 1;
                return out;
            }
        }
        let mut out = Key::from_slice(p);
        out.push_bytes(&[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db_with_table() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.create_table("t");
        (db, t)
    }

    #[test]
    fn insert_commit_read_back() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k1".to_vec(), b"v1".to_vec());
        let recs = db.commit(ctx).unwrap();
        assert_eq!(recs.len(), 2, "insert + commit marker");
        assert_eq!(recs.last().unwrap().op, LogOp::Commit);
        let mut ctx2 = db.begin();
        assert_eq!(db.get(&mut ctx2, t, b"k1"), Some(&b"v1"[..]));
        assert_eq!(db.commits(), 1);
    }

    #[test]
    fn read_your_own_writes() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k".to_vec(), b"v0".to_vec());
        assert_eq!(db.get(&mut ctx, t, b"k"), Some(&b"v0"[..]));
        db.update(&mut ctx, t, b"k".to_vec(), b"v1".to_vec());
        assert_eq!(db.get(&mut ctx, t, b"k"), Some(&b"v1"[..]));
        db.delete(&mut ctx, t, b"k".to_vec());
        assert_eq!(db.get(&mut ctx, t, b"k"), None);
    }

    #[test]
    fn conflict_detected_on_changed_read() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        db.insert(&mut setup, t, b"k".to_vec(), b"v0".to_vec());
        db.commit(setup).unwrap();

        // T1 reads; T2 updates and commits; T1's commit must fail.
        let mut t1 = db.begin();
        let _ = db.get(&mut t1, t, b"k");
        db.update(&mut t1, t, b"k".to_vec(), b"from-t1".to_vec());

        let mut t2 = db.begin();
        let _ = db.get(&mut t2, t, b"k");
        db.update(&mut t2, t, b"k".to_vec(), b"from-t2".to_vec());
        db.commit(t2).unwrap();

        let err = db.commit(t1).unwrap_err();
        assert!(matches!(err, TxnError::Conflict { .. }));
        assert_eq!(db.peek(t, b"k").unwrap(), b"from-t2");
        assert_eq!(db.aborts(), 1);
    }

    #[test]
    fn duplicate_insert_rejected_atomically() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        db.insert(&mut setup, t, b"k".to_vec(), b"v".to_vec());
        db.commit(setup).unwrap();

        let mut bad = db.begin();
        db.insert(&mut bad, t, b"fresh".to_vec(), b"x".to_vec());
        db.insert(&mut bad, t, b"k".to_vec(), b"dup".to_vec());
        assert!(matches!(db.commit(bad), Err(TxnError::DuplicateKey(_))));
        // Atomicity: the fresh insert must not have been applied.
        assert!(db.peek(t, b"fresh").is_none());
    }

    #[test]
    fn update_of_missing_key_rejected() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.update(&mut ctx, t, b"ghost".to_vec(), b"v".to_vec());
        assert!(matches!(db.commit(ctx), Err(TxnError::NotFound(_))));
    }

    #[test]
    fn update_of_own_insert_allowed() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k".to_vec(), b"v0".to_vec());
        db.update(&mut ctx, t, b"k".to_vec(), b"v1".to_vec());
        db.commit(ctx).unwrap();
        assert_eq!(db.peek(t, b"k").unwrap(), b"v1");
    }

    #[test]
    fn scan_is_ordered_and_bounded() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        for i in [5u32, 1, 3, 2, 4] {
            db.insert(&mut setup, t, keys::composite(&[i]), vec![i as u8]);
        }
        db.commit(setup).unwrap();
        let mut ctx = db.begin();
        let rows = db.scan(&mut ctx, t, &keys::composite(&[2]), &keys::composite(&[5]), 10);
        let got: Vec<u8> = rows.iter().map(|(_, v)| v[0]).collect();
        assert_eq!(got, vec![2, 3, 4]);
        let limited = db.scan(&mut ctx, t, &keys::composite(&[0]), &keys::composite(&[99]), 2);
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn scan_visit_matches_scan() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        for i in 0..10u32 {
            db.insert(&mut setup, t, keys::composite(&[i]), vec![i as u8; 4]);
        }
        db.commit(setup).unwrap();
        let mut c1 = db.begin();
        let cloned = db.scan(&mut c1, t, &keys::composite(&[2]), &keys::composite(&[8]), 4);
        let mut c2 = db.begin();
        let mut visited = Vec::new();
        let n =
            db.scan_visit(&mut c2, t, &keys::composite(&[2]), &keys::composite(&[8]), 4, |k, v| {
                visited.push((k.to_vec(), v.to_vec()))
            });
        assert_eq!(n, cloned.len());
        assert_eq!(c1.read_count(), c2.read_count());
        for ((k1, v1), (k2, v2)) in cloned.iter().zip(&visited) {
            assert_eq!(k1.as_slice(), k2.as_slice());
            assert_eq!(v1.as_slice(), v2.as_slice());
        }
    }

    #[test]
    fn first_and_last_in_range() {
        let (mut db, t) = db_with_table();
        let mut setup = db.begin();
        for o in 1..=7u32 {
            db.insert(&mut setup, t, keys::composite(&[1, o]), vec![o as u8]);
        }
        db.insert(&mut setup, t, keys::composite(&[2, 1]), vec![0xFF]);
        db.commit(setup).unwrap();
        let mut ctx = db.begin();
        let from = keys::composite(&[1]);
        let to = keys::successor(&from);
        let (_, row) = db.last_in_range(&mut ctx, t, &from, &to).unwrap();
        assert_eq!(row, [7u8].as_slice());
        let (_, first) = db.first_in_range(&mut ctx, t, &from, &to).unwrap();
        assert_eq!(first, [1u8].as_slice());
    }

    #[test]
    fn key_successor_properties() {
        assert_eq!(keys::successor(&[1, 2, 3]), vec![1, 2, 4]);
        assert_eq!(keys::successor(&[1, 0xFF]), vec![2]);
        assert_eq!(keys::successor(&[0xFF, 0xFF]), vec![0xFF, 0xFF, 0]);
        // successor(p) > any key prefixed by p
        let p = vec![9u8, 9];
        let mut extended = p.clone();
        extended.extend_from_slice(&[0xFF; 8]);
        assert!(keys::successor(&p) > extended);
    }

    #[test]
    fn apply_record_replays_committed_state() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"a".to_vec(), b"1".to_vec());
        db.insert(&mut ctx, t, b"b".to_vec(), b"2".to_vec());
        let recs = db.commit(ctx).unwrap();
        let mut ctx2 = db.begin();
        db.delete(&mut ctx2, t, b"a".to_vec());
        let recs2 = db.commit(ctx2).unwrap();

        let mut replica = Database::new();
        replica.create_table("t");
        for r in recs.iter().chain(recs2.iter()) {
            replica.apply_record(r);
        }
        assert_eq!(replica.fingerprint(), db.fingerprint());
        assert!(replica.peek(t, b"a").is_none());
        assert_eq!(replica.peek(t, b"b").unwrap(), b"2");
    }

    #[test]
    fn fingerprint_distinguishes_content() {
        let (mut db1, t) = db_with_table();
        let mut db2 = Database::new();
        db2.create_table("t");
        assert_eq!(db1.fingerprint(), db2.fingerprint());
        let mut ctx = db1.begin();
        db1.insert(&mut ctx, t, b"x".to_vec(), b"y".to_vec());
        db1.commit(ctx).unwrap();
        assert_ne!(db1.fingerprint(), db2.fingerprint());
    }

    #[test]
    fn fingerprint_separates_key_and_row_boundaries() {
        // Regression: the same bytes split differently between key and row
        // once hashed identically.
        let fp = |key: &[u8], row: &[u8]| {
            let (mut db, t) = db_with_table();
            let mut ctx = db.begin();
            db.insert(&mut ctx, t, key.to_vec(), row.to_vec());
            db.commit(ctx).unwrap();
            db.fingerprint()
        };
        assert_ne!(fp(b"ab", b"c"), fp(b"a", b"bc"));
        assert_ne!(fp(b"abcdefgh", b""), fp(b"abcdefg", b"h"));
        assert_ne!(fp(b"k", b"\0"), fp(b"k", b""), "zero padding is not content");
        assert_eq!(fp(b"ab", b"c"), fp(b"ab", b"c"));
    }

    #[test]
    fn contexts_are_recycled() {
        let (mut db, t) = db_with_table();
        for i in 0..5u32 {
            let mut ctx = db.begin();
            db.insert(&mut ctx, t, keys::composite(&[i]), vec![1u8]);
            db.commit(ctx).unwrap();
        }
        // A recycled context must start clean.
        let ctx = db.begin();
        assert_eq!(ctx.read_count(), 0);
        assert_eq!(ctx.write_count(), 0);
        assert_eq!(ctx.id(), 5);
    }

    #[test]
    fn shared_row_images_between_table_and_log() {
        let (mut db, t) = db_with_table();
        let mut ctx = db.begin();
        db.insert(&mut ctx, t, b"k".to_vec(), vec![7u8; 64]);
        let recs = db.commit(ctx).unwrap();
        let logged = recs[0].value.as_slice().as_ptr();
        let stored = db.peek(t, b"k").unwrap().as_ptr();
        assert_eq!(logged, stored, "log record and table row share one buffer");
    }
}
