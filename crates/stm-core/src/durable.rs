//! Crash durability: write-ahead redo journaling and recovery.
//!
//! The paper's protocol is non-blocking across process *stalls* — helpers
//! finish whatever a dead processor left behind — but a full machine crash
//! still loses the heap. This module adds a durability backend behind the
//! [`Journal`] trait: every committed transaction appends one **redo
//! record** (owner, version, cell addresses, agreed pre-images, new values,
//! CRC) and flushes it to stable storage *before any participant installs a
//! value* (see `docs/protocol.md` §11 for the ordering argument). Recovery
//! ([`recover`]) scans the journal, discards a torn or unverified tail, and
//! replays decided-but-uninstalled transactions **exactly once** into a
//! rebuilt heap.
//!
//! Three implementations ship with the crate:
//!
//! * [`NoJournal`] — the default. `ACTIVE == false` compiles the entire
//!   journal path (including its step announcements) out of the protocol,
//!   so non-durable schedules are bit-identical to the pre-durability ones.
//! * [`MemJournal`] — a deterministic in-memory journal for the `stm-sim`
//!   simulator, with a configurable flush cost in virtual cycles. Its
//!   "stable storage" is a [`DurableMem`] shared across simulated
//!   processors; per-handle *pending* bytes model the un-fsynced page cache
//!   and are lost when the owning processor crashes.
//! * [`FileJournal`] — an fsync'd append-only file store for the host
//!   machine.
//!
//! # Exactly-once replay
//!
//! Replay reuses the install discipline of the live protocol
//! (`install_cell` in `stm/algo.rs`): a cell is written only if it still
//! holds the record's pre-image (value *and* stamp), and the written word is
//! the stamp-advanced successor. Installs that already happened before the
//! crash — and duplicate records flushed by helpers replaying the same
//! `(owner, version)` — fail the pre-image comparison and are skipped, so a
//! committed transaction's effect lands exactly once no matter how many
//! participants journaled it or how far installation had progressed. The
//! 16-bit stamp shares the live protocol's wrap-around caveat (§11).

use std::io::Write as _;
use std::sync::{Arc, Mutex};

use crate::machine::MemPort;
use crate::observe::{TxEvent, TxObserver};
use crate::word::{cell_successor, cell_value, CellIdx, Word};

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected) — hand-rolled: the build is offline and the
// workspace vendors no checksum crate.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes` — the checksum guarding each journal record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// Magic number opening every journal record (`"STMJ"` little-endian).
pub const RECORD_MAGIC: u32 = 0x4A4D_5453;

/// Fixed bytes before the per-cell entries: magic, cell count, owner,
/// version.
pub const RECORD_HEADER_BYTES: usize = 4 + 4 + 4 + 8;

/// Bytes per data-set cell: cell index, packed pre-image word, new value.
pub const RECORD_CELL_BYTES: usize = 4 + 8 + 4;

/// Trailing CRC bytes.
pub const RECORD_TRAILER_BYTES: usize = 4;

/// Upper bound on a record's cell count accepted by the scanner — far above
/// any real `max_locs`, low enough to reject garbage lengths immediately.
pub const MAX_RECORD_CELLS: usize = 4096;

/// Total encoded size of a record over `k` cells.
pub fn record_len(k: usize) -> usize {
    RECORD_HEADER_BYTES + k * RECORD_CELL_BYTES + RECORD_TRAILER_BYTES
}

/// One committed transaction's redo record, borrowed from the commit path:
/// the transaction identity, its data set, the agreed pre-images (packed
/// cell words, stamp included), and the computed new values.
#[derive(Debug, Clone, Copy)]
pub struct RedoRecord<'a> {
    /// Initiating processor (the record owner).
    pub owner: usize,
    /// The owner record's version for this transaction.
    pub version: u64,
    /// Data-set cell indices, program order.
    pub cells: &'a [CellIdx],
    /// Agreed pre-image words (value + stamp), parallel to `cells`.
    pub pre: &'a [Word],
    /// Committed new values, parallel to `cells`.
    pub new: &'a [u32],
}

/// Append the encoded form of `rec` (header, cells, CRC) to `out`.
pub fn encode_record(rec: &RedoRecord<'_>, out: &mut Vec<u8>) {
    debug_assert_eq!(rec.cells.len(), rec.pre.len());
    debug_assert_eq!(rec.cells.len(), rec.new.len());
    let start = out.len();
    out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
    out.extend_from_slice(&(rec.cells.len() as u32).to_le_bytes());
    out.extend_from_slice(&(rec.owner as u32).to_le_bytes());
    out.extend_from_slice(&rec.version.to_le_bytes());
    for j in 0..rec.cells.len() {
        out.extend_from_slice(&(rec.cells[j] as u32).to_le_bytes());
        out.extend_from_slice(&rec.pre[j].to_le_bytes());
        out.extend_from_slice(&rec.new[j].to_le_bytes());
    }
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// One record decoded out of a journal scan (owned form of [`RedoRecord`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRecord {
    /// Initiating processor.
    pub owner: usize,
    /// Owner-record version.
    pub version: u64,
    /// Data-set cell indices, program order.
    pub cells: Vec<CellIdx>,
    /// Agreed pre-image words, parallel to `cells`.
    pub pre: Vec<Word>,
    /// Committed new values, parallel to `cells`.
    pub new: Vec<u32>,
}

/// Result of scanning a journal byte stream.
#[derive(Debug, Clone, Default)]
pub struct JournalScan {
    /// Every verified record, in journal order.
    pub records: Vec<DecodedRecord>,
    /// Bytes discarded as a torn or unverified tail (truncated record, bad
    /// magic, or CRC mismatch — scanning stops at the first bad byte).
    pub tail_discarded: usize,
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Scan a journal byte stream into verified records, stopping at the first
/// torn or corrupt record: the write-ahead ordering makes everything *after*
/// the first unverifiable byte unreachable by any committed-and-installed
/// transaction, so the whole tail is discarded rather than resynchronized.
pub fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut out = JournalScan::default();
    let mut off = 0;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < RECORD_HEADER_BYTES {
            break; // torn header
        }
        if read_u32(rest, 0) != RECORD_MAGIC {
            break; // corrupt framing
        }
        let k = read_u32(rest, 4) as usize;
        if k == 0 || k > MAX_RECORD_CELLS {
            break; // implausible length: treat as corruption
        }
        let total = record_len(k);
        if rest.len() < total {
            break; // torn record body
        }
        let stored_crc = read_u32(rest, total - RECORD_TRAILER_BYTES);
        if crc32(&rest[..total - RECORD_TRAILER_BYTES]) != stored_crc {
            break; // failed verification
        }
        let owner = read_u32(rest, 8) as usize;
        let version = read_u64(rest, 12);
        let mut cells = Vec::with_capacity(k);
        let mut pre = Vec::with_capacity(k);
        let mut new = Vec::with_capacity(k);
        for j in 0..k {
            let at = RECORD_HEADER_BYTES + j * RECORD_CELL_BYTES;
            cells.push(read_u32(rest, at) as CellIdx);
            pre.push(read_u64(rest, at + 4));
            new.push(read_u32(rest, at + 12));
        }
        out.records.push(DecodedRecord { owner, version, cells, pre, new });
        off += total;
    }
    out.tail_discarded = bytes.len() - off;
    out
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// Summary of one recovery pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Verified records scanned from the journal.
    pub records_scanned: u64,
    /// Records that installed at least one cell (the rest were duplicates
    /// or already fully installed before the crash).
    pub records_installed: u64,
    /// Individual cell installs performed.
    pub cells_installed: u64,
    /// Bytes discarded as a torn/unverified journal tail.
    pub tail_discarded: u64,
}

/// Replay a journal into `cells` — packed cell words indexed by cell index,
/// rebuilt to the **same base image the crashed run started from** (recovery
/// is a deterministic function of base image + journal; a caller that
/// rebuilds a different base gets a different heap).
///
/// Each record replays with the live protocol's install discipline: a cell
/// is written only if it still holds the record's pre-image, and the write
/// is the stamp-advanced successor — so replay is idempotent, already
/// installed effects are skipped, and duplicate records (helpers journal the
/// transactions they complete) collapse to one application.
pub fn recover(cells: &mut [Word], bytes: &[u8]) -> RecoveryReport {
    recover_with(cells, bytes, &mut crate::observe::NoopObserver)
}

/// [`recover`] with a [`TxObserver`] receiving the
/// [`TxEvent::RecoveryReplayed`] lifecycle event.
pub fn recover_with<O: TxObserver>(
    cells: &mut [Word],
    bytes: &[u8],
    obs: &mut O,
) -> RecoveryReport {
    let scan = scan_journal(bytes);
    let mut report = RecoveryReport {
        records_scanned: scan.records.len() as u64,
        tail_discarded: scan.tail_discarded as u64,
        ..Default::default()
    };
    for rec in &scan.records {
        let mut installed_here = 0u64;
        for j in 0..rec.cells.len() {
            let (cell, pre, new) = (rec.cells[j], rec.pre[j], rec.new[j]);
            if new == cell_value(pre) {
                continue; // logical read: never installed by the live run either
            }
            let Some(slot) = cells.get_mut(cell) else {
                continue; // foreign cell index: journal from a larger heap
            };
            if *slot == pre {
                *slot = cell_successor(pre, new);
                installed_here += 1;
            }
        }
        if installed_here > 0 {
            report.records_installed += 1;
            report.cells_installed += installed_here;
        }
    }
    obs.on(&TxEvent::RecoveryReplayed {
        records: report.records_scanned,
        installed: report.cells_installed,
        at: 0,
    });
    report
}

// ---------------------------------------------------------------------------
// The Journal trait and its implementations
// ---------------------------------------------------------------------------

/// What one flush made durable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushInfo {
    /// Records published by this flush.
    pub records: u64,
    /// Bytes published by this flush.
    pub bytes: u64,
    /// Flush latency in the port's time units: virtual cycles on the
    /// simulator ([`MemJournal`]'s configured flush cost), nanoseconds of
    /// wall clock on the host ([`FileJournal`]).
    pub latency: u64,
}

/// A durability backend for the commit path.
///
/// The protocol calls [`append`](Journal::append) once per committed
/// transaction (after old-value agreement, before any install) and
/// [`flush`](Journal::flush) immediately after; only when `flush` returns is
/// any new value installed. `ACTIVE == false` ([`NoJournal`]) compiles the
/// whole sequence — including its [`StepPoint`](crate::step::StepPoint)
/// announcements — out of the monomorphized protocol, keeping non-durable
/// schedules bit-identical.
pub trait Journal {
    /// Whether this backend journals at all. The protocol gates every
    /// journal step on this associated constant, so inactive backends cost
    /// nothing.
    const ACTIVE: bool;

    /// Buffer one redo record (not yet durable).
    fn append(&mut self, rec: &RedoRecord<'_>);

    /// Make every buffered record durable, charging the port for the flush
    /// (virtual cycles on the simulator, real fsync time on the host).
    fn flush<P: MemPort>(&mut self, port: &mut P) -> FlushInfo;
}

/// A mutable reference to a journal is itself a journal, so a long-lived
/// backend can be lent per call: `TxOptions::new().journal(&mut jrn)`.
impl<J: Journal> Journal for &mut J {
    const ACTIVE: bool = J::ACTIVE;

    fn append(&mut self, rec: &RedoRecord<'_>) {
        (**self).append(rec)
    }

    fn flush<P: MemPort>(&mut self, port: &mut P) -> FlushInfo {
        (**self).flush(port)
    }
}

/// The default backend: no journaling. `ACTIVE == false` removes the journal
/// path from the compiled protocol entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoJournal;

impl Journal for NoJournal {
    const ACTIVE: bool = false;

    #[inline]
    fn append(&mut self, _rec: &RedoRecord<'_>) {}

    #[inline]
    fn flush<P: MemPort>(&mut self, _port: &mut P) -> FlushInfo {
        FlushInfo::default()
    }
}

/// Simulated stable storage shared by every [`MemJournal`] handle of one
/// run. Survives simulated crashes: a crashed processor's un-flushed
/// *pending* bytes die with its handle, but everything published here is
/// what recovery gets to see.
#[derive(Debug, Clone, Default)]
pub struct DurableMem {
    durable: Arc<Mutex<Vec<u8>>>,
}

impl DurableMem {
    /// Empty stable storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh journal handle (its own empty pending buffer) over this
    /// storage, with zero flush cost.
    pub fn handle(&self) -> MemJournal {
        MemJournal {
            durable: Arc::clone(&self.durable),
            pending: Vec::new(),
            pending_records: 0,
            flush_cost: 0,
        }
    }

    /// Snapshot of the durable byte stream (what recovery would scan).
    pub fn bytes(&self) -> Vec<u8> {
        self.durable.lock().expect("durable storage poisoned").clone()
    }
}

/// Deterministic in-memory journal for the simulator.
///
/// `append` encodes into a handle-local pending buffer; `flush` charges the
/// configured flush cost to the port's local clock (modeling fsync latency —
/// a crash during that window loses the pending bytes, exactly like power
/// failing mid-fsync) and then publishes the buffer to the shared
/// [`DurableMem`]. Publication happens while the flushing processor is the
/// one the simulator is running, so the durable byte order is a
/// deterministic function of the schedule.
#[derive(Debug)]
pub struct MemJournal {
    durable: Arc<Mutex<Vec<u8>>>,
    pending: Vec<u8>,
    pending_records: u64,
    flush_cost: u64,
}

impl MemJournal {
    /// Set the flush cost in virtual cycles (default 0).
    pub fn flush_cost(mut self, cycles: u64) -> Self {
        self.flush_cost = cycles;
        self
    }
}

impl Journal for MemJournal {
    const ACTIVE: bool = true;

    fn append(&mut self, rec: &RedoRecord<'_>) {
        encode_record(rec, &mut self.pending);
        self.pending_records += 1;
    }

    fn flush<P: MemPort>(&mut self, port: &mut P) -> FlushInfo {
        let info = FlushInfo {
            records: self.pending_records,
            bytes: self.pending.len() as u64,
            latency: self.flush_cost,
        };
        if self.flush_cost > 0 {
            // The fsync window: pending bytes are not durable yet, and a
            // crash delivered during this delay loses them.
            port.delay(self.flush_cost);
        }
        self.durable.lock().expect("durable storage poisoned").extend_from_slice(&self.pending);
        self.pending.clear();
        self.pending_records = 0;
        info
    }
}

/// Fsync'd append-only file journal for the host machine.
///
/// `append` encodes into a process-local pending buffer; `flush` appends the
/// buffer to the file and `sync_data`s it before returning, so a record is
/// durable before the commit path installs a single value. Handles created
/// by [`FileJournal::handle`] share the file (one writer at a time via the
/// internal lock) but keep independent pending buffers.
#[derive(Debug)]
pub struct FileJournal {
    file: Arc<Mutex<std::fs::File>>,
    pending: Vec<u8>,
    pending_records: u64,
}

impl FileJournal {
    /// Create (truncating any existing file) a journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(FileJournal { file: Arc::new(Mutex::new(file)), pending: Vec::new(), pending_records: 0 })
    }

    /// Open an existing journal at `path` for appending (recover first —
    /// see [`read_journal`]).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the file cannot be opened.
    pub fn open_append(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(FileJournal { file: Arc::new(Mutex::new(file)), pending: Vec::new(), pending_records: 0 })
    }

    /// Another handle over the same file with its own pending buffer (one
    /// per thread).
    pub fn handle(&self) -> FileJournal {
        FileJournal { file: Arc::clone(&self.file), pending: Vec::new(), pending_records: 0 }
    }
}

impl Journal for FileJournal {
    const ACTIVE: bool = true;

    fn append(&mut self, rec: &RedoRecord<'_>) {
        encode_record(rec, &mut self.pending);
        self.pending_records += 1;
    }

    fn flush<P: MemPort>(&mut self, _port: &mut P) -> FlushInfo {
        let started = std::time::Instant::now();
        {
            let mut f = self.file.lock().expect("journal file poisoned");
            f.write_all(&self.pending).expect("journal write failed");
            f.sync_data().expect("journal fsync failed");
        }
        let info = FlushInfo {
            records: self.pending_records,
            bytes: self.pending.len() as u64,
            latency: started.elapsed().as_nanos() as u64,
        };
        self.pending.clear();
        self.pending_records = 0;
        info
    }
}

/// Read a journal file's byte stream for recovery ([`scan_journal`] /
/// [`recover`]).
///
/// # Errors
///
/// Propagates the I/O error; a missing file is an empty journal.
pub fn read_journal(path: impl AsRef<std::path::Path>) -> std::io::Result<Vec<u8>> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::pack_cell;

    fn encode_sample(owner: usize, version: u64, out: &mut Vec<u8>) {
        let cells = [3, 7];
        let pre = [pack_cell(5, 100), pack_cell(0, 0)];
        let new = [110, 9];
        encode_record(&RedoRecord { owner, version, cells: &cells, pre: &pre, new: &new }, out);
    }

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_roundtrip_through_scan() {
        let mut bytes = Vec::new();
        encode_sample(1, 42, &mut bytes);
        encode_sample(2, 7, &mut bytes);
        assert_eq!(bytes.len(), 2 * record_len(2));
        let scan = scan_journal(&bytes);
        assert_eq!(scan.tail_discarded, 0);
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.records[0].owner, 1);
        assert_eq!(scan.records[0].version, 42);
        assert_eq!(scan.records[0].cells, vec![3, 7]);
        assert_eq!(scan.records[0].pre, vec![pack_cell(5, 100), pack_cell(0, 0)]);
        assert_eq!(scan.records[0].new, vec![110, 9]);
        assert_eq!(scan.records[1].owner, 2);
    }

    #[test]
    fn truncation_at_every_byte_offset_discards_only_the_tail() {
        // The torn-write oracle: whatever byte the final record is cut at,
        // recovery must replay every complete record and never a partial one.
        let mut bytes = Vec::new();
        encode_sample(0, 1, &mut bytes);
        encode_sample(1, 2, &mut bytes);
        let keep = record_len(2);
        for cut in keep..bytes.len() {
            let torn = &bytes[..cut];
            let scan = scan_journal(torn);
            let want_records = if cut == keep * 2 { 2 } else { 1 };
            assert_eq!(scan.records.len(), want_records, "cut at {cut}");
            assert_eq!(scan.tail_discarded, cut - want_records * keep, "cut at {cut}");

            let mut cells = vec![pack_cell(5, 100), 0, 0, pack_cell(5, 100), 0, 0, pack_cell(0, 0), 0];
            let report = recover(&mut cells, torn);
            assert_eq!(report.records_scanned as usize, want_records, "cut at {cut}");
            // Record 0 installs cells {3, 7}; the torn record 1 must install
            // nothing at all — not even its first cell.
            assert_eq!(cell_value(cells[3]), 110, "cut at {cut}");
            assert_eq!(cell_value(cells[7]), 9, "cut at {cut}");
        }
    }

    #[test]
    fn corrupting_any_byte_discards_the_record_and_its_tail() {
        let mut bytes = Vec::new();
        encode_sample(0, 1, &mut bytes);
        encode_sample(1, 2, &mut bytes);
        let keep = record_len(2);
        for at in keep..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x40;
            let scan = scan_journal(&corrupt);
            assert_eq!(scan.records.len(), 1, "corruption at {at} must stop the scan");
            assert_eq!(scan.tail_discarded, corrupt.len() - keep, "corruption at {at}");
        }
    }

    #[test]
    fn replay_is_idempotent_and_skips_duplicates() {
        let mut bytes = Vec::new();
        encode_sample(0, 1, &mut bytes);
        encode_sample(0, 1, &mut bytes); // a helper's duplicate of the same commit
        let base = vec![pack_cell(5, 100), 0, 0, pack_cell(5, 100), 0, 0, pack_cell(0, 0), 0];

        let mut once = base.clone();
        let report = recover(&mut once, &bytes);
        assert_eq!(report.records_scanned, 2);
        assert_eq!(report.records_installed, 1, "duplicate must not re-apply");
        assert_eq!(report.cells_installed, 2);
        assert_eq!(cell_value(once[3]), 110);
        assert_eq!(cell_value(once[7]), 9);

        // Replaying the whole journal again over the recovered heap is a
        // no-op: every pre-image comparison now fails.
        let mut twice = once.clone();
        let report2 = recover(&mut twice, &bytes);
        assert_eq!(report2.records_installed, 0);
        assert_eq!(twice, once);
    }

    #[test]
    fn logical_reads_and_already_installed_cells_are_skipped() {
        let cells = vec![0usize, 1];
        let pre = vec![pack_cell(1, 7), pack_cell(2, 9)];
        let new = vec![7, 20]; // cell 0 unchanged (logical read)
        let mut bytes = Vec::new();
        encode_record(&RedoRecord { owner: 0, version: 3, cells: &cells, pre: &pre, new: &new }, &mut bytes);

        // Cell 1 was already installed before the crash (its word advanced).
        let mut heap = vec![pack_cell(1, 7), cell_successor(pack_cell(2, 9), 20)];
        let report = recover(&mut heap, &bytes);
        assert_eq!(report.cells_installed, 0);
        assert_eq!(cell_value(heap[0]), 7, "logical read untouched");
        assert_eq!(heap[1], cell_successor(pack_cell(2, 9), 20), "no double apply");
    }

    #[test]
    fn mem_journal_publishes_only_on_flush() {
        use crate::machine::host::HostMachine;
        let m = HostMachine::new(4, 1);
        let mut port = m.port(0);
        let storage = DurableMem::new();
        let mut jrn = storage.handle().flush_cost(10);
        let (cells, pre, new) = (vec![0usize], vec![pack_cell(0, 0)], vec![5u32]);
        jrn.append(&RedoRecord { owner: 0, version: 1, cells: &cells, pre: &pre, new: &new });
        assert!(storage.bytes().is_empty(), "pending bytes are not durable");
        let info = jrn.flush(&mut port);
        assert_eq!(info.records, 1);
        assert_eq!(info.bytes as usize, record_len(1));
        assert_eq!(info.latency, 10);
        assert_eq!(storage.bytes().len(), record_len(1));
        // A dropped handle (simulated crash) loses only pending bytes.
        jrn.append(&RedoRecord { owner: 0, version: 2, cells: &cells, pre: &pre, new: &new });
        drop(jrn);
        assert_eq!(storage.bytes().len(), record_len(1));
    }

    #[test]
    fn file_journal_roundtrips_through_recovery() {
        use crate::machine::host::HostMachine;
        let path = std::env::temp_dir()
            .join(format!("stm-durable-test-{}.journal", std::process::id()));
        let m = HostMachine::new(4, 1);
        let mut port = m.port(0);
        {
            let mut jrn = FileJournal::create(&path).unwrap();
            let (cells, pre, new) = (vec![2usize], vec![pack_cell(0, 0)], vec![41u32]);
            jrn.append(&RedoRecord { owner: 0, version: 1, cells: &cells, pre: &pre, new: &new });
            let info = jrn.flush(&mut port);
            assert_eq!(info.records, 1);
        }
        {
            // Append more through a reopened handle, as a restarted process
            // would.
            let mut jrn = FileJournal::open_append(&path).unwrap();
            let (cells, pre, new) =
                (vec![2usize], vec![cell_successor(pack_cell(0, 0), 41)], vec![43u32]);
            jrn.append(&RedoRecord { owner: 0, version: 2, cells: &cells, pre: &pre, new: &new });
            jrn.flush(&mut port);
        }
        let bytes = read_journal(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut heap = vec![0; 4];
        let report = recover(&mut heap, &bytes);
        assert_eq!(report.records_scanned, 2);
        assert_eq!(report.records_installed, 2);
        assert_eq!(cell_value(heap[2]), 43);
        assert_eq!(read_journal("/nonexistent/journal/path").unwrap(), Vec::<u8>::new());
    }
}
