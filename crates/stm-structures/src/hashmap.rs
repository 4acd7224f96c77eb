//! A chained hash map over the growable sharded cell arena (STM only).
//!
//! This is the proof structure for the [`CellArena`] heap: a bucket-array
//! hash map whose entries are 3-cell spans allocated and freed *while
//! transactions run*, demonstrating that the arena's segment-append growth
//! and free-list reuse compose with the static-transaction technique at
//! million-cell scale (the KV service benchmark drives one of these).
//!
//! # Representation
//!
//! * Each bucket is a 2-cell span: a **head pointer** and a **bucket
//!   sequence number**.
//! * Each entry is a 3-cell span `e`: `e` holds the key, `e + 1` the value,
//!   `e + 2` the next pointer.
//! * A pointer value is `entry + 1` (so `0` means nil) — cell values are
//!   `u32`, and cell 0 is a valid arena address.
//!
//! # Concurrency scheme: frozen-bucket speculation
//!
//! Like [`list_set`](crate::list_set), operations traverse over committed
//! reads and commit a short registered program that re-validates. The
//! validation here is per bucket: every structural mutation (link or
//! unlink) increments the bucket's sequence cell in the same transaction,
//! so a commit that observes `(head, seq)` unchanged since the walk began
//! has proof the whole chain was **static** during the walk — whatever the
//! walk saw (presence, absence, the unlink window) is exact. This is what
//! makes arena free/reuse safe: a stale traversal into a freed-and-reused
//! span can never validate, because the unlink that freed it bumped the
//! sequence.
//!
//! Value updates need no freeze: a removed entry's key cell is tagged
//! [`TOMB_KEY`] inside the unlinking transaction (and fresh spans are only
//! keyed inside the linking transaction), so observing `key_cell == key`
//! transactionally proves the entry is *currently linked* in `key`'s
//! bucket — and updating the unique live entry for a key is linearizable
//! no matter how the chain moved around it. Updates therefore commit as a
//! 2-cell static transaction, the hot path under skewed workloads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stm_core::arena::CellArena;
use stm_core::layout::StmLayout;
use stm_core::machine::MemPort;
use stm_core::ops::StmOps;
use stm_core::program::OpCode;
use stm_core::stm::StmConfig;
use stm_core::word::{CellIdx, Word};

/// Cells per map entry: key, value, next.
pub const ENTRY_SPAN: usize = 3;

/// Cells per bucket: head pointer, bucket sequence number.
pub const BUCKET_SPAN: usize = 2;

/// Reserved key tagging an unlinked entry's key cell before its span
/// returns to the arena. [`StmHashMap::insert`] rejects it.
pub const TOMB_KEY: u32 = u32::MAX;

/// Fibonacci multiplier for bucket hashing (odd, so `key ↦ key·c mod 2^32`
/// is a bijection and sequential keys spread across buckets).
const HASH_MUL: u32 = 0x9E37_79B9;

/// A lock-free chained hash map of `u32 → u32` built on [`CellArena`] spans
/// and static transactions resolved per call
/// ([`StmOps::run_planned`](stm_core::ops::StmOps::run_planned)).
///
/// Cloneable handle: clones share the buckets, the arena, and the length
/// counter. Each operation takes the caller's [`MemPort`], so the same map
/// instance serves many threads (host) or simulated processors.
#[derive(Debug, Clone)]
pub struct StmHashMap {
    ops: StmOps,
    arena: Arc<CellArena>,
    /// Bucket head-pointer cells; each bucket's seq cell is `head + 1`.
    heads: Arc<[CellIdx]>,
    mask: u32,
    /// Committed entry count (host-side, maintained after commits).
    len: Arc<AtomicU64>,
    insert_op: OpCode,
    update_op: OpCode,
    remove_first_op: OpCode,
    remove_mid_op: OpCode,
}

/// One self-consistent view of a bucket, captured by a speculative walk.
struct Walk {
    /// Bucket head-pointer cell.
    hp: CellIdx,
    /// Head pointer and sequence values the walk started from.
    h0: u32,
    s0: u32,
    /// `(prev_ptr_cell, entry, value, next)` when the key was found.
    found: Option<(CellIdx, CellIdx, u32, u32)>,
}

impl StmHashMap {
    /// Build a map with `n_buckets` chains (must be a power of two) over an
    /// arena layout, allocating the bucket spans from `arena` and
    /// zero-initialising them through `port`.
    ///
    /// The map owns a fresh [`StmOps`] over `layout` with its four commit
    /// programs registered; mix other traffic over the same cells through
    /// [`StmHashMap::ops`].
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is not a positive power of two, if the arena
    /// was built over a different layout, if `layout.max_locs() < 6`
    /// (the widest commit footprint), or if the arena cannot supply the
    /// bucket spans.
    pub fn new<P: MemPort>(
        layout: StmLayout,
        arena: Arc<CellArena>,
        n_buckets: usize,
        config: StmConfig,
        port: &mut P,
    ) -> Self {
        assert!(n_buckets.is_power_of_two(), "n_buckets must be a power of two");
        assert!(*arena.layout() == layout, "arena and map must share one layout");
        assert!(layout.max_locs() >= 6, "map commits need max_locs >= 6");
        assert!(
            (layout.n_cells() as u64) < u64::from(u32::MAX),
            "pointer encoding needs entry + 1 to fit a u32 cell value"
        );
        let (ops, (insert_op, update_op, remove_first_op, remove_mid_op)) =
            StmOps::with_layout_programs(layout, config, |b| {
                // Data set: [head, seq, e.key, e.value, e.next]
                // Params:   [h0, s0, key, value, e_ptr]
                let insert_op = b.register(
                    "hashmap.insert",
                    |params: &[Word], old: &[u32], new: &mut [u32]| {
                        if old[0] != params[0] as u32 || old[1] != params[1] as u32 {
                            return; // bucket moved since the walk
                        }
                        new[0] = params[4] as u32; // head = new entry
                        new[1] = old[1].wrapping_add(1); // link event
                        new[2] = params[2] as u32; // key
                        new[3] = params[3] as u32; // value
                        new[4] = params[0] as u32; // e.next = old first
                    },
                );
                // Data set: [e.key, e.value]   Params: [key, value]
                let update_op = b.register(
                    "hashmap.update",
                    |params: &[Word], old: &[u32], new: &mut [u32]| {
                        if old[0] != params[0] as u32 {
                            return; // entry unlinked (tombed) or re-keyed
                        }
                        new[1] = params[1] as u32;
                    },
                );
                // Data set: [head, seq, e.key, e.next]   Params: [h0, s0]
                let remove_first_op = b.register(
                    "hashmap.remove_first",
                    |params: &[Word], old: &[u32], new: &mut [u32]| {
                        if old[0] != params[0] as u32 || old[1] != params[1] as u32 {
                            return;
                        }
                        new[0] = old[3]; // head = e.next
                        new[1] = old[1].wrapping_add(1); // unlink event
                        new[2] = TOMB_KEY; // tag before reuse
                    },
                );
                // Data set: [head, seq, prev.next, e.key, e.next]
                // Params:   [h0, s0]
                let remove_mid_op = b.register(
                    "hashmap.remove_mid",
                    |params: &[Word], old: &[u32], new: &mut [u32]| {
                        if old[0] != params[0] as u32 || old[1] != params[1] as u32 {
                            return;
                        }
                        new[2] = old[4]; // prev.next = e.next
                        new[1] = old[1].wrapping_add(1);
                        new[3] = TOMB_KEY;
                    },
                );
                (insert_op, update_op, remove_first_op, remove_mid_op)
            });
        let heads: Vec<CellIdx> = (0..n_buckets)
            .map(|b| {
                let head = arena
                    .alloc_span(b, BUCKET_SPAN)
                    .expect("arena exhausted while allocating bucket spans");
                ops.stm().init_cell(port, head, 0);
                ops.stm().init_cell(port, head + 1, 0);
                head
            })
            .collect();
        StmHashMap {
            ops,
            arena,
            heads: heads.into(),
            mask: (n_buckets - 1) as u32,
            len: Arc::new(AtomicU64::new(0)),
            insert_op,
            update_op,
            remove_first_op,
            remove_mid_op,
        }
    }

    /// The bucket head-pointer cell for `key`.
    fn head_of(&self, key: u32) -> CellIdx {
        self.heads[(key.wrapping_mul(HASH_MUL) & self.mask) as usize]
    }

    /// Speculatively walk `key`'s chain until a self-consistent view is
    /// captured: the bucket sequence is re-read after the walk and must be
    /// unchanged, proving the chain was static for the whole traversal
    /// (so absence and the found window are exact *as of that instant*).
    /// Mutating callers re-validate `(h0, s0)` transactionally at commit.
    fn walk<P: MemPort>(&self, port: &mut P, key: u32) -> Walk {
        let stm = self.ops.stm();
        let n_cells = stm.layout().n_cells();
        let hp = self.head_of(key);
        loop {
            let h0 = stm.read_cell(port, hp);
            let s0 = stm.read_cell(port, hp + 1);
            let mut prev = hp;
            let mut ptr = h0;
            let mut found = None;
            let mut hops = 0usize;
            while ptr != 0 {
                let e = (ptr - 1) as usize;
                if e + ENTRY_SPAN > n_cells || prev == e + 2 {
                    break; // torn view through recycled spans; re-validate
                }
                let k = stm.read_cell(port, e);
                if k == key {
                    let value = stm.read_cell(port, e + 1);
                    let next = stm.read_cell(port, e + 2);
                    found = Some((prev, e, value, next));
                    break;
                }
                prev = e + 2;
                ptr = stm.read_cell(port, prev);
                hops += 1;
                if hops > n_cells {
                    break; // stale-pointer cycle; re-validate and restart
                }
            }
            if stm.read_cell(port, hp + 1) == s0 && stm.read_cell(port, hp) == h0 {
                return Walk { hp, h0, s0, found };
            }
        }
    }

    /// Look up `key`. Transaction-free: the walk's bucket-sequence
    /// re-validation already proves the result was exact at the re-read.
    pub fn get<P: MemPort>(&self, port: &mut P, key: u32) -> Option<u32> {
        self.walk(port, key).found.map(|(_, _, value, _)| value)
    }

    /// Insert or update `key ↦ value`; returns the previous value if the
    /// key was present.
    ///
    /// Updates commit as a 2-cell transaction; new entries take a 3-cell
    /// span from the arena *outside* the transaction and link it at the
    /// bucket head under the frozen-bucket validation. A span allocated
    /// for a key that turned out to exist is returned to the arena.
    ///
    /// # Panics
    ///
    /// Panics if `key` is [`TOMB_KEY`] or the arena is exhausted.
    pub fn insert<P: MemPort>(&self, port: &mut P, key: u32, value: u32) -> Option<u32> {
        assert!(key != TOMB_KEY, "TOMB_KEY is reserved");
        let mut spare: Option<CellIdx> = None;
        loop {
            let w = self.walk(port, key);
            if let Some((_, e, _, _)) = w.found {
                let cells = [e, e + 1];
                let params = [key as Word, value as Word];
                let old_value = self
                    .ops
                    .run_planned(port, self.update_op, &params, &cells, |old| {
                        (old[0] == key).then(|| old[1])
                    });
                if let Some(old_value) = old_value {
                    if let Some(s) = spare {
                        self.arena.free_span(s, ENTRY_SPAN);
                    }
                    return Some(old_value);
                }
                continue; // entry unlinked under us; re-walk
            }
            let e = match spare {
                Some(e) => e,
                None => {
                    let e = self
                        .arena
                        .alloc_span(port.proc_id(), ENTRY_SPAN)
                        .expect("arena exhausted");
                    spare = Some(e);
                    e
                }
            };
            let cells = [w.hp, w.hp + 1, e, e + 1, e + 2];
            let params = [
                w.h0 as Word,
                w.s0 as Word,
                key as Word,
                value as Word,
                (e + 1) as Word,
            ];
            let applied = self
                .ops
                .run_planned(port, self.insert_op, &params, &cells, |old| {
                    old[0] == w.h0 && old[1] == w.s0
                });
            if applied {
                self.len.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
    }

    /// Remove `key`; returns its value if it was present. The entry's span
    /// is returned to the arena after the unlink commits.
    pub fn remove<P: MemPort>(&self, port: &mut P, key: u32) -> Option<u32> {
        loop {
            let w = self.walk(port, key);
            let Some((prev, e, value, _)) = w.found else {
                return None; // exact: the walk validated the bucket seq
            };
            let params = [w.h0 as Word, w.s0 as Word];
            let applied = if prev == w.hp {
                let cells = [w.hp, w.hp + 1, e, e + 2];
                self.ops.run_planned(port, self.remove_first_op, &params, &cells, |old| {
                    old[0] == w.h0 && old[1] == w.s0
                })
            } else {
                let cells = [w.hp, w.hp + 1, prev, e, e + 2];
                self.ops.run_planned(port, self.remove_mid_op, &params, &cells, |old| {
                    old[0] == w.h0 && old[1] == w.s0
                })
            };
            if applied {
                // The bucket was frozen from the walk through the commit,
                // so the walked value is the committed old value.
                self.arena.free_span(e, ENTRY_SPAN);
                self.len.fetch_sub(1, Ordering::Relaxed);
                return Some(value);
            }
        }
    }

    /// Committed entry count.
    pub fn len(&self) -> u64 {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> usize {
        self.heads.len()
    }

    /// The arena backing this map.
    pub fn arena(&self) -> &Arc<CellArena> {
        &self.arena
    }

    /// The operations handle (map programs registered), for mixing other
    /// transactions over the same layout.
    pub fn ops(&self) -> &StmOps {
        &self.ops
    }

    /// Visit every committed `(key, value)` pair. **Quiescent only**: reads
    /// cells directly (no validation), so callers must guarantee no
    /// concurrent mutators. Used by accounting checks and the bench gate.
    pub fn for_each_quiesced<P: MemPort>(&self, port: &mut P, mut f: impl FnMut(u32, u32)) {
        let stm = self.ops.stm();
        let n_cells = stm.layout().n_cells();
        for &head in self.heads.iter() {
            let mut ptr = stm.read_cell(port, head);
            let mut hops = 0usize;
            while ptr != 0 {
                let e = (ptr - 1) as usize;
                assert!(e + ENTRY_SPAN <= n_cells, "corrupt chain pointer");
                hops += 1;
                assert!(hops <= n_cells, "chain cycle detected");
                f(stm.read_cell(port, e), stm.read_cell(port, e + 1));
                ptr = stm.read_cell(port, e + 2);
            }
        }
    }

    /// Quiescent integrity check: scans every chain and asserts that the
    /// entry count matches [`StmHashMap::len`], that no key appears twice,
    /// and (when the map owns the arena exclusively) that arena accounting
    /// matches: `live_cells == 2·n_buckets + 3·len`. Returns the scanned
    /// entry count.
    pub fn check_quiesced<P: MemPort>(&self, port: &mut P, exclusive_arena: bool) -> u64 {
        let mut seen = std::collections::HashSet::new();
        let mut count = 0u64;
        self.for_each_quiesced(port, |k, _| {
            assert!(k != TOMB_KEY, "tombed key reachable from a head");
            assert!(seen.insert(k), "duplicate key {k} in chains");
            count += 1;
        });
        assert_eq!(count, self.len(), "scan disagrees with len counter");
        if exclusive_arena {
            assert_eq!(
                self.arena.live_cells() as u64,
                (BUCKET_SPAN * self.heads.len()) as u64 + (ENTRY_SPAN as u64) * count,
                "arena accounting: live != 2·buckets + 3·len"
            );
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use stm_core::machine::host::HostMachine;

    fn setup(
        n_procs: usize,
        n_shards: usize,
        seg_cells: usize,
        max_segments: usize,
        n_buckets: usize,
    ) -> (StmHashMap, HostMachine) {
        let layout = StmLayout::arena(0, n_procs, 8, 0, n_shards, seg_cells, max_segments);
        let arena = Arc::new(CellArena::new(layout));
        let machine = HostMachine::new(layout.end(), n_procs);
        let map = {
            let mut port = machine.port(0);
            StmHashMap::new(layout, arena, n_buckets, StmConfig::default(), &mut port)
        };
        (map, machine)
    }

    #[test]
    fn matches_a_reference_btreemap() {
        let (map, machine) = setup(1, 2, 64, 16, 8);
        let mut port = machine.port(0);
        let mut reference = BTreeMap::new();
        // Deterministic mixed workload, keys colliding across 8 buckets.
        let mut x = 12345u32;
        for i in 0..400u32 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let key = x % 60;
            match i % 3 {
                0 | 1 => {
                    assert_eq!(map.insert(&mut port, key, i), reference.insert(key, i));
                }
                _ => {
                    assert_eq!(map.remove(&mut port, key), reference.remove(&key));
                }
            }
            assert_eq!(map.get(&mut port, key), reference.get(&key).copied());
        }
        assert_eq!(map.len(), reference.len() as u64);
        let mut scanned = BTreeMap::new();
        map.for_each_quiesced(&mut port, |k, v| {
            scanned.insert(k, v);
        });
        assert_eq!(scanned, reference);
        map.check_quiesced(&mut port, true);
    }

    #[test]
    fn update_returns_old_value_and_allocates_nothing() {
        let (map, machine) = setup(1, 2, 64, 8, 4);
        let mut port = machine.port(0);
        assert_eq!(map.insert(&mut port, 7, 100), None);
        let live_after_first = map.arena().live_cells();
        assert_eq!(map.insert(&mut port, 7, 200), Some(100));
        assert_eq!(map.get(&mut port, 7), Some(200));
        assert_eq!(map.arena().live_cells(), live_after_first);
        assert_eq!(map.remove(&mut port, 7), Some(200));
        assert_eq!(map.arena().live_cells(), BUCKET_SPAN * map.n_buckets());
        assert_eq!(map.remove(&mut port, 7), None);
    }

    #[test]
    fn removed_spans_are_reused() {
        let (map, machine) = setup(1, 2, 16, 4, 2);
        let mut port = machine.port(0);
        // Capacity is 2*16 = 32 cells minus 4 for buckets: 9 entry spans.
        // Insert/remove far more entries than fit at once: reuse must work.
        for round in 0..20u32 {
            for k in 0..8u32 {
                map.insert(&mut port, k, round * 100 + k);
            }
            for k in 0..8u32 {
                assert_eq!(map.remove(&mut port, k), Some(round * 100 + k));
            }
        }
        assert!(map.is_empty());
        map.check_quiesced(&mut port, true);
    }

    #[test]
    fn concurrent_churn_keeps_accounting_exact() {
        let n_procs = 4;
        let (map, machine) = setup(n_procs, 4, 256, 32, 16);
        std::thread::scope(|s| {
            for p in 0..n_procs {
                let map = map.clone();
                let mut port = machine.port(p);
                s.spawn(move || {
                    // Each processor churns its own key range (disjoint) and
                    // a shared contended range.
                    for round in 0..60u32 {
                        let own = 1000 + (p as u32) * 100 + round % 20;
                        let shared = round % 10;
                        map.insert(&mut port, own, round);
                        map.insert(&mut port, shared, (p as u32) << 8 | round);
                        if round % 3 == 0 {
                            map.remove(&mut port, own);
                        }
                        if round % 7 == 0 {
                            map.remove(&mut port, shared);
                        }
                        assert_eq!(map.get(&mut port, 999_999), None);
                    }
                });
            }
        });
        let mut port = machine.port(0);
        let count = map.check_quiesced(&mut port, true);
        assert!(count > 0);
    }

    #[test]
    fn growth_spills_across_segments_without_moving_entries() {
        // Tiny segments force growth: 8 cells/segment, many entries.
        let (map, machine) = setup(1, 2, 8, 64, 2);
        let mut port = machine.port(0);
        for k in 0..50u32 {
            map.insert(&mut port, k, k * 10);
        }
        assert!(map.arena().segments_live() > 2, "growth must have occurred");
        for k in 0..50u32 {
            assert_eq!(map.get(&mut port, k), Some(k * 10), "key {k}");
        }
        map.check_quiesced(&mut port, true);
    }

    #[test]
    #[should_panic(expected = "TOMB_KEY is reserved")]
    fn tomb_key_is_rejected() {
        let (map, machine) = setup(1, 2, 16, 2, 2);
        let mut port = machine.port(0);
        map.insert(&mut port, TOMB_KEY, 1);
    }
}
