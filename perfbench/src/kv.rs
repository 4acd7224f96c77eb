//! The KV workload: uniform churn over `stm-bench`'s 600k-key `StmHashMap`
//! world (about 2.3M live arena cells after prefill).
//!
//! Each client owns the buckets of its own keys: with `c` clients (a power
//! of two), client `i` draws only keys `k` with `k % c == i`. The map hashes
//! a key to `(k * odd) mod n_buckets` with a power-of-two bucket count, so a
//! bucket's index mod `c` is fixed by `k mod c` and differs between clients:
//! no two clients ever walk or change the same chain.
//! The arena, its shards and free lists, the transaction records and the
//! ownership words stay shared. Clients sharing a bucket would meet a known
//! `StmHashMap` defect (see the package README), on which a run fails.

use std::sync::Arc;

use stm_bench::kv::{build_world, initial_value, KvWorld, KV_BUCKETS, KV_KEYS};
use stm_core::arena::ArenaStats;
use stm_core::machine::host::HostMachine;
use stm_structures::hashmap::StmHashMap;

use crate::clock::ticks;
use crate::measure::{Client, Recorder};
use crate::rng::{seeded, Draw};
use crate::trace::{Phase, Probe, Region};

/// Operations in each client's pre-generated stream (replayed cyclically).
const STREAM: usize = 1 << 20;
/// Gets per thousand ops.
const GETS: u64 = 500;
/// Puts per thousand ops; the rest are deletes.
const PUTS: u64 = 250;

/// Operation classes.
pub const GET: usize = 0;
/// Insert-or-update.
pub const PUT: usize = 1;
/// Remove.
pub const DELETE: usize = 2;
/// Class names, by class index.
pub const CLASSES: [&str; 3] = ["get", "put", "delete"];

/// The 12-bit tag every value the clients write for key `k` carries in its
/// top bits.
fn tag(k: u32) -> u32 {
    k.wrapping_mul(0x9E37_79B1) >> 20
}

/// A tagged value for key `k`.
fn value(k: u32, seq: u32) -> u32 {
    (tag(k) << 20) | (seq & 0xF_FFFF)
}

/// Whether `v` is a value stored for key `k`: its prefill value or one a
/// client wrote for it.
fn belongs(k: u32, v: u32) -> bool {
    v == initial_value(k) || v >> 20 == tag(k)
}

/// The prefilled map and its machine.
pub struct World(KvWorld);

/// Build the world and prefill every key, one prefill thread per client.
pub fn build(clients: usize) -> World {
    World(build_world(KV_KEYS, KV_BUCKETS, clients))
}

impl World {
    /// The map.
    pub fn map(&self) -> &StmHashMap {
        self.0.map()
    }

    /// The machine backing its cells.
    pub fn machine(&self) -> &HostMachine {
        self.0.machine()
    }

    /// Each client's own transaction record.
    pub fn regions(&self, clients: usize) -> Vec<Vec<Region>> {
        let layout = self.map().ops().stm().layout();
        (0..clients).map(|p| vec![Region::of(layout, p)]).collect()
    }

    /// Arena counters now.
    pub fn arena_stats(&self) -> ArenaStats {
        self.map().arena().stats()
    }

    /// Quiescent checks: chain integrity, exact arena accounting, and every
    /// stored value belonging to its key. Returns the failures found.
    pub fn check(&self) -> Vec<String> {
        let mut port = self.machine().port(0);
        let mut failures = Vec::new();
        let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.map().check_quiesced(&mut port, true)
        }));
        if let Err(e) = scan {
            failures.push(format!(
                "check_quiesced: {}",
                crate::measure::panic_message(&e)
            ));
        }
        let mut foreign = 0u64;
        self.map()
            .for_each_quiesced(&mut port, |k, v| foreign += u64::from(!belongs(k, v)));
        if foreign > 0 {
            failures.push(format!("{foreign} stored values not written for their key"));
        }
        failures
    }
}

/// Pre-generate the op stream of client `client` of `clients` (a power of
/// two), uniform over the keys it owns: each entry is `class << 30 | key`.
pub fn stream(seed: u64, client: usize, clients: usize) -> Arc<[u32]> {
    assert!(clients.is_power_of_two() && client < clients);
    let mut rng = seeded(seed, client as u64);
    let owned = u64::from(KV_KEYS).div_ceil(clients as u64);
    (0..STREAM)
        .map(|_| {
            let key = loop {
                let k = rng.below(owned) as usize * clients + client;
                if k < KV_KEYS as usize {
                    break k as u32;
                }
            };
            let roll = rng.below(1000);
            let class = if roll < GETS {
                GET
            } else if roll < GETS + PUTS {
                PUT
            } else {
                DELETE
            };
            ((class as u32) << 30) | key
        })
        .collect()
}

/// One closed-loop KV client.
pub struct KvClient {
    map: StmHashMap,
    stream: Arc<[u32]>,
    pos: usize,
    seq: u32,
    /// Wrong answers seen, by class.
    pub wrong: [u64; 3],
}

impl KvClient {
    /// A client over its own map handle (and so its own plan cache).
    pub fn new(map: StmHashMap, stream: Arc<[u32]>) -> Self {
        KvClient {
            map,
            stream,
            pos: 0,
            seq: 0,
            wrong: [0; 3],
        }
    }

    /// Plan-cache `(hits, misses)` of this client's handle.
    pub fn plan_cache(&self) -> (u64, u64) {
        let s = self.map.ops().plan_cache_stats();
        (s.hits, s.misses)
    }
}

impl Client for KvClient {
    fn run<P: Probe>(&mut self, port: &mut P, rec: &mut Recorder) {
        loop {
            let op = self.stream[self.pos % STREAM];
            self.pos += 1;
            let (class, key) = ((op >> 30) as usize, op & 0x3FFF_FFFF);
            let t0 = ticks();
            port.begin_op(class, Phase::Walk);
            let seen = match class {
                GET => self.map.get(port, key),
                PUT => {
                    self.seq = self.seq.wrapping_add(1);
                    self.map.insert(port, key, value(key, self.seq))
                }
                _ => self.map.remove(port, key),
            };
            port.end_op();
            let t1 = ticks();
            if seen.is_some_and(|v| !belongs(key, v)) {
                self.wrong[class] += 1;
            }
            if !rec.record(class, t0, t1) {
                return;
            }
        }
    }
}
