//! Hot-loop parity: the optimized simulator (LRU-stack cache slab,
//! ring-buffer stream, chunked system loop) must be **bit-for-bit
//! identical** to the naive executable specification in
//! `mss_gemsim::reference`. Any drift — a reordered RNG draw, a different
//! f64 accumulation order, an off-by-one in the way shifts, a dirty bit or
//! empty marker aliasing a tag — fails these tests.

use mss_exec::ParallelConfig;
use mss_gemsim::cache::{Cache, CacheConfig};
use mss_gemsim::reference::{self, NaiveCache, NaiveStream};
use mss_gemsim::system::{System, SystemConfig};
use mss_gemsim::workload::{AccessStream, Kernel};
use mss_units::rng::{Rng, Xoshiro256PlusPlus};

/// Small sampling cap: parity is a per-access property, so a few thousand
/// references per thread exercise every code path (misses, write-backs,
/// fault-array traffic) while keeping the debug-profile suite fast.
const SAMPLE_CAP: u64 = 6_000;

fn parity_config() -> SystemConfig {
    let mut c = SystemConfig::big_little_default();
    c.sample_accesses_per_thread = SAMPLE_CAP;
    c
}

/// Accesses compared per stream. Every access draws at least two words
/// (the write and far-reuse coins), so this many span at least three of
/// the lane generator's 8192-draw blocks, and run far past the
/// 4096-entry history capacity, so the ring wrap-around is compared
/// against the Vec's `remove(0)` regime.
const STREAM_ACCESSES: usize = 3 * 8192 / 2 + 1;

#[test]
fn stream_matches_naive_stream() {
    let mut kernels = Kernel::parsec_extended();
    // Edge kernels: every geometric draw stops the run (distance 1), and
    // almost none does, so the history length caps it.
    for (name, mean) in [("reuse-1", 1.0), ("reuse-1e9", 1e9)] {
        let mut k = Kernel::bodytrack();
        k.name = name.into();
        k.mean_reuse_distance = mean;
        kernels.push(k);
    }
    for kernel in &kernels {
        for tid in 0..kernel.threads {
            let mut fast = AccessStream::new(kernel, tid, 42);
            let mut naive = NaiveStream::new(kernel, tid, 42);
            for i in 0..STREAM_ACCESSES {
                assert_eq!(
                    fast.next_access(),
                    naive.next_access(),
                    "{}: tid {tid} diverged at access {i}",
                    kernel.name
                );
            }
        }
    }
}

#[test]
fn every_kernel_and_placement_matches_the_reference() {
    let config = parity_config();
    let sys = System::new(config.clone()).unwrap();
    for kernel in &Kernel::parsec_extended() {
        let fast = sys.run(kernel, 2024).unwrap();
        let naive = reference::run(&config, kernel, 2024).unwrap();
        assert_eq!(fast, naive, "{}", kernel.name);
    }
}

#[test]
fn parity_holds_with_fault_model() {
    use mss_fault::{FaultModel, FaultPlan};
    use mss_gemsim::faultmem::FaultMemConfig;
    use mss_vaet::ecc::EccScheme;
    let mut config = parity_config();
    let mut m = FaultModel::none();
    m.write_fail_rate = 0.002;
    m.read_disturb_rate = 0.0005;
    config.fault = Some(FaultMemConfig::new(
        FaultPlan::new(77, m).unwrap(),
        EccScheme::bch(2, 512),
    ));
    let sys = System::new(config.clone()).unwrap();
    let k = Kernel::streamcluster();
    let fast = sys.run(&k, 7).unwrap();
    let naive = reference::run(&config, &k, 7).unwrap();
    assert_eq!(fast, naive);
    assert!(
        fast.fault.is_some(),
        "the fault model must have been active"
    );
}

#[test]
fn run_many_is_bit_identical_across_thread_counts() {
    let config = parity_config();
    let sys = System::new(config.clone()).unwrap();
    let kernels = Kernel::parsec_extended();
    let reference: Vec<_> = kernels
        .iter()
        .map(|k| reference::run(&config, k, 9).unwrap())
        .collect();
    for threads in [1usize, 2, 8] {
        let batch = sys
            .run_many(&kernels, 9, &ParallelConfig::serial().with_threads(threads))
            .unwrap();
        assert_eq!(batch, reference, "thread count {threads} changed results");
    }
}

/// One randomized op against both cache implementations.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { addr: u64, write: bool },
    Flush,
}

fn prop_config(associativity: u32, capacity: u64, line_bytes: u32) -> CacheConfig {
    CacheConfig {
        name: format!("prop-{associativity}w-{line_bytes}B"),
        capacity,
        associativity,
        line_bytes,
        read_latency: 1e-9,
        write_latency: 1e-9,
        read_energy: 1e-12,
        write_energy: 1e-12,
        leakage_power: 1e-3,
    }
}

/// Drives both cache implementations with the same random mix of demand
/// accesses (addresses from `address`) and flushes, and requires every
/// outcome (hit/writeback/victim) and the counters to agree after every
/// single operation.
fn assert_matches_naive(
    cfg: CacheConfig,
    seed: u64,
    mut address: impl FnMut(&mut Xoshiro256PlusPlus) -> u64,
) {
    let name = cfg.name.clone();
    let mut fast = Cache::new(cfg.clone()).unwrap();
    let mut naive = NaiveCache::new(cfg).unwrap();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    for step in 0..30_000 {
        let addr = address(&mut rng);
        let op = if rng.gen_bool(0.02) {
            Op::Flush
        } else {
            Op::Access {
                addr,
                write: rng.gen_bool(0.3),
            }
        };
        match op {
            Op::Access { addr, write } => {
                let a = fast.access(addr, write);
                let b = naive.access(addr, write);
                assert_eq!(a, b, "{name} step {step}: access {addr:#x}");
            }
            Op::Flush => {
                assert_eq!(fast.flush(), naive.flush(), "{name} step {step}");
            }
        }
        assert_eq!(fast.stats(), naive.stats(), "{name} step {step}");
    }
    // The streams must have actually exercised the interesting paths.
    assert!(fast.stats().writebacks > 0, "{name}: no writebacks");
    assert!(fast.stats().hits() > 0, "{name}: no hits");
}

#[test]
fn lru_cache_property_matches_naive_on_random_streams() {
    // Direct-mapped, 2- and 4-way shapes, and the 8- and 16-way sets of the
    // LITTLE and big L2s (few sets, so that sets fill between flushes).
    for (assoc, capacity, seed) in [
        (1u32, 512u64, 1u64),
        (2, 1024, 2),
        (4, 4096, 3),
        (8, 2048, 4),
        (16, 2048, 5),
    ] {
        // Address space ~4x the capacity: plenty of conflicts.
        assert_matches_naive(prop_config(assoc, capacity, 64), seed, |rng| {
            rng.gen_range_u64(0, 4 * capacity)
        });
    }
}

#[test]
fn lru_cache_matches_naive_when_the_tag_fills_the_address() {
    // One set of 1-byte lines: the tag is the whole 64-bit address, so a
    // dirty bit or an empty marker folded into the tag word would alias a
    // real line. The pool pairs addresses that differ only in their top or
    // bottom bits, and spans the range up to `u64::MAX`.
    let mut pool = vec![
        0,
        1,
        2,
        3,
        1 << 62,
        2 << 62,
        3 << 62,
        (1 << 63) - 1,
        u64::MAX >> 2,
        u64::MAX - 1,
        u64::MAX,
    ];
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(6);
    pool.extend((0..5).map(|_| rng.next_u64()));
    assert_matches_naive(prop_config(4, 4, 1), 7, |rng| {
        pool[rng.gen_range_u64(0, pool.len() as u64) as usize]
    });
}
