//! An oracle for the LRU cache that shares none of its code: per-set LRU
//! stack distances, after Mattson, Gecsei, Slutz & Traiger, "Evaluation
//! techniques for storage hierarchies" (IBM Syst. J. 9(2), 1970).
//!
//! Mattson et al. keep one stack of all distinct lines ever referenced
//! (here one stack per set, since a set-associative cache is an LRU stack
//! per set). A reference's *stack distance* is the depth at which its line
//! sits when it is referenced, counted from 0 at the top; a first reference
//! has infinite distance. The line then moves to the top. An `A`-way LRU
//! set holds exactly the top `A` lines of its stack (the inclusion
//! property), so a reference hits iff its distance is below `A`. Writes do
//! not change which lines are resident, so only addresses matter here.

use mss_gemsim::cache::{Cache, CacheConfig};
use mss_gemsim::workload::{AccessStream, Kernel};

/// Accesses per kernel: the flow's per-thread sample cap, which is long
/// enough for the streaming kernels to reuse lines deeper than 16 in the
/// 2 MiB geometry's sets.
const ACCESSES: usize = 250_000;

/// Per-set stack distances of a line-address stream: `None` for a first
/// reference, otherwise the number of distinct lines of the same set
/// referenced since the previous reference to this one.
fn stack_distances(lines: &[u64], sets: u64) -> Vec<Option<usize>> {
    // Each stack holds a set's distinct lines, top (most recent) last.
    let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
    lines
        .iter()
        .map(|&line| {
            let stack = &mut stacks[(line % sets) as usize];
            let depth = stack.iter().rev().position(|&l| l == line);
            if let Some(d) = depth {
                stack.remove(stack.len() - 1 - d);
            }
            stack.push(line);
            depth
        })
        .collect()
}

fn geometry(name: &str, capacity: u64, associativity: u32) -> CacheConfig {
    CacheConfig {
        name: name.into(),
        capacity,
        associativity,
        line_bytes: 64,
        read_latency: 1e-9,
        write_latency: 1e-9,
        read_energy: 1e-12,
        write_energy: 1e-12,
        leakage_power: 1e-3,
    }
}

#[test]
fn cache_hits_are_the_accesses_within_the_associativity() {
    let geometries = [
        geometry("L1D", 32 << 10, 4),
        geometry("big.L2", 2 << 20, 16),
    ];
    // Reuses beyond the associativity per geometry: they must occur, or the
    // comparison says nothing about the eviction order. At the big L2 only
    // the kernels whose footprint outgrows 2 MiB within one stream reach
    // them.
    let mut beyond = [0usize; 2];
    for kernel in &Kernel::parsec_extended() {
        let mut stream = AccessStream::new(kernel, 0, 1970);
        let accesses: Vec<_> = (0..ACCESSES).map(|_| stream.next_access()).collect();
        for (cfg, beyond) in geometries.iter().zip(&mut beyond) {
            let ways = cfg.associativity as usize;
            let lines: Vec<u64> = accesses
                .iter()
                .map(|a| a.address / u64::from(cfg.line_bytes))
                .collect();
            let distances = stack_distances(&lines, cfg.sets());
            let within = distances
                .iter()
                .filter(|d| d.is_some_and(|d| d < ways))
                .count() as u64;
            *beyond += distances
                .iter()
                .filter(|d| d.is_some_and(|d| d >= ways))
                .count();
            let mut cache = Cache::new(cfg.clone()).unwrap();
            for a in &accesses {
                cache.access(a.address, a.write);
            }
            assert_eq!(
                cache.stats().hits(),
                within,
                "{} on {}: hits differ from the stack-distance count",
                kernel.name,
                cfg.name
            );
        }
    }
    for (cfg, beyond) in geometries.iter().zip(beyond) {
        assert!(
            beyond > 0,
            "{}: no reuse beyond the associativity",
            cfg.name
        );
    }
}
