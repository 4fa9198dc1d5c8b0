//! Proof that the transient step loop never allocates: a `Transient::run`
//! of a 1T-1MTJ write deck makes the same number of heap allocations at N
//! and at 10·N steps. Everything a run allocates (the DC operating point,
//! the workspace, the pre-sized waveform buffers, the switch events) is a
//! fixed cost; the per-step solution buffers are swapped, and Newton
//! iterates in place.
//!
//! Own integration-test binary: the counting `#[global_allocator]` is
//! process-global, so this file must stay at ONE `#[test]`. The count is
//! per-thread (const-initialized thread-local, so reading it inside the
//! allocator never allocates or recurses), which keeps the libtest harness
//! thread's own allocations out of the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mss_mtj::resistance::MtjState;
use mss_mtj::MssStack;
use mss_spice::analysis::{Transient, TransientOptions};
use mss_spice::mosfet::{MosGeometry, MosModel};
use mss_spice::netlist::Netlist;
use mss_spice::waveform::Waveform;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread; silently skipped during
/// thread teardown when the TLS slot is already destroyed.
fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// A 1T-1MTJ write: the bit line pulses high through a bit-line resistance
/// and capacitance, the word line holds the access NMOS on, and the junction
/// starts antiparallel.
fn mtj_write_deck() -> Netlist {
    let stack = MssStack::builder().build().unwrap();
    let mut nl = Netlist::new();
    nl.add_vsource(
        "vbl",
        "drv",
        "0",
        Waveform::pulse(0.0, 1.2, 0.2e-9, 0.05e-9, 0.05e-9, 40e-9, 0.0),
    )
    .unwrap();
    nl.add_resistor("rbl", "drv", "bl", 100.0).unwrap();
    nl.add_capacitor("cbl", "bl", "0", 5e-15).unwrap();
    nl.add_vsource("vwl", "wl", "0", Waveform::dc(1.2)).unwrap();
    nl.add_mosfet(
        "m1",
        "bl",
        "wl",
        "x",
        MosModel::generic_nmos(),
        MosGeometry {
            width: 1e-6,
            length: 45e-9,
        },
    )
    .unwrap();
    nl.add_mtj("x1", "x", "0", &stack, MtjState::Antiparallel)
        .unwrap();
    nl
}

#[test]
fn transient_step_loop_never_allocates() {
    let nl = mtj_write_deck();
    let transient = Transient::new(&nl);
    let dt = 0.01e-9;
    let run = |steps: usize| {
        let before = allocs();
        let res = transient
            .run(&TransientOptions::new(dt, steps as f64 * dt))
            .unwrap();
        (allocs() - before, res)
    };
    let (short, short_res) = run(1_000);
    let (long, long_res) = run(10_000);
    assert_eq!(short_res.times().len(), 1_001);
    assert_eq!(long_res.times().len(), 10_001);
    // The pulse switches the junction well inside the short window, and
    // nothing switches it back in the long one.
    assert_eq!(short_res.events().len(), 1, "the write must switch the MTJ");
    assert_eq!(short_res.events(), long_res.events());
    assert_eq!(
        short, long,
        "a transient's allocations must not scale with its step count"
    );
}
