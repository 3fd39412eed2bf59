//! Allocation budget of a simulator's life cycle.
//!
//! Fault campaigns and cache sweeps build and drop one simulator per
//! job, so what `Simulator::new` + `run` + drop allocates is paid once
//! per job. These budgets hold that cost to what the guest touches and
//! fail on set-up that scales with the 32-bit address space (a flat page
//! table allocates 512 KiB per memory). Heap bytes are counted exactly,
//! so the gate is free of the noise a timing gate would have.
//!
//! A counting global allocator makes this its own test binary. Counts
//! are per thread, so libtest's other threads do not disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use patmos::compiler::{compile, CompileOptions};
use patmos::isa::Reg;
use patmos::mem::{MainMemory, MemConfig};
use patmos::sim::{SimConfig, Simulator};
use patmos::workloads;

/// Bytes one `Simulator::new` + `run` + drop may allocate, per kernel.
const SIM_BUDGET: u64 = 128 * 1024;
/// Bytes an empty `MainMemory::new` may allocate.
const MEMORY_BUDGET: u64 = 16 * 1024;

/// Passes every request to the system allocator and adds the bytes of
/// each allocation (and each reallocation's new size) to a per-thread
/// counter.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // During thread teardown the counter may already be gone; those
    // allocations are outside every measured window.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

#[test]
fn an_empty_main_memory_costs_no_more_than_its_directory() {
    let bytes = allocated_by(|| drop(MainMemory::new(MemConfig::default())));
    assert!(
        bytes <= MEMORY_BUDGET,
        "MainMemory::new allocated {bytes} bytes, budget {MEMORY_BUDGET}"
    );
}

#[test]
fn a_simulator_life_cycle_costs_what_its_guest_touches() {
    let mut over = Vec::new();
    for w in workloads::all() {
        let image = compile(&w.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut r1 = 0;
        let bytes = allocated_by(|| {
            let mut sim = Simulator::new(&image, SimConfig::default());
            sim.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            r1 = sim.reg(Reg::R1);
        });
        assert_eq!(r1, w.expected, "{}: wrong result", w.name);
        if bytes > SIM_BUDGET {
            over.push(format!("{}: {bytes} bytes", w.name));
        }
    }
    assert!(
        over.is_empty(),
        "Simulator::new + run + drop over its {SIM_BUDGET}-byte budget: {}",
        over.join(", ")
    );
}
