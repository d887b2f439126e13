//! The doorbell path touches the heap zero times in steady state, at the
//! fabric (`Endpoint::doorbell` and its READ/WRITE wrappers) and at the
//! DSM layer (`DsmLayer::doorbell` and the entry points routed through
//! it), with and without a fault plan installed. Counted, not argued —
//! this binary's allocator counts the calls made on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsm::{DsmConfig, DsmLayer, GlobalWr};
use rdma_sim::{Fabric, FaultPlan, NetworkProfile, Wr};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is passed to `System` unchanged, so its contract
// holds; the counter is a const-initialised thread-local `Cell` without a
// destructor, which is usable for as long as its thread allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn steady_state_doorbells_allocate_nothing_at_either_layer() {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let layer = DsmLayer::build(
        &fabric,
        DsmConfig {
            memory_nodes: 4,
            capacity_per_node: 1 << 20,
            replication: 2,
            mem_cores: 1,
            weak_cpu_factor: 4.0,
        },
    );
    let ep = fabric.endpoint();
    let (a, b) = (layer.alloc_on(0, 256).unwrap(), layer.alloc_on(1, 256).unwrap());
    let (lock_a, lock_b) = (layer.alloc_on(0, 8).unwrap(), layer.alloc_on(1, 8).unwrap());
    let (na, nb) = (a.node(), b.node());
    let mut page_a = [0u8; 256];
    let mut page_b = [0u8; 256];

    // One round of every doorbell shape a transaction or the buffer pool
    // posts: a lock set with its read set, a write-back with its unlocks,
    // the batch and replicated-write entry points, and the same at the
    // fabric below.
    let mut round = |i: u64| {
        let (mut on_a, mut on_b) = (u64::MAX, u64::MAX);
        layer
            .doorbell(
                &ep,
                &mut [
                    GlobalWr::Cas { addr: lock_a, expected: 0, new: 1, prev: &mut on_a },
                    GlobalWr::Read { addr: a, dst: &mut page_a },
                    GlobalWr::Cas { addr: lock_b, expected: 0, new: 1, prev: &mut on_b },
                    GlobalWr::Read { addr: b, dst: &mut page_b },
                ],
            )
            .unwrap();
        assert_eq!((on_a, on_b), (0, 0));
        page_a[0..8].copy_from_slice(&i.to_le_bytes());
        layer
            .doorbell(
                &ep,
                &mut [
                    GlobalWr::Write { addr: a, src: &page_a },
                    GlobalWr::Write { addr: b, src: &page_b },
                    GlobalWr::Write { addr: lock_a, src: &[0u8; 8] },
                    GlobalWr::Write { addr: lock_b, src: &[0u8; 8] },
                ],
            )
            .unwrap();
        layer.write(&ep, a, &page_a).unwrap();
        layer.write_u64(&ep, lock_a, 0).unwrap();
        layer.write_batch(&ep, &[(a, &page_a), (b, &page_b)]).unwrap();
        layer
            .read_batch(&ep, &mut [(a, &mut page_a), (b, &mut page_b)])
            .unwrap();

        let mut prev = u64::MAX;
        ep.doorbell(&mut [
            Wr::Cas { node: na, offset: lock_a.offset(), expected: 0, new: 0, prev: &mut prev },
            Wr::Read { node: nb, offset: b.offset(), dst: &mut page_b },
            Wr::Write { node: na, offset: a.offset(), src: &page_a },
        ])
        .unwrap();
        ep.write_batch(&[(na, a.offset(), &page_a), (nb, b.offset(), &page_b)])
            .unwrap();
        ep.read_batch(&mut [(na, a.offset(), &mut page_a), (nb, b.offset(), &mut page_b)])
            .unwrap();
    };

    let counted = ALLOCS.with(Cell::get);
    drop(std::hint::black_box(Box::new(counted)));
    assert_eq!(ALLOCS.with(Cell::get), counted + 1, "the counter sees this thread");

    // Allocations of `rounds`, after a warm-up that sizes the fault
    // view's per-peer entries.
    let mut steady = |rounds: std::ops::Range<u64>| {
        rounds.clone().take(4).for_each(&mut round);
        let warm = ALLOCS.with(Cell::get);
        rounds.skip(4).for_each(&mut round);
        ALLOCS.with(Cell::get) - warm
    };
    assert_eq!(steady(0..504), 0);
    // With a plan installed every group is pre-flighted node by node.
    fabric.install_fault_plan(FaultPlan::new(1).latency_spike(nb, 0, u64::MAX, 100));
    assert_eq!(steady(504..1008), 0, "with a fault plan");
}
