//! The forensics path of a transaction that is not among the K worst
//! touches the heap zero times: its steps are read in place off the
//! flight-recorder ring and folded into sums. Counted, not argued — this
//! binary's allocator counts the calls made on the test's own thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rdma_sim::{Fabric, NetworkProfile, Phase};
use telemetry::ForensicsCollector;

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
fn a_txn_outside_the_worst_k_allocates_nothing_in_the_forensics_path() {
    let fabric = Fabric::new(NetworkProfile::rdma_cx6());
    let nodes = [fabric.register_node(1 << 12), fabric.register_node(1 << 12)];
    let ep = fabric.endpoint();
    // Far shallower than the run, so the ring is wrapped most of the time.
    ep.enable_flight_recorder(64);
    let mut collector = ForensicsCollector::new(2);

    // One transaction with `think_ns` of local compute; returns how often
    // folding it into the collector allocated.
    let mut run = |trace: u64, think_ns: u64| {
        let (t0, pushed0) = (ep.clock().now_ns(), ep.flight_pushed());
        ep.set_trace_id(trace);
        {
            let _txn = ep.span(Phase::Execute);
            for node in nodes {
                let at = 8 * (trace % 64);
                let v = ep.read_u64(node, at).unwrap();
                ep.write_u64(node, at, v + 1).unwrap();
            }
            ep.charge_local(think_ns);
        }
        let end = ep.clock().now_ns();
        let before = ALLOCS.with(Cell::get);
        collector.record_steps(trace, t0, end, true, false, || ep.forensic_tail(trace, pushed0));
        ep.clear_trace_id();
        ALLOCS.with(Cell::get) - before
    };

    // The reservoir fills with two slow transactions; each keeps its chain.
    assert!(run(1, 1_000_000) > 0);
    assert!(run(2, 1_000_000) > 0);
    for trace in 3..500 {
        assert_eq!(run(trace, 0), 0, "txn {trace} is not among the 2 worst");
    }
    // A slower one still gets in, and pays for its chain then.
    assert!(run(500, 2_000_000) > 0);

    let snap = collector.snapshot();
    assert_eq!(snap.txns, 500);
    let worst: Vec<u64> = snap.worst.iter().map(|t| t.trace).collect();
    assert_eq!(worst, [500, 1]);
    assert_eq!(snap.worst[0].chain.len(), 4);
}
