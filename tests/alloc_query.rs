//! Allocation pin of one warm served query. This binary installs a
//! counting `#[global_allocator]` and pins how many heap allocations one
//! `Resolver::query_embedding` (a raw vector, so no embedding) costs on a
//! 2-shard Exact-`Lanes` resolver over D1's right side.
//!
//! The count is process-wide, not per thread: a query that fans out
//! allocates on the worker threads it spawns (their handles, packets and
//! closures), and a thread-local counter would never see those. The
//! counter is armed only around the measured call, and the binary holds
//! exactly one test, so nothing else allocates concurrently. A change
//! that adds an allocation fails here by name; one that removes some
//! ratchets the pin down.

use embeddings4er::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by any thread of the process while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

#[test]
fn a_warm_two_shard_exact_query_allocates_the_pinned_count() {
    // Two per shard (the scan's top-k and its id-mapped copy); the list of
    // per-shard lists and the gathered answer, sorted and cut in place.
    // The pin is one clone of the published manifest's `Arc` and allocates
    // nothing. No thread, packet or closure: D1's ~45-row shards are far
    // below the fan-out gate.
    const QUERY_BUDGET: u64 = 6;

    let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
    let model = zoo.get(ModelCode::FT);
    let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
    let resolver = Resolver::new(
        model.as_ref(),
        SerializationMode::SchemaAgnostic,
        ServeConfig::new()
            .shards(2)
            .backend(BlockerBackend::Exact(Metric::Cosine))
            .scan(ScanConfig::with_tier(KernelTier::Lanes)),
    )
    .unwrap();
    for entity in &ds.right {
        assert!(resolver.insert(entity).unwrap());
    }
    assert!(resolver.shard_sizes().iter().all(|&n| n > 0));
    let query = resolver.embed(&ds.left[0]);
    let warm = resolver.query_embedding(&query, 10);
    assert_eq!(warm.len(), 10);

    let (hits, n) = allocations(|| resolver.query_embedding(&query, 10));
    assert_eq!(hits, warm, "a repeated query answers identically");
    assert!(
        n <= QUERY_BUDGET,
        "{n} allocations per warm query_embedding, budget {QUERY_BUDGET}"
    );
}
