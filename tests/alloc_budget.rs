//! Allocation budget of warmed embedding. This binary installs a counting
//! `#[global_allocator]` and pins how many heap allocations one
//! `embed_into` of a fixed D1 record costs per tiny-zoo model.
//!
//! A static model allocates the normalized record string, and FastText
//! also one scratch row for the token it is building. The transformer
//! (BT) allocates the normalized string, its token-id list and one scratch
//! vector for every activation of its tape-free forward pass. Nothing else
//! on the per-record path touches the heap. A change that adds an
//! allocation fails here by name; one that removes some ratchets its pin
//! down.
//!
//! The counters are `const`-initialized thread-locals: the test harness
//! runs tests on parallel threads that must never see each other's
//! allocations, and the allocator must not allocate on first access.

use embeddings4er::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
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

/// Allocations made by this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// The tiny zoo and D1's first left record, built once per binary.
fn fixture() -> &'static (ModelZoo, String) {
    static FIXTURE: OnceLock<(ModelZoo, String)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let zoo = ModelZoo::pretrain(None, &ZooConfig::tiny(), 42);
        let ds = CleanCleanDataset::generate(DatasetId::D1, 42);
        (
            zoo,
            ds.left[0].serialize(&SerializationMode::SchemaAgnostic),
        )
    })
}

/// Allocations of one `embed_into` of the fixture record, after a warm-up
/// call into the same row.
fn allocs_per_record(code: ModelCode) -> u64 {
    let (zoo, text) = fixture();
    let model = zoo.get(code);
    let mut row = vec![0.0f32; model.dim()];
    model.embed_into(text, &mut row);
    allocations(|| model.embed_into(text, &mut row))
}

#[test]
fn static_models_allocate_at_most_twice_per_record() {
    // The normalized string, plus FastText's scratch row.
    let budgets = [(ModelCode::WC, 1), (ModelCode::GE, 1), (ModelCode::FT, 2)];
    for (code, budget) in budgets {
        let n = allocs_per_record(code);
        assert!(
            n <= budget,
            "{code}: {n} allocations per embed_into, budget {budget}"
        );
    }
}

#[test]
fn bt_allocations_per_record_stay_at_the_pinned_count() {
    // The normalized string, the id list and the activation scratch.
    const BT_BUDGET: u64 = 3;
    let n = allocs_per_record(ModelCode::BT);
    assert!(
        n <= BT_BUDGET,
        "BT: {n} allocations per embed_into, budget {BT_BUDGET}"
    );
}
