//! Pins the allocation budget of [`gather_core::cache::spec_key`].
//!
//! The key streams the spec's canonical JSON straight into SHA-256, so its
//! only heap allocations are building the serde value tree (`to_value`) and
//! the returned key string. A sorted clone of the tree, a rendered JSON
//! `String`, a padded copy of it or per-byte hex formatting would each show
//! up here as extra allocations. The same counting-allocator technique as
//! `alloc_free_robots.rs` applies; this file holds a single test so no other
//! test thread allocates while it measures.

// A counting `GlobalAlloc` is necessarily `unsafe`; the workspace denies
// `unsafe_code`, so this test opts back in explicitly.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use gather_core::cache::spec_key;
use gather_core::scenario::{AlgorithmSpec, GraphSpec, LabelSpec, PlacementSpec, ScenarioSpec};
use gather_core::GatherConfig;
use gather_graph::generators::Family;
use gather_sim::placement::PlacementKind;
use gather_sim::{ByzantineStrategy, FaultPlan};
use serde::Serialize;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drop(std::hint::black_box(f()));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn spec_key_allocates_only_the_value_tree_and_the_key() {
    let plain = ScenarioSpec::new(
        GraphSpec::new(Family::Cycle, 8),
        PlacementSpec::new(PlacementKind::UndispersedRandom, 3),
        AlgorithmSpec::new("faster_gathering"),
    )
    .with_seed(7);
    let exotic = ScenarioSpec::new(
        GraphSpec::new(
            Family::GridWithHoles {
                rows: 5,
                cols: 4,
                holes: 3,
            },
            20,
        ),
        PlacementSpec::new(PlacementKind::PairAtDistance(3), 4)
            .with_labels(LabelSpec::Random { b: 2 }),
        AlgorithmSpec::new("needs \"escaping\"\n\u{e9}")
            .with_config(GatherConfig::with_calibrated_uxs(500)),
    )
    .with_faults(
        FaultPlan::new(11)
            .crash(1, 4)
            .byzantine(2, ByzantineStrategy::Impersonate),
    );
    for spec in [&plain, &exotic] {
        // Warm up anything lazily initialised on first use.
        let _ = spec_key(spec);
        let tree = allocations(|| spec.to_value());
        let key = allocations(|| spec_key(spec));
        assert!(tree > 0, "the value tree is heap-allocated");
        assert!(
            key <= tree + 1,
            "spec_key made {key} allocations; to_value alone makes {tree}, plus one key"
        );
    }
}
