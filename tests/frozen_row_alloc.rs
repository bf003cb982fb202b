//! The serve path's allocation claim, pinned with a counting global
//! allocator: once a [`FrozenPage`]'s memos (structural segments and
//! node-text ids) and the caller's [`FeatureScratch`] are warm,
//! `FrozenPage::row` allocates exactly its output `SparseVec` (one block,
//! none when the row is empty). The fixture's rows carry node-text ids, so
//! the claim covers the node-text memo too.
//!
//! Allocations are counted per thread, so the test harness's own threads
//! never leak into the count.
//!
//! [`FrozenPage`]: ceres::core::features::FrozenPage

use ceres::core::config::FeatureConfig;
use ceres::core::features::{FeatureScratch, FeatureSpace};
use ceres::core::page::PageView;
use ceres::synth::swde::{movie_vertical, SwdeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialized thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded contract of `GlobalAlloc::realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract of `GlobalAlloc::dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_frozen_row_allocates_only_its_output() {
    let (v, _) = movie_vertical(SwdeConfig { seed: 13, scale: 0.02 });
    let site = &v.sites[0];
    let views: Vec<PageView> =
        site.pages.iter().take(13).map(|p| PageView::build(&p.id, &p.html, &v.kb)).collect();
    let (train, served) = views.split_at(12);
    let refs: Vec<&PageView> = train.iter().collect();
    let mut space = FeatureSpace::new(&refs, FeatureConfig::default());
    let mut scratch = FeatureScratch::new();
    for pv in train {
        for f in &pv.fields {
            space.features_with(pv, f.node, &mut scratch);
        }
    }
    space.freeze();

    let pv = &served[0];
    assert!(pv.fields.len() > 20, "fixture too small: {} fields", pv.fields.len());
    let mut frozen = space.frozen_page(pv);
    let warm: Vec<_> = pv.fields.iter().map(|f| frozen.row(f.node, &mut scratch)).collect();
    assert!(warm.iter().any(|x| x.nnz() > 10), "rows carry no features");
    let text_ids = warm
        .iter()
        .flat_map(|x| x.iter())
        .filter(|&(id, _)| space.dict.name(id).starts_with("t:"))
        .count();
    assert!(text_ids > 0, "rows carry no node-text features");
    for (f, expected) in pv.fields.iter().zip(&warm) {
        let before = allocs();
        let x = frozen.row(f.node, &mut scratch);
        let n = allocs() - before;
        assert_eq!(&x, expected, "memoized row differs for {:?}", f.node);
        assert_eq!(n, usize::from(!x.is_empty()), "row of {:?} allocated {n} blocks", f.node);
    }
}
