//! Counting-allocator gate on the stripe transforms of the striped plans
//! (paper §9.2, Algorithm 5), on the 357×5×7×4×2 census domain striped
//! along its first attribute (280 stripes of 357 cells).
//!
//! Building the stripe partition must take O(1) allocations — labels and
//! the CSR arrays, never one per cell — and splitting by it O(groups):
//! each child owns its data vector, its selector and their handles, but
//! nothing is allocated per cell and the partition is not copied. The
//! triplet-built forms these replace allocated once per cell (about 10⁵
//! allocations for each step) and fail both bounds by orders of
//! magnitude.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ektelo_core::kernel::ProtectedKernel;
use ektelo_core::ops::partition::stripe_partition;

const SIZES: [usize; 5] = [357, 5, 7, 4, 2];
const ATTR: usize = 0;
const GROUPS: u64 = 5 * 7 * 4 * 2;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed atomic counter —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counter has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (alloc/realloc above
        // forward to it) with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

// One test in this binary, so no other test thread allocates inside the
// counting windows.
#[test]
fn stripe_transforms_allocate_per_group_not_per_cell() {
    let n: usize = SIZES.iter().product();
    let x: Vec<f64> = (0..n).map(|i| (i % 5) as f64).collect();
    let k = ProtectedKernel::init_from_vector(x, 1.0, 7);

    let (p, build) = allocations_during(|| stripe_partition(&SIZES, ATTR));
    assert_eq!(p.shape(), (GROUPS as usize, n));
    assert!(
        build <= 8,
        "stripe_partition made {build} allocations; expected O(1) (≤ 8)"
    );

    let (stripes, split) = allocations_during(|| k.split_by_partition(k.root(), &p).unwrap());
    assert_eq!(stripes.len() as u64, GROUPS);
    let bound = 8 * GROUPS + 16;
    assert!(
        split <= bound,
        "split_by_partition made {split} allocations for {GROUPS} groups; \
         expected O(groups) (≤ {bound})"
    );
    assert_eq!(k.vector_len(stripes[0]).unwrap(), SIZES[ATTR]);
}
