//! Counting-allocator gate on shared table columns and the shared count
//! vector (paper §4, §5.1: the protected kernel wraps one private table
//! per analysis, and many analyses start from one source table).
//!
//! A `Table` holds its columns as shared `Arc` buffers and keeps its count
//! vector, once computed, in a slot its clones share. So handing a kernel
//! a clone of a table copies no column: the first `ProtectedKernel::init(
//! t.clone())` followed by `vectorize` performs exactly one data-sized
//! allocation, the count vector itself, and every later kernel over a
//! clone of `t` performs none and holds that same vector.
//! `Table::select`, and the kernel's `transform_select` built on it, share
//! the selected columns and allocate none. A column stores its codes at
//! its domain's width, one byte per row here, so it is 4,000 bytes and the
//! vector 32,768; every allocation of at least a column's bytes is
//! data-sized, so a copied column or a recounted vector fails the gate.
//!
//! The counter is thread-local: it sees the test thread's allocations
//! only, so the test harness or any other thread of the process cannot
//! add to a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use ektelo_core::ProtectedKernel;
use ektelo_data::{Schema, Table};

const ROWS: usize = 4_000;
const SIZES: [(&str, usize); 3] = [("a", 64), ("b", 8), ("c", 8)];
const CELLS: usize = 64 * 8 * 8;
/// Bytes of one column: an allocation at least this large is data-sized.
/// Every attribute here has at most 256 values, so a column stores one
/// `u8` code per row; a copied column of any width reaches this size.
const COLUMN_BYTES: usize = ROWS * std::mem::size_of::<u8>();
/// How many data-sized allocation sizes are kept.
const LOGGED: usize = 8;

struct CountingAllocator;

thread_local! {
    // Const-initialised `Cell`s need no lazy set-up and no destructor,
    // so touching them never allocates from inside the allocator.
    static DATA_SIZED: Cell<usize> = const { Cell::new(0) };
    static LOG: [Cell<usize>; LOGGED] = const { [const { Cell::new(0) }; LOGGED] };
}

fn record(size: usize) {
    if size >= COLUMN_BYTES {
        let i = DATA_SIZED.with(|n| n.replace(n.get() + 1));
        LOG.with(|log| {
            if let Some(slot) = log.get(i) {
                slot.set(size);
            }
        });
    }
}

// SAFETY: pure pass-through to `System` plus thread-local counters —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counters have no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
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
        record(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` on this thread and returns its result with the sizes of the
/// data-sized allocations it made, in order.
fn data_sized_allocations<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
    // The log restarts with each window.
    DATA_SIZED.with(|n| n.set(0));
    let out = f();
    let made = DATA_SIZED.with(Cell::get);
    assert!(made <= LOGGED, "more than {LOGGED} data-sized allocations");
    let sizes = LOG.with(|log| log[..made].iter().map(Cell::get).collect());
    (out, sizes)
}

/// A deterministic table of `ROWS` rows over the three attributes.
fn table() -> Table {
    let mut t = Table::empty(Schema::from_sizes(&SIZES));
    for i in 0..ROWS as u32 {
        t.push_row(&[(i * 7) % 64, (i * 3) % 8, (i / 5) % 8]);
    }
    t
}

/// A kernel over a clone of `t`, vectorized.
fn vectorized_kernel(t: &Table, seed: u64) -> ProtectedKernel {
    let kernel = ProtectedKernel::init(t.clone(), 1.0, seed);
    let x = kernel.vectorize(kernel.root()).unwrap();
    assert_eq!(kernel.vector_len(x).unwrap(), CELLS);
    kernel
}

#[test]
fn kernel_over_a_cloned_table_allocates_only_the_vector() {
    // Warm-up on another table: any lazily built process state.
    vectorized_kernel(&table(), 1);

    let t = table();
    let (kernel, sizes) = data_sized_allocations(|| vectorized_kernel(&t, 2));
    assert_eq!(
        sizes,
        vec![CELLS * std::mem::size_of::<f64>()],
        "data-sized allocations of init(clone) + vectorize (bytes, in order)"
    );

    // The kernel's projection shares the columns as well.
    let (selected, sizes) =
        data_sized_allocations(|| kernel.transform_select(kernel.root(), &["c", "a"]));
    selected.unwrap();
    assert_eq!(
        sizes,
        Vec::<usize>::new(),
        "transform_select copied a column"
    );
}

#[test]
fn second_kernel_over_a_clone_shares_the_vector() {
    let t = table();
    let _first = vectorized_kernel(&t, 1);
    let (second, sizes) = data_sized_allocations(|| vectorized_kernel(&t, 2));
    assert_eq!(
        sizes,
        Vec::<usize>::new(),
        "a kernel over a clone of a vectorized table recounted it"
    );
    // Both kernels hold the table's one vector: its refcount counts the
    // table's slot, each kernel's vector node and this handle. A vector
    // of its own in either kernel would leave the count lower.
    let x = t.count_vector();
    assert_eq!(Arc::strong_count(&x), 4);
    assert_eq!(*x, ektelo_data::vectorize(&t));
    drop(second);
    assert_eq!(Arc::strong_count(&x), 3);
}

#[test]
fn select_allocates_no_column() {
    let t = table();
    let (s, sizes) = data_sized_allocations(|| t.select(&["c", "a"]));
    assert_eq!(sizes, Vec::<usize>::new(), "select copied a column");
    assert_eq!(s.num_rows(), ROWS);
    assert_eq!(s.column("a"), t.column("a"));
    assert_eq!(s.row(11), vec![t.row(11)[2], t.row(11)[0]]);

    // The gate sees a copied column when one is made.
    let (_, sizes) = data_sized_allocations(|| t.column("b").clone());
    assert_eq!(sizes, vec![COLUMN_BYTES]);
}
