//! Counting-allocator gate on the census table's column storage (paper
//! §5.1: the protected kernel wraps one private table per analysis, and
//! the striped census plans build every kernel from a clone of this one).
//!
//! A column stores its codes at the narrowest width that holds its
//! attribute's domain, and the census generator and `map_column` build
//! columns of exact capacity. So the rebinned census table (income at 64
//! or 357 bins, then age 5, marital 7, race 4 and gender 2 values) holds
//! one byte per row for each attribute of at most 256 values and two for
//! 357 income bins: 5 B/row at 64 bins and 6 B/row at 357. The gate counts
//! the bytes the table keeps live once the raw table it was rebinned from
//! is dropped, and allows 4 KiB beyond the columns for the schema and the
//! shared handles. `u32` codes would keep 20 B/row, and growth by doubling
//! up to twice that.
//!
//! The counter is thread-local: it sees the test thread's allocations
//! only, so the test harness or any other thread of the process cannot
//! add to the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ektelo_bench::rebin_census_income;
use ektelo_data::generators::{census_cps_sized, CENSUS_ROWS};
use ektelo_data::Table;

/// Bytes allowed beyond the column data.
const SLACK: usize = 4096;

struct CountingAllocator;

thread_local! {
    // A const-initialised `Cell` needs no lazy set-up and no destructor,
    // so touching it never allocates from inside the allocator.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize) {
    LIVE.with(|live| live.set(live.get() + bytes));
}

// SAFETY: pure pass-through to `System` plus a thread-local counter —
// every layout/pointer contract required of a `GlobalAlloc` is upheld by
// forwarding the arguments unchanged, and the counter has no effect on
// allocation behavior.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize);
        // SAFETY: same layout the caller passed in.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` (alloc/realloc above
        // forward to it) with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's requested size, unmodified.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The census table rebinned to `bins` income bins, with the bytes it
/// keeps live on this thread once the raw table is dropped.
fn rebinned_census(bins: usize) -> (Table, usize) {
    let before = LIVE.with(Cell::get);
    let table = rebin_census_income(&census_cps_sized(CENSUS_ROWS, 1), bins);
    let live = LIVE.with(Cell::get) - before;
    (
        table,
        usize::try_from(live).expect("the table holds memory"),
    )
}

#[test]
fn rebinned_census_table_holds_its_columns_at_domain_width() {
    for (bins, bytes_per_row) in [(64, 5), (357, 6)] {
        let (table, live) = rebinned_census(bins);
        assert_eq!(table.num_rows(), CENSUS_ROWS);
        let bound = bytes_per_row * CENSUS_ROWS + SLACK;
        assert!(
            live <= bound,
            "{bins} bins: the table keeps {live} live bytes, over {bound} \
             ({bytes_per_row} B/row + {SLACK})"
        );
        // The columns themselves are all there: the bound is not met by
        // a table missing data.
        assert!(
            live >= bytes_per_row * CENSUS_ROWS,
            "{bins} bins: {live} bytes"
        );
    }
}
