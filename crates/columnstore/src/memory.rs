//! Transparent huge pages for the big arrays an index writes fresh.
//!
//! A cracker column, a scan's key copy or a sorted index is one allocation
//! of up to hundreds of MiB that the build writes from end to end. Faulted
//! in 4 KiB at a time, a 16 MiB array costs 4 096 page faults and as many
//! TLB entries; on 2 MiB pages it costs 8. Where the host runs transparent
//! huge pages in `madvise` mode, an allocation gets 2 MiB pages only if the
//! process asks for them, and it must ask before the first write faults the
//! memory in. [`advise_huge_pages`] asks, for the 2 MiB-aligned interior of
//! a vector's allocation; the ragged ends stay on small pages. Where the
//! host runs them `always` the advice changes nothing, where it runs them
//! `never` (or the kernel has none) it is refused and ignored, and on a
//! target other than Linux it compiles to nothing.
//!
//! Advise only a vector the caller is about to write in full: a huge page
//! that is written at all is resident whole.

use std::ops::Range;

/// Bytes in one transparent huge page (x86-64 and aarch64 with 4 KiB base
/// pages).
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// The 2 MiB-aligned interior of the address range `[start, start + bytes)`:
/// its start rounded up and its end rounded down to a multiple of
/// [`HUGE_PAGE_BYTES`]. Empty when no whole aligned 2 MiB block lies inside.
fn huge_page_interior(start: usize, bytes: usize) -> Range<usize> {
    let end = start.saturating_add(bytes);
    let first = start
        .checked_next_multiple_of(HUGE_PAGE_BYTES)
        .unwrap_or(usize::MAX);
    let last = end - end % HUGE_PAGE_BYTES;
    first..last.max(first)
}

/// Ask the kernel to back the 2 MiB-aligned interior of `vec`'s allocation
/// (its whole capacity, not only its length) with transparent huge pages.
/// Call it right after allocating, before anything writes: `vec![0; n]`
/// (whose fresh pages `calloc` leaves untouched) or `Vec::with_capacity(n)`
/// followed by `extend` to exactly `n`. The advice changes no byte; its
/// refusal is ignored.
pub fn advise_huge_pages<T>(vec: &Vec<T>) {
    let base = vec.as_ptr().cast::<u8>();
    let bytes = vec.capacity() * std::mem::size_of::<T>();
    let interior = huge_page_interior(base.addr(), bytes);
    if !interior.is_empty() {
        let start = base.wrapping_add(interior.start - base.addr());
        advise(start, interior.len());
    }
}

/// `madvise(start, len, MADV_HUGEPAGE)`, its result ignored.
#[cfg(target_os = "linux")]
fn advise(start: *const u8, len: usize) {
    use std::ffi::{c_int, c_void};
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    const MADV_HUGEPAGE: c_int = 14;
    // SAFETY: `madvise` with MADV_HUGEPAGE changes no byte of memory and
    // moves no mapping; it only marks how the kernel backs the range.
    // `[start, start + len)` is page-aligned and lies inside one live `Vec`
    // allocation, so no memory outside what that vector owns is advised.
    // A refusal (EINVAL where the kernel has no THP) returns -1, ignored.
    let _ = unsafe { madvise(start.cast_mut().cast::<c_void>(), len, MADV_HUGEPAGE) };
}

/// Elsewhere there is no advice to give.
#[cfg(not(target_os = "linux"))]
fn advise(_start: *const u8, _len: usize) {}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    #[test]
    fn the_interior_of_an_empty_range_is_empty() {
        assert!(huge_page_interior(0, 0).is_empty());
        assert!(huge_page_interior(3 * MIB + 5, 0).is_empty());
    }

    #[test]
    fn a_range_shorter_than_a_huge_page_has_no_interior() {
        assert!(huge_page_interior(4 * MIB, MIB).is_empty());
        assert!(huge_page_interior(4 * MIB + 4096, 2 * MIB - 8192).is_empty());
    }

    #[test]
    fn both_unaligned_ends_are_rounded_inwards() {
        assert_eq!(huge_page_interior(MIB + 16, 9 * MIB), 2 * MIB..10 * MIB);
        assert_eq!(huge_page_interior(3 * MIB, 16 * MIB), 4 * MIB..18 * MIB);
    }

    #[test]
    fn an_aligned_range_is_its_own_interior() {
        assert_eq!(huge_page_interior(4 * MIB, 16 * MIB), 4 * MIB..20 * MIB);
        assert_eq!(huge_page_interior(0, 2 * MIB), 0..2 * MIB);
    }

    #[test]
    fn an_interior_that_rounds_to_nothing_is_empty() {
        // over 2 MiB long, but it crosses a boundary without holding a block
        assert!(huge_page_interior(MIB, 2 * MIB).is_empty());
        assert!(huge_page_interior(2 * MIB + 1, 4 * MIB - 2).is_empty());
        // and ranges at the very top of the address space do not overflow
        assert!(huge_page_interior(usize::MAX - MIB, 4 * MIB).is_empty());
    }

    #[test]
    fn advising_changes_no_element() {
        for len in [0, 1, 3 * MIB / 8, MIB] {
            let mut zeroed = vec![0u64; len];
            advise_huge_pages(&zeroed);
            assert!(zeroed.iter().all(|&x| x == 0));
            zeroed
                .iter_mut()
                .enumerate()
                .for_each(|(i, x)| *x = i as u64);
            advise_huge_pages(&zeroed);
            assert!(zeroed.iter().enumerate().all(|(i, &x)| x == i as u64));
        }
        advise_huge_pages(&Vec::<()>::with_capacity(8));
    }
}
