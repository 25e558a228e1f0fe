package kernel

import (
	"fmt"
	"math/bits"
)

// buddy is a binary-buddy allocator over a contiguous PFN range, the same
// scheme mm/page_alloc.c uses. Allocation takes the lowest-addressed free
// block, which matches the empirically useful property that free memory
// accumulates at high addresses — exactly what lets GreenDIMM off-line the
// top blocks.
//
// Each order's free blocks are a bitmap of block heads, so buddy lookup
// and the arbitrary-page carve-out that memory off-lining needs are bit
// tests, and a summary bitmap over it finds the lowest free block.
type buddy struct {
	base     PFN // first PFN of the zone
	npages   int64
	maxOrder int // largest block is 1<<maxOrder pages
	lists    []freeList
	free     int64
}

// freeList holds one order's free blocks. Bit i of heads is set when the
// block at base + i<<order is free; bit j of summary is set when heads[j]
// is non-zero; n counts the set bits of heads, so an empty order is
// skipped without a scan.
type freeList struct {
	heads   []uint64
	summary []uint64
	n       int64
}

// newBuddy creates a zone over [base, base+npages) with all pages free.
// npages must be a multiple of the max block size and base aligned to it.
func newBuddy(base PFN, npages int64, maxOrder int) (*buddy, error) {
	blk := int64(1) << maxOrder
	if npages <= 0 || npages%blk != 0 {
		return nil, fmt.Errorf("kernel: zone size %d not a multiple of max order block %d", npages, blk)
	}
	if int64(base)%blk != 0 {
		return nil, fmt.Errorf("kernel: zone base %d not aligned to %d", base, blk)
	}
	b := &buddy{
		base:     base,
		npages:   npages,
		maxOrder: maxOrder,
		lists:    make([]freeList, maxOrder+1),
	}
	for o := range b.lists {
		words := (npages>>o + 63) / 64
		b.lists[o] = freeList{heads: make([]uint64, words), summary: make([]uint64, (words+63)/64)}
	}
	for p := base; p < base+PFN(npages); p += PFN(blk) {
		b.insertFree(p, maxOrder)
	}
	b.free = npages
	return b, nil
}

// Contains reports whether pfn lies in the zone.
func (b *buddy) Contains(pfn PFN) bool {
	return pfn >= b.base && pfn < b.base+PFN(b.npages)
}

// Free reports the number of free pages.
func (b *buddy) Free() int64 { return b.free }

// slot locates the head bit of the order-aligned block at pfn: word index
// and mask.
func (b *buddy) slot(pfn PFN, order int) (int64, uint64) {
	i := int64(pfn-b.base) >> order
	return i >> 6, 1 << (i & 63)
}

func (b *buddy) insertFree(pfn PFN, order int) {
	l := &b.lists[order]
	w, bit := b.slot(pfn, order)
	l.heads[w] |= bit
	l.summary[w>>6] |= 1 << (w & 63)
	l.n++
}

func (b *buddy) removeFreeHead(pfn PFN, order int) {
	l := &b.lists[order]
	w, bit := b.slot(pfn, order)
	if l.heads[w] &^= bit; l.heads[w] == 0 {
		l.summary[w>>6] &^= 1 << (w & 63)
	}
	l.n--
}

// isFreeHead reports whether the order-aligned block at pfn is free.
func (b *buddy) isFreeHead(pfn PFN, order int) bool {
	w, bit := b.slot(pfn, order)
	return b.lists[order].heads[w]&bit != 0
}

// lowest returns the lowest free block head of a non-empty order: the
// first non-zero summary word (one per 4,096 blocks) names the heads
// word, and the lowest set bit of each gives the block.
func (b *buddy) lowest(order int) PFN {
	l := &b.lists[order]
	s := 0
	for l.summary[s] == 0 {
		s++
	}
	w := s<<6 + bits.TrailingZeros64(l.summary[s])
	i := int64(w)<<6 + int64(bits.TrailingZeros64(l.heads[w]))
	return b.base + PFN(i<<order)
}

// alloc takes the lowest-addressed free block of at least the given order,
// splitting as needed. Returns the head PFN.
func (b *buddy) alloc(order int) (PFN, bool) {
	if order > b.maxOrder {
		return 0, false
	}
	for o := order; o <= b.maxOrder; o++ {
		if b.lists[o].n == 0 {
			continue
		}
		pfn := b.lowest(o)
		b.removeFreeHead(pfn, o)
		// Split down to the requested order, freeing upper halves.
		for cur := o; cur > order; cur-- {
			half := PFN(int64(1) << (cur - 1))
			b.insertFree(pfn+half, cur-1)
		}
		b.free -= int64(1) << order
		return pfn, true
	}
	return 0, false
}

// freeBlock returns a block to the allocator, coalescing with free buddies.
func (b *buddy) freeBlock(pfn PFN, order int) {
	if !b.Contains(pfn) {
		panic(fmt.Sprintf("kernel: freeing pfn %d outside zone [%d,%d)", pfn, b.base, b.base+PFN(b.npages)))
	}
	// A free block headed at pfn can only be of an order pfn is aligned to.
	for o := 0; o <= b.maxOrder && (pfn-b.base)&(PFN(1)<<o-1) == 0; o++ {
		if b.isFreeHead(pfn, o) {
			panic(fmt.Sprintf("kernel: double free of pfn %d", pfn))
		}
	}
	b.free += int64(1) << order
	for order < b.maxOrder {
		size := PFN(int64(1) << order)
		bud := pfn ^ size // buddy address at this order
		if !b.isFreeHead(bud, order) {
			break
		}
		b.removeFreeHead(bud, order)
		if bud < pfn {
			pfn = bud
		}
		order++
	}
	b.insertFree(pfn, order)
}

// carve removes a specific free page from the free lists (the page must be
// free), splitting its containing free block. This is what page isolation
// does during memory off-lining. Reports whether the page was found free.
func (b *buddy) carve(pfn PFN) bool {
	// Find the free block containing pfn: its head is pfn aligned down at
	// some order with the free-head bit set.
	for o := 0; o <= b.maxOrder; o++ {
		head := pfn &^ (PFN(int64(1)<<o) - 1)
		if !b.isFreeHead(head, o) {
			continue
		}
		b.removeFreeHead(head, o)
		// Split the block, re-freeing every piece except the target page.
		for cur := o; cur > 0; cur-- {
			half := PFN(int64(1) << (cur - 1))
			if pfn < head+half {
				b.insertFree(head+half, cur-1)
			} else {
				b.insertFree(head, cur-1)
				head += half
			}
		}
		b.free--
		return true
	}
	return false
}
