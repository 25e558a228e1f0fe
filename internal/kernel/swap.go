package kernel

import "fmt"

// Swap support: the paper's §4.2 observes that setting off_thr below ~10%
// "dramatically degrades" performance because pages start swapping between
// memory and storage. To reproduce that cliff (the swap-threshold ablation
// in internal/exp), the kernel models a swap device: owners' pages can be
// evicted to swap (freeing their frames) and faulted back in, with the
// counts exposed so the harness can charge I/O latency.
//
// Swapped pages are tracked per owner as counts, not identities — content
// does not matter to any experiment, only the volume of traffic to the
// swap device.

// ErrSwapFull is returned when the swap device is exhausted (the OOM
// condition).
var ErrSwapFull = fmt.Errorf("kernel: swap device full")

// ConfigureSwap sets the swap device capacity. Zero disables swapping.
func (m *Mem) ConfigureSwap(bytes int64) {
	m.swapCapPages = bytes / m.cfg.PageBytes
}

// SetReclaimer installs the direct-reclaim hook: when AllocPages cannot
// satisfy a request, it calls fn(pagesNeeded) once; if fn frees memory and
// returns true, the allocation retries. This is where kswapd-style
// swap-out policy plugs in without the kernel dictating victim choice.
func (m *Mem) SetReclaimer(fn func(pages int64) bool) {
	m.reclaimer = fn
}

// SwapOutOwnerPages evicts up to n of owner's most recently allocated
// pages to swap, freeing their frames. Returns pages actually swapped.
// Fails with ErrSwapFull when the device cannot take them.
func (m *Mem) SwapOutOwnerPages(owner uint32, n int64) (int64, error) {
	if m.swapCapPages == 0 {
		return 0, fmt.Errorf("kernel: no swap configured")
	}
	have := m.OwnerPageCount(owner)
	if n > have {
		n = have
	}
	if m.swapUsedPages+n > m.swapCapPages {
		n = m.swapCapPages - m.swapUsedPages
		if n <= 0 {
			return 0, ErrSwapFull
		}
	}
	freed := m.FreeOwnerPages(owner, n)
	if m.swappedPages == nil {
		m.swappedPages = map[uint32]int64{}
	}
	m.swappedPages[owner] += freed
	m.swapUsedPages += freed
	m.swapOuts += freed
	return freed, nil
}

// SwapInOwnerPages faults up to n of owner's swapped pages back into
// memory. Returns pages brought in; fails when memory cannot hold them
// (after giving the reclaimer a chance via AllocPages).
func (m *Mem) SwapInOwnerPages(owner uint32, n int64) (int64, error) {
	sw := m.swappedPages[owner]
	if n > sw {
		n = sw
	}
	if n <= 0 {
		return 0, nil
	}
	if _, err := m.AllocPages(n, true, owner); err != nil {
		return 0, err
	}
	m.swappedPages[owner] -= n
	m.swapUsedPages -= n
	m.swapIns += n
	return n, nil
}

// SwappedPageCount reports owner's pages currently in swap.
func (m *Mem) SwappedPageCount(owner uint32) int64 { return m.swappedPages[owner] }

// SwapUsedBytes reports total swap occupancy.
func (m *Mem) SwapUsedBytes() int64 { return m.swapUsedPages * m.cfg.PageBytes }

// SwapTraffic reports cumulative swap-out and swap-in page counts — the
// thrashing signal the off_thr ablation measures.
func (m *Mem) SwapTraffic() (outs, ins int64) { return m.swapOuts, m.swapIns }
