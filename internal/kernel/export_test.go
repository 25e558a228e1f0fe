package kernel

// ZoneFree reports the free pages of the Normal zone and of the Movable
// zone (0 without one).
func ZoneFree(m *Mem) (normal, movable int64) {
	if m.movable != nil {
		movable = m.movable.Free()
	}
	return m.normal.Free(), movable
}

// OwnerSlots reports the size of the owner table, recycled slots included.
func OwnerSlots(m *Mem) int { return len(m.owners) }

// PageArray identifies m's page-metadata array, so a test can tell
// whether a boot recycled a released Mem's storage.
func PageArray(m *Mem) *pageMeta { return &m.pages[0] }
