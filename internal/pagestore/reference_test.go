package pagestore

import "fmt"

// mapStore is the page layout the arena replaced — one heap []byte per page
// in a map, plus the same LIFO free-list and counters — kept without its
// locks as the reference TestArenaMapParity drives beside the arena.
type mapStore struct {
	pageSize int
	pages    map[PageID][]byte
	free     []PageID
	next     PageID
	stats    Stats
}

func newMapStore(pageSize int) *mapStore {
	return &mapStore{pageSize: pageSize, pages: make(map[PageID][]byte), next: 1}
}

func (m *mapStore) Alloc() (PageID, error) {
	var id PageID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = m.next
		m.next++
	}
	m.pages[id] = make([]byte, m.pageSize)
	m.stats.Allocs++
	return id, nil
}

func (m *mapStore) Free(id PageID) error {
	if _, ok := m.pages[id]; !ok {
		return fmt.Errorf("mapStore: free of unknown page %d", id)
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	m.stats.Frees++
	return nil
}

func (m *mapStore) Read(id PageID) ([]byte, error) {
	p, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("mapStore: read of unknown page %d", id)
	}
	m.stats.Reads++
	return append([]byte(nil), p...), nil
}

func (m *mapStore) Write(id PageID, data []byte) error {
	p, ok := m.pages[id]
	if !ok || len(data) > m.pageSize {
		return fmt.Errorf("mapStore: bad write of %d bytes to page %d", len(data), id)
	}
	m.stats.Writes++
	copy(p, data)
	clear(p[len(data):])
	return nil
}

func (m *mapStore) Live() int        { return len(m.pages) }
func (m *mapStore) FreeListLen() int { return len(m.free) }
func (m *mapStore) Stats() Stats     { return m.stats }
