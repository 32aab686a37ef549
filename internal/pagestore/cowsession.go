package pagestore

import "fmt"

// COWSession scopes one copy-on-write mutation epoch over a store for the
// page-backed structure of one version, the octree. Pages allocated within a
// session are owned by it and may be rewritten in place; everything else
// is shared with older published versions and must be shadow-copied onto a
// fresh page before changing. Write enforces the rule: it is the store's
// only way to change a page. In full-ownership mode (construction, load —
// no published predecessor exists) every page counts as owned, which
// reduces to classic mutate-in-place behavior.
type COWSession struct {
	store *Store
	all   bool
	owned map[PageID]struct{}
	// freed collects shared pages the session stopped referencing. They
	// stay readable by older versions until an epoch reclaimer frees them.
	freed *[]PageID
}

// NewFullSession returns a session that owns everything — the
// single-version mode used while building or loading a structure.
func NewFullSession(store *Store) *COWSession {
	return &COWSession{store: store, all: true}
}

// NewCOWSession returns a session owning nothing yet: every pre-existing
// page is shared, and replaced pages defer their frees into freed.
func NewCOWSession(store *Store, freed *[]PageID) *COWSession {
	return &COWSession{store: store, owned: make(map[PageID]struct{}), freed: freed}
}

// Alloc reserves a page and records session ownership.
func (s *COWSession) Alloc() (PageID, error) {
	id, err := s.store.Alloc()
	if err == nil && !s.all {
		s.owned[id] = struct{}{}
	}
	return id, err
}

// Owned reports whether the session may rewrite the page in place.
func (s *COWSession) Owned(id PageID) bool {
	if s.all {
		return true
	}
	_, ok := s.owned[id]
	return ok
}

// Write replaces the contents of a page the session owns and counts one
// write I/O; short data is zero-padded. A page the session does not own may
// be visible to readers of a published version, so Write refuses it and
// leaves its bytes alone.
func (s *COWSession) Write(id PageID, data []byte) error {
	if !s.Owned(id) {
		return fmt.Errorf("pagestore: write of page %d, which the session does not own", id)
	}
	return s.store.write(id, data)
}

// Free releases a page the session's structure stops referencing:
// immediately when the session owns it (no published version can see it),
// deferred to the freed list otherwise.
func (s *COWSession) Free(id PageID) error {
	if s.all {
		return s.store.Free(id)
	}
	if _, ok := s.owned[id]; ok {
		delete(s.owned, id)
		return s.store.Free(id)
	}
	*s.freed = append(*s.freed, id)
	return nil
}

// Abort returns every page the session allocated to the store — none of
// them are visible to any published version — and forgets its deferred
// frees. The session must not be used afterwards.
func (s *COWSession) Abort() {
	for id := range s.owned {
		_ = s.store.Free(id)
	}
	s.owned = nil
}
