// Package intern provides a string interner: a symbol table mapping
// strings to stable, dense uint32 handles. It exists for the hot paths that
// would otherwise hash, compare, or copy the same topic / host / user
// strings millions of times — a handle is 4 bytes, comparable with one
// integer instruction, and usable as an index into a dense side table
// (struct-of-array layouts, COW dispatch slices) that the caller keeps.
package intern

import "sync"

// Table is a string interner. Handles start at 1: Table never issues 0, so
// a zero value in a record unambiguously means "no string". The zero value
// is NOT ready to use; call New.
// All methods are safe for concurrent use.
type Table struct {
	mu    sync.Mutex
	byStr map[string]uint32
}

// New returns an empty table.
func New() *Table {
	return &Table{byStr: make(map[string]uint32)}
}

// Intern returns the stable handle for s, assigning the next dense handle
// on first sight. Handles are never reused or invalidated.
func (t *Table) Intern(s string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if h, ok := t.byStr[s]; ok {
		return h
	}
	h := uint32(len(t.byStr) + 1)
	t.byStr[s] = h
	return h
}

// Lookup returns the handle for s if it has been interned. It takes the
// mutex (map reads cannot race map writes); hot paths should carry
// handles, not strings.
func (t *Table) Lookup(s string) (uint32, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.byStr[s]
	return h, ok
}
