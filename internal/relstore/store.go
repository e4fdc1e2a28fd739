package relstore

import (
	"fmt"
	"sort"
	"sync"
)

// DefaultPoolPages is the buffer-pool capacity the experiments install
// by default. The paper's machine had 1 GB RAM against a
// multi-hundred-MB database; a pool that holds a modest fraction of the
// benchmark relations reproduces the same cache dynamics.
const DefaultPoolPages = 4096

// Store owns a set of connection relations. Reads are safe for
// concurrent use once loading has finished.
type Store struct {
	// Pool is the simulated buffer pool every page access is charged
	// against. Nil (the default) counts every access as a page read;
	// the experiments install a pool before they measure, to reproduce
	// the paper's cache behaviour.
	Pool  *BufferPool
	Stats IOStats

	mu        sync.RWMutex
	relations map[string]*Relation
}

// NewStore returns an empty store with no buffer pool.
func NewStore() *Store {
	return &Store{relations: make(map[string]*Relation)}
}

// CreateRelation registers an empty relation with the given attributes.
func (s *Store) CreateRelation(name string, cols []string) (*Relation, error) {
	if name == "" || len(cols) == 0 {
		return nil, fmt.Errorf("relstore: relation needs a name and columns")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.relations[name]; dup {
		return nil, fmt.Errorf("relstore: duplicate relation %q", name)
	}
	r := &Relation{Name: name, Cols: append([]string(nil), cols...), store: s}
	s.relations[name] = r
	return r, nil
}

// Relation returns the named relation, or nil.
func (s *Store) Relation(name string) *Relation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.relations[name]
}

// Relations returns all relation names, sorted.
func (s *Store) Relations() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.relations))
	for n := range s.relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalRows returns the summed cardinality of all relations — the space
// cost of a decomposition, which §5.1 trades against join count.
func (s *Store) TotalRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.relations {
		n += r.NumRows()
	}
	return n
}

// Cells returns the number of int64 values the relations store: every
// sorted copy's tuples. TotalRows is the cardinality they represent.
func (s *Store) Cells() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.relations {
		n += r.cells()
	}
	return n
}

// TotalPages returns the summed primary page counts of all relations.
func (s *Store) TotalPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.relations {
		n += r.NumPages()
	}
	return n
}

// ResetStats zeroes the I/O counters and empties the buffer pool, if
// one is installed, so a benchmark can measure one query in isolation.
func (s *Store) ResetStats() {
	s.Stats = IOStats{}
	if s.Pool != nil {
		s.Pool.Reset()
	}
}
