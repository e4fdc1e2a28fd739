// Package segidx is the master index's write path: a segmented,
// compacting disk index that lets the system ingest documents while it
// serves queries, instead of rebuilding the single batch-built .xki
// from scratch (EMBANKS' disk-based segment/merge direction; see
// PAPERS.md).
//
// The design is LSM-shaped, built from the repo's existing storage
// pieces:
//
//   - a mutable in-memory segment (memtable) absorbs Add/Update/Delete
//     of documents;
//   - every acknowledged batch is first appended to a length-prefixed,
//     CRC-guarded WAL and fsynced, so no acknowledged ingest is lost to
//     a crash; reopening replays the log and stops cleanly at a torn
//     tail;
//   - Flush seals the memtable and writes it as an immutable .xki
//     segment (the exact diskindex format the batch load stage writes,
//     served by the same paged reader) plus a meta sidecar recording
//     which target objects the segment owns and which it deletes
//     (tombstones);
//   - a CRC-guarded manifest names the live segment set; it is replaced
//     via atomicio's temp+fsync+rename protocol, making the rename the
//     single commit point of every flush and compaction;
//   - compaction merges the on-disk segments into one larger
//     generation, resolving newest-wins updates and eliminating
//     tombstones that no longer mask anything.
//
// The whole store implements kwindex.Source by unioning postings across
// the memtable and every segment — newest layer wins per target object,
// tombstones mask deletes — so pipeline, exec, qserve and presentation
// run unchanged over a live, writable index.
package segidx

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/diskindex"
	"repro/internal/kwindex"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("segidx: store is closed")

// manifestName is the manifest file inside the store directory.
const manifestName = "MANIFEST"

// Options configure a Store. The zero value selects the defaults.
type Options struct {
	// Base is an optional read-only bulk index (the batch-built master
	// index) layered below every segment: ingested documents shadow it
	// per target object, deletes tombstone it. nil serves purely from
	// the segments.
	Base kwindex.Source
	// FlushBytes triggers an automatic flush when the memtable's
	// approximate footprint reaches it (default 4 MiB; negative
	// disables auto-flush).
	FlushBytes int64
	// CompactAt triggers compaction when the on-disk segment count
	// reaches it (default 8; negative disables auto-compaction).
	CompactAt int
	// AutoCompact runs triggered compactions on a background goroutine
	// instead of inline on the flushing caller.
	AutoCompact bool
	// NoSync skips the per-batch WAL fsync. Acknowledged writes are
	// then only as durable as the page cache — benchmarks and bulk
	// builds only.
	NoSync bool
	// IndexCacheBytes is the paged reader budget per segment (default
	// diskindex.DefaultCacheBytes).
	IndexCacheBytes int64
	// Logf receives rare operational messages (background flush or
	// compaction failures). nil discards them; Err still records the
	// first failure either way.
	Logf func(format string, args ...any)
}

func (o *Options) defaults() {
	if o.FlushBytes == 0 {
		o.FlushBytes = 4 << 20
	}
	if o.CompactAt == 0 {
		o.CompactAt = 8
	}
	if o.IndexCacheBytes <= 0 {
		o.IndexCacheBytes = diskindex.DefaultCacheBytes
	}
}

// Store is a live, writable master index over a directory of segments.
// Reads (the kwindex.Source methods) and writes (Apply/Add/Delete/
// Flush/Compact) are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	// ioMu serializes the structural operations — flush and compaction,
	// the two manifest writers. Always acquired before mu.
	ioMu sync.Mutex

	mu       sync.RWMutex
	man      *manifest           // guarded by mu
	stack    []layer             // guarded by mu — replaced, never mutated: [base] segments, sealed memtables, active memtable
	wal      *wal                // guarded by mu — the active log
	retired  []*diskindex.Reader // guarded by mu — compacted-away readers, closed at Close
	bgErr    error               // guarded by mu — first background flush/compaction failure
	flushes  int64               // guarded by mu
	compacts int64               // guarded by mu
	closed   bool                // guarded by mu

	compactCh chan struct{}
	done      chan struct{}
	wg        sync.WaitGroup

	// crash, when set (tests only), is invoked at the named points of
	// flush and compaction; a non-nil return aborts the operation there,
	// leaving the directory exactly as a kill at that instant would.
	crash func(point string) error
}

// Open opens (or creates) a segmented index at dir, recovering from any
// crash: torn temp files are quarantined, files no committed manifest
// references are deleted, and every log at or above the manifest's WAL
// floor is replayed into a fresh memtable — stopping cleanly at a torn
// tail, so acknowledged batches survive and a partially written one is
// discarded whole.
func Open(dir string, opts Options) (*Store, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// Recovery builds into locals and publishes under the lock at the
	// end, once the store is fully formed.
	s := &Store{dir: dir, opts: opts}
	if _, err := atomicio.Sweep(s.manifestPath()); err != nil {
		return nil, err
	}
	man, err := loadManifest(s.manifestPath())
	if err != nil {
		return nil, err
	}
	if man == nil {
		man = &manifest{WALFloor: 1, NextID: 1}
	}

	live := make(map[uint64]manifestSegment, len(man.Segments))
	for _, ent := range man.Segments {
		live[ent.ID] = ent
	}
	walIDs, maxID, err := s.sweepDir(live, man.WALFloor)
	if err != nil {
		return nil, err
	}
	if man.NextID <= maxID {
		man.NextID = maxID + 1
	}

	var stack []layer
	if opts.Base != nil {
		stack = append(stack, baseLayer{opts.Base})
	}
	for _, ent := range man.Segments {
		seg, err := openSegment(s.segPath(ent.ID), s.segMetaPath(ent.ID), ent, s.readerOptions())
		if err != nil {
			closeSegments(stack)
			return nil, fmt.Errorf("segidx: opening segment %d: %w", ent.ID, err)
		}
		stack = append(stack, seg)
	}

	// Replay the surviving logs, oldest first, into the fresh memtable.
	mem := newMemtable()
	sort.Slice(walIDs, func(i, j int) bool { return walIDs[i] < walIDs[j] })
	var activeID uint64
	var activeLen int64
	for _, id := range walIDs {
		n, err := replayWALFile(s.walPath(id), mem.apply)
		if err != nil {
			closeSegments(stack)
			return nil, fmt.Errorf("segidx: replaying %s: %w", s.walPath(id), err)
		}
		activeID, activeLen = id, n
	}
	if activeID == 0 {
		activeID = man.NextID
		man.NextID++
		activeLen = 0
	}
	wal, err := openWALForAppend(s.walPath(activeID), activeID, activeLen, !opts.NoSync)
	if err != nil {
		closeSegments(stack)
		return nil, err
	}

	s.mu.Lock()
	s.man, s.stack, s.wal = man, append(stack, mem), wal
	s.mu.Unlock()

	if opts.AutoCompact {
		s.compactCh = make(chan struct{}, 1)
		s.done = make(chan struct{})
		s.wg.Add(1)
		go s.compactor()
	}
	return s, nil
}

// sweepDir quarantines torn temp files, deletes files no committed
// manifest references, and returns the surviving log ids at or above
// walFloor plus the highest id seen anywhere (for the allocator).
func (s *Store) sweepDir(live map[uint64]manifestSegment, walFloor uint64) (walIDs []uint64, maxID uint64, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		switch {
		case strings.Contains(name, ".tmp-") && !strings.HasSuffix(name, atomicio.TornSuffix):
			// A kill mid-write left an uncommitted temp; preserve it for
			// forensics where it can never shadow a committed file.
			if err := os.Rename(filepath.Join(s.dir, name), filepath.Join(s.dir, name)+atomicio.TornSuffix); err != nil {
				return nil, 0, err
			}
		case strings.HasPrefix(name, "seg-"):
			id, ok := parseID(name, "seg-", ".xki")
			if !ok {
				id, ok = parseID(name, "seg-", ".meta")
			}
			if !ok {
				continue
			}
			if id > maxID {
				maxID = id
			}
			if _, referenced := live[id]; !referenced {
				// Debris of a flush or compaction that never committed, or
				// of one that was compacted away: provably not part of the
				// committed state.
				if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
					return nil, 0, err
				}
			}
		case strings.HasPrefix(name, "wal-"):
			id, ok := parseID(name, "wal-", ".log")
			if !ok {
				continue
			}
			if id > maxID {
				maxID = id
			}
			if id < walFloor {
				// Fully contained in a committed segment.
				if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
					return nil, 0, err
				}
				continue
			}
			walIDs = append(walIDs, id)
		}
	}
	return walIDs, maxID, nil
}

func parseID(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if mid == "" {
		return 0, false
	}
	var id uint64
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		id = id*10 + uint64(c-'0')
	}
	return id, true
}

func (s *Store) manifestPath() string { return filepath.Join(s.dir, manifestName) }
func (s *Store) segPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.xki", id))
}
func (s *Store) segMetaPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%06d.meta", id))
}
func (s *Store) walPath(id uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%06d.log", id))
}

func (s *Store) readerOptions() diskindex.Options {
	return diskindex.Options{CacheBytes: s.opts.IndexCacheBytes}
}

// segmentRun returns the bounds [lo, hi) of the committed segments in
// the stack ls: above the base index, below the memtables.
func (s *Store) segmentRun(ls []layer) (lo, hi int) {
	if s.opts.Base != nil {
		lo = 1
	}
	hi = len(ls) - 1 // the active memtable
	for hi > lo {
		if _, sealed := ls[hi-1].(*memtable); !sealed {
			break
		}
		hi--
	}
	return lo, hi
}

// active returns the stack's active memtable, its newest layer.
func active(ls []layer) *memtable { return ls[len(ls)-1].(*memtable) }

// closeSegments abandons the partially opened segment readers of a
// failed Open.
func closeSegments(stack []layer) {
	for _, l := range stack {
		if seg, ok := l.(*segment); ok {
			seg.rd.Close() //xk:ignore errdrop best-effort close while abandoning a failed open
		}
	}
}

// Add ingests (or replaces — newest wins) one document. The write is
// durable when Add returns nil.
func (s *Store) Add(d Document) error {
	var b Batch
	b.AddDoc(d)
	return s.Apply(b)
}

// Delete tombstones a target object: its postings in every older layer
// stop being visible. Deleting an unknown TO is a durable no-op.
func (s *Store) Delete(to int64) error {
	var b Batch
	b.DeleteTO(to)
	return s.Apply(b)
}

// Apply ingests a batch of operations with all-or-nothing durability:
// the batch is one WAL record, so after a crash either every operation
// of an acknowledged batch is recovered or a never-acknowledged batch
// is discarded whole.
func (s *Store) Apply(batch Batch) error {
	if len(batch) == 0 {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if err := s.wal.append(batch); err != nil {
		s.mu.Unlock()
		return err
	}
	mem := active(s.stack)
	mem.apply(batch)
	bytes := mem.approxBytes()
	s.mu.Unlock()

	if s.opts.FlushBytes > 0 && bytes >= s.opts.FlushBytes {
		// The ingest itself is already durable; a failed flush must not
		// make it look lost. Record and report the failure loudly instead.
		if err := s.Flush(); err != nil && !errors.Is(err, ErrClosed) {
			s.background("auto-flush", err)
		}
	}
	return nil
}

// background records a failed background operation: the first failure
// surfaces in Err (turning health checks unhealthy) and every one is
// logged.
func (s *Store) background(what string, err error) {
	s.mu.Lock()
	if s.bgErr == nil {
		s.bgErr = fmt.Errorf("segidx: %s: %w", what, err)
	}
	s.mu.Unlock()
	if s.opts.Logf != nil {
		s.opts.Logf("segidx: %s failed: %v", what, err)
	}
}

// Flush seals the memtable, writes it as an immutable segment, and
// commits it to the manifest; the old WAL generation is deleted once
// the segment supersedes it. A flush with nothing to write is a no-op.
func (s *Store) Flush() error {
	if err := s.flush(); err != nil {
		return err
	}
	// Outside flush's ioMu scope: an inline compaction takes it itself.
	s.maybeCompact()
	return nil
}

func (s *Store) flush() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	// Rotate: seal the memtable, start a fresh one and a fresh WAL
	// generation so ingest continues while the segment is written.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	ls := s.stack
	_, lo := s.segmentRun(ls) // the sealed memtables start here
	mem := active(ls)
	if mem.empty() && lo == len(ls)-1 {
		s.mu.Unlock()
		return nil
	}
	walID := s.man.NextID
	segID := s.man.NextID + 1
	s.man.NextID += 2
	nw, err := createWAL(s.walPath(walID), walID, !s.opts.NoSync)
	if err != nil {
		s.man.NextID -= 2 // nothing was sealed; the ids stay unused
		s.mu.Unlock()
		return err
	}
	oldWAL := s.wal
	s.wal = nw
	if !mem.empty() {
		// Sealing pushes a fresh memtable above the active one.
		ls = append(ls[:len(ls):len(ls)], newMemtable())
		s.stack = ls
	}
	man := &manifest{WALFloor: walID, NextID: s.man.NextID, Segments: append([]manifestSegment(nil), s.man.Segments...)}
	s.mu.Unlock()
	oldWAL.close() //xk:ignore errdrop the sealed log takes no further appends; replay tolerates its state either way

	if err := s.crashPoint("flush:after-wal-rotate"); err != nil {
		return err
	}
	if err := s.fold("flush", ls, lo, len(ls)-1, segID, man, func() { s.flushes++ }); err != nil {
		return err
	}
	// The committed segment supersedes every log below the new floor.
	s.removeWALsBelow(walID)
	return nil
}

// removeWALsBelow deletes log files below the floor, best-effort: a
// leftover is replay-idempotent and swept at the next open.
func (s *Store) removeWALsBelow(floor uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if id, ok := parseID(e.Name(), "wal-", ".log"); ok && id < floor {
			os.Remove(filepath.Join(s.dir, e.Name())) //xk:ignore errdrop best-effort GC; a survivor replays idempotently
		}
	}
}

func (s *Store) crashPoint(point string) error {
	if s.crash == nil {
		return nil
	}
	return s.crash(point)
}

// maybeCompact triggers compaction per the configured policy.
func (s *Store) maybeCompact() {
	if s.opts.CompactAt <= 0 {
		return
	}
	lo, hi := s.segmentRun(s.layers())
	if hi-lo < s.opts.CompactAt {
		return
	}
	if s.compactCh != nil {
		select {
		case s.compactCh <- struct{}{}:
		default: // a compaction signal is already pending
		}
		return
	}
	if err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
		s.background("auto-compaction", err)
	}
}

// compactor is the background compaction loop.
func (s *Store) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			if err := s.Compact(); err != nil && !errors.Is(err, ErrClosed) {
				s.background("background compaction", err)
			}
		}
	}
}

// Close stops background work and releases every file handle. Pending
// memtable state stays recoverable: it is in the WAL, and the next Open
// replays it.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.done != nil {
		close(s.done)
		s.wg.Wait()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	if err := s.wal.close(); err != nil && first == nil {
		first = err
	}
	lo, hi := s.segmentRun(s.stack)
	for _, l := range s.stack[lo:hi] {
		if err := l.(*segment).rd.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, rd := range s.retired {
		rd.Close() //xk:ignore errdrop retired readers were already superseded; nothing depends on them
	}
	return first
}
