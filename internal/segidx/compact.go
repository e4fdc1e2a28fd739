package segidx

import (
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/kwindex"
)

// Flush and compaction each fold a run of adjacent layers into one new
// segment that takes the run's place in the stack: flush folds the
// sealed memtables, compaction the committed segments. The merge follows
// the stack's one rule, restricted to the run: a claim or posting of the
// run survives unless a newer layer of the run claims its TO. An owning
// tombstone contributes nothing and is itself kept only while a layer
// below the run (an earlier segment or the base index) could still hold
// postings it must mask. Compacting the full segment set of a baseless
// store therefore eliminates every tombstone.

// merge resolves a run of layers (oldest first) into one segment's
// content. A layer's recorded read fault fails the merge: a merged
// segment must never silently drop postings.
func merge(run []layer) (postings map[string][]kwindex.Posting, docs map[int64]string, tombs map[int64]bool, err error) {
	postings = make(map[string][]kwindex.Posting)
	docs = make(map[int64]string)
	tombs = make(map[int64]bool)
	for i, l := range run {
		l.eachClaim(func(to int64, c claim, sum string) {
			if !owns(run, i, to) {
				return
			}
			if c == docClaim {
				docs[to] = sum
			} else {
				tombs[to] = true
			}
		})
		for _, term := range l.terms() {
			for _, p := range l.postings(term) {
				if owns(run, i, p.TO) {
					postings[term] = append(postings[term], p)
				}
			}
		}
		if err := l.err(); err != nil {
			return nil, nil, nil, err
		}
	}
	return postings, docs, tombs, nil
}

// fold is the one path from a run of layers to an installed segment,
// shared by flush and compaction (what names which, in errors and crash
// points). It merges ls[lo:hi], writes the result as segment segID with
// retry, reopens it, and commits man with the new segment appended to
// its list: the manifest rename is the commit point, so a crash at any
// earlier instant leaves the old view in force. It then replaces the run
// with the new segment in the stack and calls installed, both under the
// store lock. ls must be the current stack; the caller holds ioMu, so no
// other install can replace it meanwhile.
func (s *Store) fold(what string, ls []layer, lo, hi int, segID uint64, man *manifest, installed func()) error {
	postings, docs, tombs, err := merge(ls[lo:hi])
	if err != nil {
		return fmt.Errorf("segidx: %s read: %w", what, err)
	}
	if lo == 0 {
		tombs = nil // nothing below the run for a tombstone to mask
	}
	var xkiCRC, metaCRC uint32
	err = fault.DefaultRetry.Do(func() error {
		var werr error
		xkiCRC, metaCRC, werr = writeSegment(s.segPath(segID), s.segMetaPath(segID), postings, docs, tombs)
		return werr
	})
	if err != nil {
		return fmt.Errorf("segidx: %s: writing segment %d: %w", what, segID, err)
	}
	if err := s.crashPoint(what + ":after-segment-write"); err != nil {
		return err
	}

	ent := manifestSegment{ID: segID, XKICRC: xkiCRC, MetaCRC: metaCRC}
	seg, err := openSegment(s.segPath(segID), s.segMetaPath(segID), ent, s.readerOptions())
	if err != nil {
		return fmt.Errorf("segidx: %s: reopening segment %d: %w", what, segID, err)
	}
	// On any error from here the new segment's reader is closed and the
	// old view stays in force.
	if err := s.crashPoint(what + ":before-manifest"); err != nil {
		seg.rd.Close() //xk:ignore errdrop abandoning the uncommitted segment; the simulated crash is what matters
		return err
	}
	man.Segments = append(man.Segments, ent)
	if err := fault.DefaultRetry.Do(func() error { return commitManifest(s.manifestPath(), man) }); err != nil {
		seg.rd.Close() //xk:ignore errdrop abandoning the uncommitted segment; the commit error is what matters
		return fmt.Errorf("segidx: committing manifest: %w", err)
	}
	if err := s.crashPoint(what + ":after-manifest"); err != nil {
		seg.rd.Close() //xk:ignore errdrop simulated kill directly after commit; reopen validates the committed state
		return err
	}

	stack := make([]layer, 0, len(ls)-(hi-lo)+1)
	stack = append(append(append(stack, ls[:lo]...), seg), ls[hi:]...)
	s.mu.Lock()
	s.man, s.stack = man, stack
	installed()
	s.mu.Unlock()
	return nil
}

// Compact merges every committed segment into one new generation,
// resolving newest-wins updates and dropping tombstones that no longer
// mask anything (all of them, when the store has no base index). The
// memtable layers are untouched — compaction never blocks ingest. With
// fewer than two segments there is nothing to merge and Compact is a
// no-op.
func (s *Store) Compact() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	ls := s.stack
	lo, hi := s.segmentRun(ls)
	if hi-lo < 2 {
		s.mu.Unlock()
		return nil
	}
	segID := s.man.NextID
	s.man.NextID++
	man := &manifest{WALFloor: s.man.WALFloor, NextID: s.man.NextID}
	s.mu.Unlock()

	old := ls[lo:hi]
	if err := s.fold("compact", ls, lo, hi, segID, man, func() {
		// In-flight reads may still hold the old readers through a stack
		// snapshot; retire them and let Close release the handles.
		for _, l := range old {
			s.retired = append(s.retired, l.(*segment).rd)
		}
		s.compacts++
	}); err != nil {
		return err
	}

	// The superseded files are unreferenced now. Open handles keep the
	// unlinked inodes readable for snapshots already taken.
	for _, l := range old {
		id := l.(*segment).id
		os.Remove(s.segPath(id))     //xk:ignore errdrop best-effort GC; a survivor is swept at the next open
		os.Remove(s.segMetaPath(id)) //xk:ignore errdrop best-effort GC; a survivor is swept at the next open
	}
	return nil
}
