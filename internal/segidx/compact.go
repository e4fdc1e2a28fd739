package segidx

import (
	"fmt"
	"os"

	"repro/internal/kwindex"
)

// Merging layers — whether sealed memtables at flush or committed
// segments at compaction — follows one rule: walking newest to oldest,
// the first layer to claim a target object owns it. An owning document
// entry carries that TO's postings into the merged output; an owning
// tombstone contributes nothing and is itself kept only while an even
// older layer (an earlier segment or the base index) could still hold
// postings it must mask. Compacting the full segment set of a baseless
// store therefore eliminates every tombstone.

// mergeMemtables merges sealed memtables (oldest first) into one
// segment's content.
func mergeMemtables(mems []*memtable) (postings map[string][]kwindex.Posting, docs map[int64]string, tombs map[int64]bool) {
	type snap struct {
		postings map[string][]kwindex.Posting
		docs     map[int64]string
		tombs    map[int64]bool
	}
	snaps := make([]snap, len(mems))
	for i, m := range mems {
		p, d, t := m.snapshot()
		snaps[i] = snap{p, d, t}
	}
	owner := make(map[int64]int) // TO → index of the layer whose document owns it
	docs = make(map[int64]string)
	tombs = make(map[int64]bool)
	claimed := make(map[int64]bool)
	for i := len(snaps) - 1; i >= 0; i-- {
		for to, sum := range snaps[i].docs {
			if !claimed[to] {
				claimed[to] = true
				owner[to] = i
				docs[to] = sum
			}
		}
		for to := range snaps[i].tombs {
			if !claimed[to] {
				claimed[to] = true
				tombs[to] = true
			}
		}
	}
	postings = make(map[string][]kwindex.Posting)
	for i, sn := range snaps {
		for tok, ps := range sn.postings {
			for _, p := range ps {
				if o, ok := owner[p.TO]; ok && o == i {
					postings[tok] = append(postings[tok], p)
				}
			}
		}
	}
	return postings, docs, tombs
}

// mergeSegments merges committed segments (oldest first) into one
// segment's content, reading postings back through each segment's
// paged reader.
func mergeSegments(segs []*segment) (postings map[string][]kwindex.Posting, docs map[int64]string, tombs map[int64]bool, err error) {
	owner := make(map[int64]int)
	docs = make(map[int64]string)
	tombs = make(map[int64]bool)
	claimed := make(map[int64]bool)
	for i := len(segs) - 1; i >= 0; i-- {
		for to, sum := range segs[i].docs {
			if !claimed[to] {
				claimed[to] = true
				owner[to] = i
				docs[to] = sum
			}
		}
		for to := range segs[i].tombs {
			if !claimed[to] {
				claimed[to] = true
				tombs[to] = true
			}
		}
	}
	postings = make(map[string][]kwindex.Posting)
	for i, sg := range segs {
		// Terms are tokens, and tokenization is idempotent on its own
		// output, so ContainingList resolves each term exactly.
		for _, term := range sg.rd.Terms() {
			for _, p := range sg.rd.ContainingList(term) {
				if o, ok := owner[p.TO]; ok && o == i {
					postings[term] = append(postings[term], p)
				}
			}
		}
		// The reader soft-fails lookups; a compaction must not commit a
		// merged segment that silently dropped postings.
		if err := sg.rd.Err(); err != nil {
			return nil, nil, nil, fmt.Errorf("segment %d: %w", sg.id, err)
		}
	}
	return postings, docs, tombs, nil
}

// Compact merges every committed segment into one new generation,
// resolving newest-wins updates and dropping tombstones that no longer
// mask anything (all of them, when the store has no base index). The
// memtable layers are untouched — compaction never blocks ingest — and
// the manifest rename is the commit point: a crash at any earlier
// instant leaves the old segment set in force. With fewer than two
// segments there is nothing to merge and Compact is a no-op.
func (s *Store) Compact() error {
	s.ioMu.Lock()
	defer s.ioMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.segs) < 2 {
		s.mu.Unlock()
		return nil
	}
	old := append([]*segment(nil), s.segs...)
	segID := s.man.NextID
	s.man.NextID++
	walFloor := s.man.WALFloor
	nextID := s.man.NextID
	hasBase := s.opts.Base != nil
	s.mu.Unlock()

	postings, docs, tombs, err := mergeSegments(old)
	if err != nil {
		return fmt.Errorf("segidx: compaction read: %w", err)
	}
	if !hasBase {
		tombs = nil // no base below the merged set: nothing left to mask
	}

	var xkiCRC, metaCRC uint32
	err = s.opts.Retry.Do(func() error {
		var werr error
		xkiCRC, metaCRC, werr = writeSegment(s.segPath(segID), s.segMetaPath(segID), postings, docs, tombs)
		return werr
	})
	if err != nil {
		return fmt.Errorf("segidx: writing compacted segment %d: %w", segID, err)
	}
	if err := s.crashPoint("compact:after-segment-write"); err != nil {
		return err
	}

	ent := manifestSegment{ID: segID, XKICRC: xkiCRC, MetaCRC: metaCRC}
	seg, err := openSegment(s.segPath(segID), s.segMetaPath(segID), ent, s.readerOptions())
	if err != nil {
		return fmt.Errorf("segidx: reopening compacted segment %d: %w", segID, err)
	}
	newMan := &manifest{WALFloor: walFloor, NextID: nextID, Segments: []manifestSegment{ent}}
	if err := s.commit(seg, "compact", newMan, func() {
		// In-flight reads may still hold the old readers through a layer
		// snapshot; retire them and let Close release the handles.
		for _, o := range old {
			s.retired = append(s.retired, o.rd)
		}
		s.segs = []*segment{seg}
		s.compacts++
	}); err != nil {
		return err
	}

	// The superseded files are unreferenced now. Open handles keep the
	// unlinked inodes readable for snapshots already taken.
	for _, o := range old {
		os.Remove(s.segPath(o.id))     //xk:ignore errdrop best-effort GC; a survivor is swept at the next open
		os.Remove(s.segMetaPath(o.id)) //xk:ignore errdrop best-effort GC; a survivor is swept at the next open
	}
	return nil
}
