package diskindex

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/lru"
)

// pagePool is a fixed-capacity buffer pool over the posting region of
// the index file: an lru.Cache of pages bounded by page count. Pages
// are immutable once read, so eviction merely drops the pool's
// reference — slices handed to a decoder stay valid. Shards are picked
// by page number, which spreads the sequential pages of one long
// posting list across shards.
type pagePool struct {
	src      io.ReaderAt
	base     int64 // file offset of the pooled region
	length   int64 // region length in bytes
	pageSize int64
	pages    *lru.Cache[int64, []byte]
	retry    fault.RetryPolicy

	hits      atomic.Int64
	misses    atomic.Int64
	bytesRead atomic.Int64
	retries   atomic.Int64 // reads that succeeded only after retrying
}

// cacheShards is the shard count of the reader's two caches; a pool of
// fewer pages than that gets a single shard (see lru.Config.Shards).
const cacheShards = 8

func newPagePool(src io.ReaderAt, base, length int64, pageSize int, cacheBytes int64, retry fault.RetryPolicy) *pagePool {
	return &pagePool{
		src:      src,
		base:     base,
		length:   length,
		pageSize: int64(pageSize),
		retry:    retry,
		pages: lru.New(lru.Config[int64, []byte]{
			Shards:     cacheShards,
			MaxEntries: int(max(cacheBytes/int64(pageSize), 1)),
			Hash:       func(no int64) uint64 { return uint64(no) },
		}),
	}
}

// page returns the pooled page no, reading it on a miss. The returned
// slice is shared and read-only.
func (p *pagePool) page(no int64) ([]byte, error) {
	if data, ok := p.pages.Get(no); ok {
		p.hits.Add(1)
		return data, nil
	}
	p.misses.Add(1)

	// Read outside the pool's locks; concurrent misses on the same page
	// do duplicate reads, which is benign (the page is immutable).
	size := p.pageSize
	if rem := p.length - no*p.pageSize; rem < size {
		size = rem
	}
	if size <= 0 {
		return nil, fmt.Errorf("diskindex: page %d beyond posting region", no)
	}
	buf := make([]byte, size)
	// Bounded retry with backoff: a transient device hiccup should not
	// poison the reader when one more attempt would have succeeded.
	attempts := 0
	err := p.retry.Do(func() error {
		attempts++
		_, rerr := p.src.ReadAt(buf, p.base+no*p.pageSize)
		return rerr
	})
	if err != nil {
		return nil, fmt.Errorf("%w: reading page %d (%d attempts): %w", ErrIO, no, attempts, err)
	}
	if attempts > 1 {
		p.retries.Add(1)
	}
	p.bytesRead.Add(size)

	buf, _ = p.pages.GetOrPut(no, buf) // raced with another reader: keep theirs
	return buf, nil
}

// readRange returns bytes [off, off+n) of the pooled region. A range
// within one page aliases the page buffer (no copy); spanning ranges are
// gathered into a fresh slice.
func (p *pagePool) readRange(off, n int64) ([]byte, error) {
	if n == 0 {
		return nil, nil
	}
	if off < 0 || n < 0 || off+n > p.length {
		return nil, fmt.Errorf("diskindex: posting range [%d,%d) outside region of %d bytes", off, off+n, p.length)
	}
	first, last := off/p.pageSize, (off+n-1)/p.pageSize
	if first == last {
		pg, err := p.page(first)
		if err != nil {
			return nil, err
		}
		return pg[off-first*p.pageSize:][:n], nil
	}
	out := make([]byte, 0, n)
	for no := first; no <= last; no++ {
		pg, err := p.page(no)
		if err != nil {
			return nil, err
		}
		lo := int64(0)
		if no == first {
			lo = off - first*p.pageSize
		}
		hi := int64(len(pg))
		if no == last {
			hi = off + n - last*p.pageSize
		}
		out = append(out, pg[lo:hi]...)
	}
	return out, nil
}
