package diskindex

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/atomicio"
	"repro/internal/fault"
	"repro/internal/kwindex"
	"repro/internal/lru"
	"repro/internal/xmlgraph"
)

// Options configure a Reader.
type Options struct {
	// CacheBytes is the buffer-pool budget over posting blocks
	// (default DefaultCacheBytes).
	CacheBytes int64
	// PageSize is the buffer-pool page size (default: the writer's hint
	// in the file header, else DefaultPageSize).
	PageSize int
	// ListCacheBytes budgets the decoded posting-list cache layered above
	// the page pool; 0 defaults to CacheBytes, negative disables it.
	// Decoded lists run roughly ten times their encoded size, so warm
	// lookups need this to cover the hot terms.
	ListCacheBytes int64
	// Retry bounds how page reads retry transient ReadAt failures. The
	// zero value means fault.DefaultRetry; set Attempts to 1 to disable
	// retrying.
	Retry fault.RetryPolicy
	// WrapReaderAt, when set, wraps the file handle before any byte is
	// read — the fault-injection seam the chaos suite uses to interpose
	// errors, latency and bit flips between the reader and the disk.
	WrapReaderAt func(io.ReaderAt) io.ReaderAt
}

// Stats is a snapshot of a Reader's cache counters.
type Stats struct {
	// PageHits and PageMisses count buffer-pool probes; a miss is one
	// page-sized ReadAt.
	PageHits, PageMisses int64
	// ListHits and ListMisses count decoded posting-list cache probes.
	ListHits, ListMisses int64
	// BytesRead is the total bytes fetched from disk.
	BytesRead int64
	// RetriedReads counts page reads that succeeded only after at least
	// one retry — transient faults the retry policy absorbed.
	RetriedReads int64
	// PagesResident is the current buffer-pool occupancy in pages.
	PagesResident int
}

// dictEntry locates one term's posting block and carries its checksum.
type dictEntry struct {
	count int
	off   int64
	len   int64
	crc   uint32 // CRC32 of the encoded block, verified on every read
}

// Reader serves master-index lookups from an .xki file. It implements
// kwindex.Source (= core.PostingSource) and is safe for concurrent use:
// the underlying ReadAt, the sharded buffer pool and the list cache all
// tolerate concurrent readers.
type Reader struct {
	f    *os.File
	path string
	hdr  header

	schema  []string // schema-node table, indexed by id
	terms   []string // sorted tokens
	entries []dictEntry

	pool *pagePool
	// lists caches decoded posting lists above the page pool, bounded by
	// bytes: the pool bounds how much raw index stays in memory, this
	// makes a warm term lookup a single map probe — the in-memory
	// index's cost profile — instead of a varint decode of the whole
	// list on every query. nil when disabled.
	lists                *lru.Cache[string, []kwindex.Posting]
	listHits, listMisses atomic.Int64

	mu  sync.Mutex
	err error // first background I/O or decode failure
}

// Open maps the index file at path. The dictionary and schema table are
// loaded and checksummed eagerly; posting blocks are paged in on demand
// through the buffer pool.
func Open(path string, opts Options) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return openFile(f, path, opts)
}

// openFile serves a Reader from f, named path in errors, and closes f
// if it cannot.
func openFile(f *os.File, path string, opts Options) (*Reader, error) {
	if opts.CacheBytes <= 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	if opts.ListCacheBytes == 0 {
		opts.ListCacheBytes = opts.CacheBytes
	}
	r, err := open(f, path, opts)
	if err != nil {
		f.Close() //xk:ignore errdrop best-effort close on the error path; the open error is what matters
		return nil, err
	}
	return r, nil
}

func open(f *os.File, path string, opts Options) (*Reader, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var src io.ReaderAt = f
	if opts.WrapReaderAt != nil {
		src = opts.WrapReaderAt(src)
	}
	size := st.Size()
	hb := make([]byte, headerSize)
	if _, err := io.ReadFull(io.NewSectionReader(src, 0, size), hb); err != nil {
		return nil, fmt.Errorf("diskindex: %s: reading header: %w", path, err)
	}
	r := &Reader{f: f, path: path}
	if err := r.hdr.unmarshal(hb); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	h := &r.hdr

	// Section layout must tile the file exactly; anything else means a
	// truncated or doctored file.
	if h.postOff != headerSize ||
		h.schemaOff != h.postOff+h.postLen ||
		h.dictOff != h.schemaOff+h.schemaLen ||
		h.dictOff+h.dictLen != uint64(size) {
		return nil, fmt.Errorf("diskindex: %s: section layout inconsistent with file size %d (truncated?)", path, size)
	}

	meta := make([]byte, h.schemaLen+h.dictLen)
	if _, err := src.ReadAt(meta, int64(h.schemaOff)); err != nil {
		return nil, fmt.Errorf("diskindex: %s: reading metadata: %w", path, err)
	}
	if got := crc32.ChecksumIEEE(meta); got != h.metaCRC {
		return nil, fmt.Errorf("diskindex: %s: metadata checksum mismatch (file corrupt)", path)
	}
	if err := r.parseSchema(meta[:h.schemaLen]); err != nil {
		return nil, fmt.Errorf("diskindex: %s: %w", path, err)
	}
	if err := r.parseDict(meta[h.schemaLen:]); err != nil {
		return nil, fmt.Errorf("diskindex: %s: %w", path, err)
	}

	pageSize := opts.PageSize
	if pageSize == 0 {
		pageSize = int(h.pageSize)
	}
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	r.pool = newPagePool(src, int64(h.postOff), int64(h.postLen), pageSize, opts.CacheBytes, opts.Retry)
	if opts.ListCacheBytes > 0 {
		r.lists = lru.New(lru.Config[string, []kwindex.Posting]{
			Shards:   cacheShards,
			MaxBytes: opts.ListCacheBytes,
			Hash:     lru.HashString,
			Size:     listEntrySize,
		})
	}
	return r, nil
}

func (r *Reader) parseSchema(b []byte) error {
	n, i, err := uvarint(b, 0)
	if err != nil {
		return err
	}
	if n > uint64(len(b)) { // each entry takes ≥ 1 byte
		return fmt.Errorf("schema table claims %d entries in %d bytes", n, len(b))
	}
	r.schema = make([]string, 0, n)
	for k := uint64(0); k < n; k++ {
		var l uint64
		if l, i, err = uvarint(b, i); err != nil {
			return err
		}
		if uint64(len(b)-i) < l {
			return fmt.Errorf("schema name %d overruns table", k)
		}
		r.schema = append(r.schema, string(b[i:i+int(l)]))
		i += int(l)
	}
	if i != len(b) {
		return fmt.Errorf("%d trailing bytes after schema table", len(b)-i)
	}
	return nil
}

func (r *Reader) parseDict(b []byte) error {
	n := r.hdr.numTerms
	if n > uint64(len(b)) { // each entry takes ≥ 4 bytes
		return fmt.Errorf("dictionary claims %d terms in %d bytes", n, len(b))
	}
	r.terms = make([]string, 0, n)
	r.entries = make([]dictEntry, 0, n)
	var postings, i int
	for k := uint64(0); k < n; k++ {
		l, j, err := uvarint(b, i)
		if err != nil {
			return err
		}
		if uint64(len(b)-j) < l {
			return fmt.Errorf("term %d overruns dictionary", k)
		}
		term := string(b[j : j+int(l)])
		j += int(l)
		var count, off, blen, crc uint64
		if count, j, err = uvarint(b, j); err != nil {
			return err
		}
		if off, j, err = uvarint(b, j); err != nil {
			return err
		}
		if blen, j, err = uvarint(b, j); err != nil {
			return err
		}
		if crc, j, err = uvarint(b, j); err != nil {
			return err
		}
		if crc > 0xFFFFFFFF {
			return fmt.Errorf("term %q block CRC %#x exceeds 32 bits", term, crc)
		}
		i = j
		if len(r.terms) > 0 && r.terms[len(r.terms)-1] >= term {
			return fmt.Errorf("dictionary terms not strictly sorted at %q", term)
		}
		if off+blen < off || off+blen > r.hdr.postLen {
			return fmt.Errorf("term %q posting block [%d,%d) outside region of %d bytes", term, off, off+blen, r.hdr.postLen)
		}
		// Each posting is at least three 1-byte varints.
		if count*3 > blen {
			return fmt.Errorf("term %q claims %d postings in %d bytes", term, count, blen)
		}
		r.terms = append(r.terms, term)
		r.entries = append(r.entries, dictEntry{count: int(count), off: int64(off), len: int64(blen), crc: uint32(crc)})
		postings += int(count)
	}
	if i != len(b) {
		return fmt.Errorf("%d trailing bytes after dictionary", len(b)-i)
	}
	if uint64(postings) != r.hdr.numPostings {
		return fmt.Errorf("dictionary holds %d postings, header says %d", postings, r.hdr.numPostings)
	}
	return nil
}

// Close releases the underlying file. Lookups that subsequently miss
// the caches fail softly (empty results, Err set).
func (r *Reader) Close() error {
	return r.f.Close()
}

// Err returns the first background failure a lookup hit (I/O error,
// malformed posting block), if any. Lookup methods cannot return errors
// — they implement the in-memory index's interface — so failures surface
// here and as empty results.
func (r *Reader) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Reader) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// postingsOf returns the decoded posting list of one exact token.
func (r *Reader) postingsOf(token string) []kwindex.Posting {
	if r.lists != nil {
		if ps, ok := r.lists.Get(token); ok {
			r.listHits.Add(1)
			return ps
		}
		r.listMisses.Add(1)
	}
	i := sort.SearchStrings(r.terms, token)
	if i == len(r.terms) || r.terms[i] != token {
		return nil
	}
	e := r.entries[i]
	raw, err := r.pool.readRange(e.off, e.len)
	if err != nil {
		r.fail(err)
		return nil
	}
	// Verify before decode: the posting region is not covered by Open's
	// metadata checksum, so this is the only thing standing between a bit
	// flip on disk and a silently wrong answer.
	if got := crc32.ChecksumIEEE(raw); got != e.crc {
		r.fail(fmt.Errorf("%w: %s: term %q posting block checksum %#x, want %#x", ErrCorrupt, r.path, token, got, e.crc))
		return nil
	}
	ps, err := decodePostings(raw, e.count, r.schema)
	if err != nil {
		r.fail(fmt.Errorf("%w: %s: term %q: %w", ErrCorrupt, r.path, token, err))
		return nil
	}
	if r.lists != nil {
		r.lists.Put(token, ps)
	}
	return ps
}

// listEntrySize approximates a decoded list's resident bytes: the
// map/list bookkeeping plus one Posting struct per posting (the
// schema-node strings are shared with the reader's table and not
// charged here).
func listEntrySize(term string, ps []kwindex.Posting) int64 {
	return 96 + int64(len(term)) + int64(len(ps))*40
}

func decodePostings(b []byte, count int, schema []string) ([]kwindex.Posting, error) {
	ps := make([]kwindex.Posting, 0, count)
	var to, node int64
	i := 0
	for k := 0; k < count; k++ {
		dTO, i2, err := uvarint(b, i)
		if err != nil {
			return nil, err
		}
		dNode, i3, err := varint(b, i2)
		if err != nil {
			return nil, err
		}
		sid, i4, err := uvarint(b, i3)
		if err != nil {
			return nil, err
		}
		i = i4
		to += int64(dTO)
		node += dNode
		if sid >= uint64(len(schema)) {
			return nil, fmt.Errorf("schema id %d out of range", sid)
		}
		ps = append(ps, kwindex.Posting{TO: to, Node: xmlgraph.NodeID(node), SchemaNode: schema[sid]})
	}
	if i != len(b) {
		return nil, fmt.Errorf("%d trailing bytes in posting block", len(b)-i)
	}
	return ps, nil
}

// ContainingList returns the containing list L(k) of keyword k — the
// same tokenization and multi-token intersection semantics as the
// in-memory index. The returned slice must not be modified.
func (r *Reader) ContainingList(k string) []kwindex.Posting {
	toks := kwindex.Tokenize(k)
	switch len(toks) {
	case 0:
		return nil
	case 1:
		return r.postingsOf(toks[0])
	}
	lists := make([][]kwindex.Posting, len(toks))
	for i, tok := range toks {
		lists[i] = r.postingsOf(tok)
	}
	return kwindex.Intersect(lists)
}

// SchemaNodes returns the distinct schema nodes whose extensions contain
// keyword k, sorted.
func (r *Reader) SchemaNodes(k string) []string {
	return kwindex.DistinctSchemaNodes(r.ContainingList(k))
}

// TOSet returns the target objects containing keyword k, restricted to
// postings on the given schema node ("" for any).
func (r *Reader) TOSet(k, schemaNode string) map[int64]bool {
	return kwindex.TOSetFromList(r.ContainingList(k), schemaNode)
}

// NumPostings returns the total number of postings in the index.
func (r *Reader) NumPostings() int { return int(r.hdr.numPostings) }

// NumKeywords returns the number of distinct indexed tokens.
func (r *Reader) NumKeywords() int { return int(r.hdr.numTerms) }

// Terms returns the sorted indexed tokens. The slice is shared and must
// not be modified.
func (r *Reader) Terms() []string { return r.terms }

// Path returns the file the reader serves from.
func (r *Reader) Path() string { return r.path }

// MetaCRC returns the file's metadata checksum — the generation
// fingerprint CreateCRC reported when the file was written. persist
// compares it against the snapshot's recorded value to detect a sidecar
// that does not belong to the snapshot.
func (r *Reader) MetaCRC() uint32 { return r.hdr.metaCRC }

// Quarantine closes the reader and moves its file aside to
// path + atomicio.CorruptSuffix, freeing the path for a rebuilt index
// while preserving the corrupt bytes for forensics. It returns the
// quarantined name.
func (r *Reader) Quarantine() (string, error) {
	_ = r.f.Close() //xk:ignore errdrop the file is being quarantined; a close error cannot make it worse
	return atomicio.Quarantine(r.path)
}

// Stats snapshots the cache counters.
func (r *Reader) Stats() Stats {
	return Stats{
		PageHits:      r.pool.hits.Load(),
		PageMisses:    r.pool.misses.Load(),
		BytesRead:     r.pool.bytesRead.Load(),
		RetriedReads:  r.pool.retries.Load(),
		PagesResident: r.pool.pages.Len(),
		ListHits:      r.listHits.Load(),
		ListMisses:    r.listMisses.Load(),
	}
}

var _ kwindex.Source = (*Reader)(nil)
