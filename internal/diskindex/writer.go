package diskindex

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"sort"

	"repro/internal/atomicio"
	"repro/internal/kwindex"
)

// Create serializes the master index to path crash-safely: the bytes go
// to a same-directory temp file that is fsynced and renamed over path
// only once complete, so a crash mid-save leaves any previous index
// generation untouched and never a torn .xki at path.
func Create(path string, ix *kwindex.Index) error {
	_, err := CreateCRC(path, ix)
	return err
}

// CreateCRC is Create returning the written file's metadata CRC — the
// fingerprint persist records in the snapshot so a stale or swapped
// sidecar is detected at load time.
func CreateCRC(path string, ix *kwindex.Index) (crc uint32, err error) {
	err = atomicio.WriteFile(path, func(f *os.File) error {
		h, werr := write(f, ix)
		if werr != nil {
			return werr
		}
		crc = h.metaCRC
		return nil
	})
	if err != nil {
		return 0, err
	}
	return crc, nil
}

// CreateTemp serializes the master index to a temporary .xki file and
// opens a paged Reader over it. The file is unlinked as soon as it is
// created, so the Reader's handle is all that keeps it and nothing is
// left on disk when the process ends.
func CreateTemp(ix *kwindex.Index, opts Options) (*Reader, error) {
	f, err := os.CreateTemp("", "index-*.xki")
	if err != nil {
		return nil, err
	}
	//xk:ignore errdrop a failed unlink leaves a temp file behind; the open handle serves either way
	os.Remove(f.Name())
	if _, err := write(f, ix); err != nil {
		f.Close() //xk:ignore errdrop best-effort close on the error path; the write error is what matters
		return nil, err
	}
	return openFile(f, f.Name(), opts)
}

func write(f *os.File, ix *kwindex.Index) (header, error) {
	terms := ix.Terms()

	// Schema-node table: distinct names, sorted, referenced by id.
	schemaID := make(map[string]uint64)
	var schemaNames []string
	for _, t := range terms {
		for _, p := range ix.Postings(t) {
			if _, ok := schemaID[p.SchemaNode]; !ok {
				schemaID[p.SchemaNode] = 0
				schemaNames = append(schemaNames, p.SchemaNode)
			}
		}
	}
	sort.Strings(schemaNames)
	for i, name := range schemaNames {
		schemaID[name] = uint64(i)
	}

	h := header{
		pageSize: DefaultPageSize,
		numTerms: uint64(len(terms)),
		postOff:  headerSize,
	}

	// Posting blocks, streamed behind a buffered writer. Each block's
	// CRC32 goes into its dictionary entry, so the read path can verify
	// every lazily paged block it decodes.
	if _, err := f.Seek(headerSize, 0); err != nil {
		return h, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var dict bytes.Buffer
	var scratch []byte
	var off uint64
	for _, t := range terms {
		ps := ix.Postings(t)
		scratch = scratch[:0]
		var prevTO, prevNode int64
		for _, p := range ps {
			scratch = binary.AppendUvarint(scratch, uint64(p.TO-prevTO))
			scratch = binary.AppendVarint(scratch, int64(p.Node)-prevNode)
			scratch = binary.AppendUvarint(scratch, schemaID[p.SchemaNode])
			prevTO, prevNode = p.TO, int64(p.Node)
		}
		if _, err := bw.Write(scratch); err != nil {
			return h, err
		}
		dict.WriteString(encodeUvarint(uint64(len(t))))
		dict.WriteString(t)
		dict.WriteString(encodeUvarint(uint64(len(ps))))
		dict.WriteString(encodeUvarint(off))
		dict.WriteString(encodeUvarint(uint64(len(scratch))))
		dict.WriteString(encodeUvarint(uint64(crc32.ChecksumIEEE(scratch))))
		off += uint64(len(scratch))
		h.numPostings += uint64(len(ps))
	}
	h.postLen = off

	var schemaBuf bytes.Buffer
	schemaBuf.WriteString(encodeUvarint(uint64(len(schemaNames))))
	for _, name := range schemaNames {
		schemaBuf.WriteString(encodeUvarint(uint64(len(name))))
		schemaBuf.WriteString(name)
	}
	h.schemaOff = h.postOff + h.postLen
	h.schemaLen = uint64(schemaBuf.Len())
	h.dictOff = h.schemaOff + h.schemaLen
	h.dictLen = uint64(dict.Len())

	crc := crc32.NewIEEE()
	crc.Write(schemaBuf.Bytes())
	crc.Write(dict.Bytes())
	h.metaCRC = crc.Sum32()

	if _, err := bw.Write(schemaBuf.Bytes()); err != nil {
		return h, err
	}
	if _, err := bw.Write(dict.Bytes()); err != nil {
		return h, err
	}
	if err := bw.Flush(); err != nil {
		return h, err
	}
	if _, err := f.WriteAt(h.marshal(), 0); err != nil {
		return h, err
	}
	return h, nil
}

func encodeUvarint(v uint64) string {
	var b [binary.MaxVarintLen64]byte
	return string(b[:binary.PutUvarint(b[:], v)])
}
