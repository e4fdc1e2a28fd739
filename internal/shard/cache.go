package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"sort"
	"strings"
)

// execMeta is what a cached /shard/execute response carries besides the
// cover's results: the derived-network checksum and plan count the
// coordinator cross-checks.
type execMeta struct {
	NetsCRC uint32
	Plans   int
}

// crc64Table is the posting-payload hash's polynomial table.
var crc64Table = crc64.MakeTable(crc64.ECMA)

// execCacheKey is the deterministic identity of an execute request. The
// response is a pure function of the request — it carries the full
// merged posting lists and the cover set, and the structural data it is
// joined against is replicated and immutable while serving — so equal
// keys really do mean equal answers; the cache TTL bounds staleness
// across index swaps, and the failover degrade hook invalidates
// eagerly. Keywords keep their request order (they feed plan derivation
// positionally); Parts are sorted (a cover is a set); Lists — the bulk
// of the request — are folded to a CRC-64 over the wire lists in
// keyword order, every string and list length-prefixed so neighbouring
// fields cannot trade bytes.
func execCacheKey(req *ExecRequest) string {
	kws := make([]string, 0, len(req.Lists))
	for kw := range req.Lists {
		kws = append(kws, kw)
	}
	sort.Strings(kws)
	// The payload streams through a fixed scratch block, so hashing
	// allocates nothing however long the lists are.
	var crc uint64
	var scratch [4096]byte
	buf := scratch[:0]
	word := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			crc = crc64.Update(crc, crc64Table, buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	str := func(s string) {
		word(uint64(len(s)))
		crc = crc64.Update(crc, crc64Table, buf)
		buf = append(buf[:0], s...) // may outgrow scratch for one long name
	}
	for _, kw := range kws {
		wl := req.Lists[kw]
		str(kw)
		word(uint64(len(wl.Schemas)))
		for _, sn := range wl.Schemas {
			str(sn)
		}
		word(uint64(len(wl.Posts)))
		for _, t := range wl.Posts {
			word(uint64(t[0]))
			word(uint64(t[1]))
			word(uint64(t[2]))
		}
	}
	crc = crc64.Update(crc, crc64Table, buf)
	parts := append([]int(nil), req.Parts...)
	sort.Ints(parts)
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d|s=%d|n=%d|p=%v|gp=%d|gk=%d|l=%016x|",
		req.K, req.Strategy, req.N, parts, req.GlobalPostings, req.GlobalKeywords, crc)
	for i, kw := range req.Keywords {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(kw)
	}
	return b.String()
}

// InvalidateCache drops every cached execute response. The serving
// wiring calls it when the partition source degrades or is swapped: the
// cached answers may reflect the index state before the transition.
func (s *Server) InvalidateCache() {
	if s.Cache != nil {
		s.Cache.Clear()
	}
}
