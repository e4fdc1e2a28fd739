package qserve

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/kwindex"
	"repro/internal/rank"
)

// cacheKey returns the canonical identity of a query — the
// result-shaping parameters and the normalized keyword bag — and the
// bag itself, sorted, which is what the engine is asked. Keywords are normalized exactly as the master
// index sees them — kwindex.Tokenize lower-cases and splits on
// non-alphanumerics, and the index re-tokenizes phrases on lookup — and
// then sorted, because CN generation is symmetric in the keywords. So
// "Codd relational", "relational codd" and "Relational, CODD" map to
// one entry. Duplicated keywords are kept (a bag, not a set): the CN
// generator treats "codd codd" as two occurrences.
//
// The scorer is part of the identity — the same keywords ranked by
// different scorers are different answers. It is keyed raw, so "" (the
// default) and an explicit "edgecount" occupy two entries; that wastes
// at most one duplicate slot and keeps the key transparent. Validating
// the name here also guarantees no '|' can enter the key and break
// keyMentionsToken's field split.
func cacheKey(keywords []string, k int, scorer string) (string, []string, error) {
	if len(keywords) == 0 {
		return "", nil, fmt.Errorf("qserve: empty keyword query")
	}
	if !rank.Valid(scorer) {
		return "", nil, fmt.Errorf("qserve: unknown scorer %q (have %v)", scorer, rank.Names())
	}
	norm := make([]string, len(keywords))
	for i, kw := range keywords {
		toks := kwindex.Tokenize(kw)
		if len(toks) == 0 {
			return "", nil, fmt.Errorf("qserve: keyword %q has no tokens", kw)
		}
		norm[i] = strings.Join(toks, " ")
	}
	sort.Strings(norm)
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d|sc=%s|", k, scorer)
	for i, n := range norm {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(n)
	}
	return b.String(), norm, nil
}

// keyMentionsToken reports whether a cache key's normalized keyword bag
// contains any token of set — the match predicate of scoped
// invalidation. The bag is the third '|'-separated field (k and the
// validated scorer name cannot contain '|'); keywords are
// '\x00'-separated and each is its space-joined token list.
func keyMentionsToken(key string, set map[string]bool) bool {
	parts := strings.SplitN(key, "|", 3)
	if len(parts) < 3 {
		return false
	}
	for _, kw := range strings.Split(parts[2], "\x00") {
		for _, tok := range strings.Split(kw, " ") {
			if set[tok] {
				return true
			}
		}
	}
	return false
}
