package decomp

import (
	"repro/internal/cn"
	"repro/internal/tss"
)

// Piece is one fragment instance laid onto a CTSSN: the fragment's walk
// mapped to a simple path of the network. Occs lists the network
// occurrence indexes visited, aligned with the fragment's canonical step
// sequence (Reversed true means the matched path ran against it).
type Piece struct {
	Frag     Fragment
	Occs     []int
	Reversed bool
}

// stepCode packs a step into 7 bits (edge id, 1 direction bit), offset by
// 1 so a zero code never encodes a step. The edge id must be at most
// maxKeyedEdge: edge 63 traversed backward would encode to 128 and spill
// into the neighbouring step's bits. Walk keys concatenate step codes
// into a uint64, which bounds keyed walks to 9 steps — beyond every M the
// system uses.
func stepCode(s Step) uint64 {
	return (uint64(s.EdgeID)<<1 | uint64(s.Dir)) + 1
}

const (
	maxKeyedSteps = 9
	maxKeyedEdge  = 62
	// maxCoverEdges bounds the networks Cover evaluates: its BFS state is
	// a uint32 edge mask.
	maxCoverEdges = 30
)

// keyedEdge reports whether stepCode can encode the edge id.
func keyedEdge(id int) bool { return id >= 0 && id <= maxKeyedEdge }

// walkKey packs a walk into a key; it fails for walks longer than
// maxKeyedSteps or over an edge id past maxKeyedEdge.
func walkKey(steps []Step) (uint64, bool) {
	if len(steps) > maxKeyedSteps {
		return 0, false
	}
	var k uint64
	for _, s := range steps {
		if !keyedEdge(s.EdgeID) {
			return 0, false
		}
		k = k<<7 | stepCode(s)
	}
	return k, true
}

// Coverer precomputes the fragment-matching tables of a fixed fragment
// set, so covering many networks against one decomposition avoids
// rebuilding them per call.
type Coverer struct {
	tg       *tss.Graph
	exact    map[uint64]coverHit
	prefixes map[uint64]bool
}

type coverHit struct {
	frag     Fragment
	reversed bool
}

// NewCoverer builds matching tables for the fragment set.
func NewCoverer(tg *tss.Graph, frags []Fragment) *Coverer {
	c := &Coverer{tg: tg, exact: make(map[uint64]coverHit), prefixes: make(map[uint64]bool)}
	for _, f := range frags {
		c.addFragment(f)
	}
	return c
}

// addFragment indexes both orientations of f; a fragment walk key cannot
// hold is never matched.
func (c *Coverer) addFragment(f Fragment) {
	if _, ok := walkKey(f.steps); !ok {
		return
	}
	for orient, steps := range [][]Step{f.steps, f.reversedSteps()} {
		var key uint64
		for _, s := range steps {
			key = key<<7 | stepCode(s)
			c.prefixes[key] = true
		}
		if _, dup := c.exact[key]; !dup {
			c.exact[key] = coverHit{frag: f, reversed: orient == 1}
		}
	}
}

// Cover finds a minimum-piece cover of the network's edges by instances
// of the given fragments (pieces may overlap on edges). It returns the
// pieces and true if the network can be evaluated with at most maxJoins
// joins, i.e. with at most maxJoins+1 pieces. maxJoins < 0 lifts the
// bound. Choosing the relations to evaluate a CTSSN is NP-complete in
// general (§1); networks are small (≤ M edges), so breadth-first search
// over covered-edge bitmasks is exact and fast. A network over an edge id
// walk keys cannot hold (past maxKeyedEdge) is never covered.
func Cover(tg *tss.Graph, t *cn.TSSNetwork, frags []Fragment, maxJoins int) ([]Piece, bool) {
	return NewCoverer(tg, frags).Cover(t, maxJoins)
}

// Cover is the Coverer-based version of the package-level Cover.
func (c *Coverer) Cover(t *cn.TSSNetwork, maxJoins int) ([]Piece, bool) {
	nEdges := len(t.Edges)
	if nEdges == 0 {
		return nil, true
	}
	if nEdges > maxCoverEdges || len(t.Occs) > 60 {
		return nil, false
	}
	for _, e := range t.Edges {
		if !keyedEdge(e.EdgeID) {
			return nil, false
		}
	}
	pieces := c.matchPieces(t)
	if len(pieces) == 0 {
		return nil, false
	}
	edgeMask := make([]uint32, len(pieces))
	occMask := make([]uint64, len(pieces))
	for i, p := range pieces {
		edgeMask[i] = pathEdgeMask(t, p.Occs)
		var om uint64
		for _, o := range p.Occs {
			om |= 1 << uint(o)
		}
		occMask[i] = om
	}
	full := uint32(1)<<uint(nEdges) - 1

	type prevInfo struct {
		prev  uint32
		piece int32
		depth int32
	}
	pred := map[uint32]prevInfo{0: {piece: -1}}
	frontier := []uint32{0}
	occOfMask := func(m uint32) uint64 {
		var om uint64
		for ei := 0; ei < nEdges; ei++ {
			if m&(1<<uint(ei)) != 0 {
				om |= 1 << uint(t.Edges[ei].From)
				om |= 1 << uint(t.Edges[ei].To)
			}
		}
		return om
	}
	for len(frontier) > 0 {
		cur := frontier[0]
		frontier = frontier[1:]
		info := pred[cur]
		if cur == full {
			var out []Piece
			for m := cur; ; {
				pi := pred[m]
				if pi.piece < 0 {
					break
				}
				out = append(out, pieces[pi.piece])
				m = pi.prev
			}
			joins := len(out) - 1
			return out, maxJoins < 0 || joins <= maxJoins
		}
		if maxJoins >= 0 && int(info.depth) > maxJoins+1 {
			continue
		}
		curOcc := occOfMask(cur)
		for i, pm := range edgeMask {
			nc := cur | pm
			if nc == cur {
				continue
			}
			if _, visited := pred[nc]; visited {
				continue
			}
			// Pieces must stay connected to what is already covered so
			// every join has a shared occurrence; the first piece anchors.
			if cur != 0 && curOcc&occMask[i] == 0 {
				continue
			}
			pred[nc] = prevInfo{prev: cur, piece: int32(i), depth: info.depth + 1}
			frontier = append(frontier, nc)
		}
	}
	return nil, false
}

// MinJoins returns the minimum number of joins needed to evaluate the
// network with the given fragments, or -1 if it cannot be evaluated.
func MinJoins(tg *tss.Graph, t *cn.TSSNetwork, frags []Fragment) int {
	ps, ok := Cover(tg, t, frags, -1)
	if !ok {
		return -1
	}
	if len(ps) == 0 {
		return 0
	}
	return len(ps) - 1
}

// matchPieces enumerates every simple path of the network whose step
// sequence matches one of the fragments (in either orientation), pruning
// the path search with a prefix set of all fragment orientations.
func (c *Coverer) matchPieces(t *cn.TSSNetwork) []Piece {
	exact, prefixes := c.exact, c.prefixes
	adj := netAdjacency(t)
	var out []Piece
	type pieceSig struct {
		lo, hi int // normalized endpoints
		key    uint64
	}
	seen := make(map[pieceSig]bool)
	var dfs func(path []int, key uint64, depth int)
	dfs = func(path []int, key uint64, depth int) {
		if key != 0 {
			if h, ok := exact[key]; ok {
				a, b := path[0], path[len(path)-1]
				if a > b {
					a, b = b, a
				}
				sig := pieceSig{lo: a, hi: b, key: canonPairKey(key, path)}
				if !seen[sig] {
					seen[sig] = true
					occs := append([]int(nil), path...)
					if h.reversed {
						occs = reversedInts(occs)
					}
					out = append(out, Piece{Frag: h.frag, Occs: occs, Reversed: h.reversed})
				}
			}
		}
		if depth >= maxKeyedSteps {
			return
		}
		cur := path[len(path)-1]
		for _, hp := range adj[cur] {
			onPath := false
			for _, v := range path {
				if v == hp.to {
					onPath = true
					break
				}
			}
			if onPath {
				continue
			}
			nk := key<<7 | stepCode(hp.step)
			if !prefixes[nk] {
				continue
			}
			dfs(append(path, hp.to), nk, depth+1)
		}
	}
	for v := range t.Occs {
		dfs([]int{v}, 0, 0)
	}
	return out
}

// canonPairKey dedups a path found from both endpoints: the same piece is
// discovered once per orientation with mirrored keys; normalize by the
// smaller key of the two orientations.
func canonPairKey(key uint64, path []int) uint64 {
	var rev uint64
	k := key
	for k != 0 {
		code := k & 0x7f
		k >>= 7
		// Flip the direction bit of the 7-bit code (offset by 1).
		c := code - 1
		c ^= 1
		rev = rev<<7 | (c + 1)
	}
	if rev < key {
		return rev
	}
	return key
}

func reversedInts(xs []int) []int {
	out := make([]int, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

type hop struct {
	to   int
	step Step
}

func netAdjacency(t *cn.TSSNetwork) [][]hop {
	adj := make([][]hop, len(t.Occs))
	for _, e := range t.Edges {
		adj[e.From] = append(adj[e.From], hop{to: e.To, step: Step{EdgeID: e.EdgeID, Dir: Fwd}})
		adj[e.To] = append(adj[e.To], hop{to: e.From, step: Step{EdgeID: e.EdgeID, Dir: Bwd}})
	}
	return adj
}

// pathEdgeMask returns the bitmask of network edge indexes a path covers.
func pathEdgeMask(t *cn.TSSNetwork, occs []int) uint32 {
	var m uint32
	for i := 0; i+1 < len(occs); i++ {
		for ei, e := range t.Edges {
			if (e.From == occs[i] && e.To == occs[i+1]) || (e.From == occs[i+1] && e.To == occs[i]) {
				m |= 1 << uint(ei)
			}
		}
	}
	return m
}
