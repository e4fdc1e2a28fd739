package xmlgraph

// UndirectedNeighbor is one hop of an undirected traversal: the neighbor
// node, the underlying directed edge, and whether the edge was followed
// forward (From -> To) or backward.
type UndirectedNeighbor struct {
	Node    NodeID
	Edge    Edge
	Forward bool
}

// UndirectedNeighbors returns every node one undirected hop away from id.
// Keyword proximity search follows edges in either direction (paper §1).
func (g *Graph) UndirectedNeighbors(id NodeID) []UndirectedNeighbor {
	var ns []UndirectedNeighbor
	for _, e := range g.out[id] {
		ns = append(ns, UndirectedNeighbor{Node: e.To, Edge: e, Forward: true})
	}
	for _, e := range g.in[id] {
		ns = append(ns, UndirectedNeighbor{Node: e.From, Edge: e, Forward: false})
	}
	return ns
}

// UndirectedDistance returns the length (in edges) of the shortest
// undirected path between a and b, or -1 if they are disconnected.
func (g *Graph) UndirectedDistance(a, b NodeID) int {
	if a == b {
		return 0
	}
	dist := map[NodeID]int{a: 0}
	queue := []NodeID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.UndirectedNeighbors(cur) {
			if _, seen := dist[nb.Node]; seen {
				continue
			}
			dist[nb.Node] = dist[cur] + 1
			if nb.Node == b {
				return dist[nb.Node]
			}
			queue = append(queue, nb.Node)
		}
	}
	return -1
}

// UndirectedPath returns one shortest undirected path from a to b as a
// node sequence (inclusive of both endpoints), or nil if disconnected.
func (g *Graph) UndirectedPath(a, b NodeID) []NodeID {
	if a == b {
		return []NodeID{a}
	}
	prev := map[NodeID]NodeID{a: a}
	queue := []NodeID{a}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.UndirectedNeighbors(cur) {
			if _, seen := prev[nb.Node]; seen {
				continue
			}
			prev[nb.Node] = cur
			if nb.Node == b {
				var path []NodeID
				for n := b; ; n = prev[n] {
					path = append(path, n)
					if n == a {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, nb.Node)
		}
	}
	return nil
}

// Subgraph is a subset of a graph's nodes and edges, used to represent
// node networks (paper §3.1). Every edge endpoint must be in Nodes.
type Subgraph struct {
	Nodes []NodeID
	Edges []Edge
}

// IsUncycled reports whether the subgraph's equivalent undirected graph
// has no cycles (paper §3: an uncycled directed graph). Parallel directed
// edges between the same node pair collapse to one undirected edge.
func (s Subgraph) IsUncycled() bool {
	// Union-find over nodes; an undirected cycle exists iff some edge
	// connects two nodes already in the same component.
	parent := make(map[NodeID]NodeID, len(s.Nodes))
	var find func(NodeID) NodeID
	find = func(x NodeID) NodeID {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	type pair struct{ a, b NodeID }
	seen := make(map[pair]bool, len(s.Edges))
	for _, e := range s.Edges {
		a, b := e.From, e.To
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			continue // parallel/reverse edges collapse in the undirected view
		}
		seen[pair{a, b}] = true
		ra, rb := find(e.From), find(e.To)
		if ra == rb {
			return false
		}
		parent[ra] = rb
	}
	return true
}

// IsConnected reports whether the subgraph is connected in the undirected
// sense. The empty subgraph is connected.
func (s Subgraph) IsConnected() bool {
	if len(s.Nodes) <= 1 {
		return true
	}
	adj := make(map[NodeID][]NodeID)
	for _, e := range s.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := map[NodeID]bool{s.Nodes[0]: true}
	queue := []NodeID{s.Nodes[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(s.Nodes)
}
