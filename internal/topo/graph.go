package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Graph is an arbitrary connected undirected graph with canonical
// shortest-path routing: the route from src to dst follows, at every
// node, the lowest-id neighbor that lies on a shortest path to dst.
// Routing is therefore deterministic and a pure function of
// (src, dst) — the property the link-contention-avoiding scheduler
// (and the RouteTable precompute) requires — and it is consistent
// under truncation: the suffix of a canonical route is the canonical
// route of its own endpoints, exactly like e-cube and XY routing.
//
// Next-hop and distance matrices are precomputed by one BFS per node
// at construction (O(n*(n+m)) time, O(n^2) int32 memory), so RouteIDs
// is a plain next-hop walk. Graphs are immutable after construction
// and safe for concurrent readers.
type Graph struct {
	name string
	n    int
	// CSR adjacency, neighbor lists sorted ascending. The directed
	// channel u->adjList[k] (k in [adjOff[u], adjOff[u+1])) has dense
	// channel index k, so NumChannels == len(adjList).
	adjOff  []int32
	adjList []int32
	next    []int32 // next[u*n+d]: first hop of the canonical route u->d
	dist    []int32 // dist[u*n+d]: hops from u to d
	diam    int
}

// Graph construction limits. The routing tables are O(n^2) int32s and
// construction is O(n*(n+m)); these caps keep a graph build bounded at
// a few hundred MB and seconds, far above the service node cap.
const (
	maxGraphNodes = 4096
	maxGraphEdges = 1 << 20
)

// NewGraph returns the graph over n nodes with the given undirected
// edges. Edges are canonicalized (lo-hi, sorted); duplicates,
// self-loops, out-of-range endpoints, and disconnected graphs are
// errors — routing needs every (src, dst) pair reachable.
func NewGraph(n int, edges [][2]int) (*Graph, error) {
	return newGraph("", n, edges)
}

// MustNewGraph is NewGraph for known-good inputs; it panics on error.
func MustNewGraph(n int, edges [][2]int) *Graph {
	g, err := NewGraph(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// NewRing returns the n-node ring (node i adjacent to i±1 mod n) as a
// Graph, so it shares the canonical BFS routing backend: each route
// takes the shorter way around, and the tie at the antipode of an
// even ring resolves to the lower-id neighbor.
func NewRing(n int) (*Graph, error) {
	if n < 3 {
		// A 2-ring duplicates its single edge, like a 2-torus.
		return nil, fmt.Errorf("topo: ring needs at least 3 nodes, got %d", n)
	}
	if n > maxGraphNodes {
		return nil, fmt.Errorf("topo: ring of %d nodes exceeds the %d-node graph limit", n, maxGraphNodes)
	}
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return newGraph(fmt.Sprintf("ring-%d", n), n, edges)
}

// MustNewRing is NewRing for known-good sizes; it panics on error.
func MustNewRing(n int) *Graph {
	g, err := NewRing(n)
	if err != nil {
		panic(err)
	}
	return g
}

// sortEdges returns a copy of the edges in canonical order — each as
// (lo, hi), the list sorted lexicographically — without validating
// them. This single definition of the canonical order backs both edge
// validation (canonicalEdges) and the spec string form (Spec.String),
// which content hashes and graph names depend on agreeing.
func sortEdges(edges [][2]int) [][2]int {
	canon := make([][2]int, len(edges))
	for i, e := range edges {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		canon[i] = [2]int{a, b}
	}
	sort.Slice(canon, func(i, j int) bool {
		if canon[i][0] != canon[j][0] {
			return canon[i][0] < canon[j][0]
		}
		return canon[i][1] < canon[j][1]
	})
	return canon
}

// canonicalEdges returns the edges in canonical form via sortEdges,
// without mutating the input, and validates ranges, self-loops, and
// duplicates.
func canonicalEdges(n int, edges [][2]int) ([][2]int, error) {
	for _, e := range edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return nil, fmt.Errorf("topo: edge %d-%d out of range [0,%d)", e[0], e[1], n)
		}
		if e[0] == e[1] {
			return nil, fmt.Errorf("topo: self-loop at node %d", e[0])
		}
	}
	canon := sortEdges(edges)
	for i := 1; i < len(canon); i++ {
		if canon[i] == canon[i-1] {
			return nil, fmt.Errorf("topo: duplicate edge %d-%d", canon[i][0], canon[i][1])
		}
	}
	return canon, nil
}

func newGraph(name string, n int, edges [][2]int) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: graph needs at least 2 nodes, got %d", n)
	}
	if n > maxGraphNodes {
		return nil, fmt.Errorf("topo: graph of %d nodes exceeds the %d-node limit", n, maxGraphNodes)
	}
	if len(edges) > maxGraphEdges {
		return nil, fmt.Errorf("topo: %d edges exceeds the %d-edge limit", len(edges), maxGraphEdges)
	}
	canon, err := canonicalEdges(n, edges)
	if err != nil {
		return nil, err
	}

	// CSR adjacency with sorted neighbor lists: count, prefix-sum,
	// fill, sort each list.
	deg := make([]int32, n)
	for _, e := range canon {
		deg[e[0]]++
		deg[e[1]]++
	}
	g := &Graph{
		n:       n,
		adjOff:  make([]int32, n+1),
		adjList: make([]int32, 2*len(canon)),
	}
	for u := 0; u < n; u++ {
		g.adjOff[u+1] = g.adjOff[u] + deg[u]
	}
	fill := make([]int32, n)
	copy(fill, g.adjOff[:n])
	for _, e := range canon {
		a, b := int32(e[0]), int32(e[1])
		g.adjList[fill[a]] = b
		fill[a]++
		g.adjList[fill[b]] = a
		fill[b]++
	}
	for u := 0; u < n; u++ {
		lo, hi := g.adjOff[u], g.adjOff[u+1]
		sort.Slice(g.adjList[lo:hi], func(i, j int) bool {
			return g.adjList[lo+int32(i)] < g.adjList[lo+int32(j)]
		})
	}

	// A disconnected graph is rejected by one BFS, before buildRoutes
	// spends O(n^2) memory on it.
	if u := g.unreached(); u >= 0 {
		return nil, fmt.Errorf("topo: graph is disconnected (no path %d->0)", u)
	}
	g.buildRoutes()
	if name == "" {
		name = fingerprintName(n, canon)
	}
	g.name = name
	return g, nil
}

// fingerprintName derives a content-unique name for an anonymous
// graph. The name is the topology identity everywhere — machine/core
// cache keys, memoization fingerprints — so two graphs with different
// edges must never share one: the 128-bit SHA-256 prefix makes a
// collision computationally infeasible, matching the strength of the
// service's SHA-256 content hashes that embed this name. (A 64-bit
// non-cryptographic hash here would be the weak link an attacker
// could birthday-attack to poison the daemon's caches.)
func fingerprintName(n int, canon [][2]int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(n)
	for _, e := range canon {
		put(e[0])
		put(e[1])
	}
	return fmt.Sprintf("graph-%dn%de-%x", n, len(canon), h.Sum(nil)[:16])
}

// unreached returns the lowest node a BFS from node 0 does not reach,
// or -1 when the graph is connected: O(n + edges) time and memory.
func (g *Graph) unreached() int {
	seen := make([]bool, g.n)
	seen[0] = true
	queue := append(make([]int32, 0, g.n), 0)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range g.adjList[g.adjOff[u]:g.adjOff[u+1]] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	for u, ok := range seen {
		if !ok {
			return u
		}
	}
	return -1
}

// buildRoutes runs one BFS per destination of the connected graph to
// fill the distance and canonical next-hop matrices.
func (g *Graph) buildRoutes() {
	n := g.n
	g.dist = make([]int32, n*n)
	g.next = make([]int32, n*n)
	for i := range g.dist {
		g.dist[i] = -1
		g.next[i] = -1
	}
	queue := make([]int32, 0, n)
	for d := 0; d < n; d++ {
		// BFS from the destination over the (symmetric) adjacency gives
		// dist[u][d] for every u. Pop via a head index, not reslicing,
		// so the one n-capacity queue buffer survives all n passes.
		g.dist[d*n+d] = 0
		queue = append(queue[:0], int32(d))
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			du := g.dist[int(u)*n+d]
			for _, w := range g.adjList[g.adjOff[u]:g.adjOff[u+1]] {
				if g.dist[int(w)*n+d] < 0 {
					g.dist[int(w)*n+d] = du + 1
					queue = append(queue, w)
				}
			}
		}
		// Canonical next hop toward d: the lowest-id neighbor one step
		// closer. Neighbor lists are sorted, so the first match is the
		// lowest id.
		for u := 0; u < n; u++ {
			if u == d {
				continue
			}
			du := g.dist[u*n+d]
			for _, w := range g.adjList[g.adjOff[u]:g.adjOff[u+1]] {
				if g.dist[int(w)*n+d] == du-1 {
					g.next[u*n+d] = w
					break
				}
			}
		}
	}
	diam := int32(0)
	for _, v := range g.dist {
		if v > diam {
			diam = v
		}
	}
	g.diam = int(diam)
}

// channel returns the dense index of the directed channel u->w, where
// w must be a neighbor of u.
func (g *Graph) channel(u, w int) int {
	lo, hi := int(g.adjOff[u]), int(g.adjOff[u+1])
	k := lo + sort.Search(hi-lo, func(i int) bool { return g.adjList[lo+i] >= int32(w) })
	if k >= hi || g.adjList[k] != int32(w) {
		panic(fmt.Sprintf("topo: %d and %d are not adjacent in %s", u, w, g.name))
	}
	return k
}

// Name implements Topology.
func (g *Graph) Name() string { return g.name }

// Nodes implements Topology.
func (g *Graph) Nodes() int { return g.n }

// NumChannels implements Topology: one directed channel per adjacency
// entry (two per undirected edge).
func (g *Graph) NumChannels() int { return len(g.adjList) }

// RouteIDs implements Topology: the canonical shortest-path route as
// dense directed-channel indices, walked hop by hop through the
// precomputed next-hop matrix.
func (g *Graph) RouteIDs(src, dst int, buf []int) []int {
	if src < 0 || src >= g.n || dst < 0 || dst >= g.n {
		panic(fmt.Sprintf("topo: route %d->%d outside %s", src, dst, g.name))
	}
	u := src
	for u != dst {
		w := int(g.next[u*g.n+dst])
		buf = append(buf, g.channel(u, w))
		u = w
	}
	return buf
}

// Hops implements Topology.
func (g *Graph) Hops(src, dst int) int { return int(g.dist[src*g.n+dst]) }

// Diameter implements DiameterHinter.
func (g *Graph) Diameter() int { return g.diam }

// String implements fmt.Stringer.
func (g *Graph) String() string {
	return fmt.Sprintf("%s (%d nodes, %d channels)", g.name, g.n, len(g.adjList))
}
