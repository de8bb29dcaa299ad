// Package bipartite implements maximum bipartite matching. DeHIN's
// Algorithm 2 reduces neighbor comparison to deciding whether every
// neighbor of the target entity can be matched to a distinct neighbor of
// the auxiliary candidate - a maximum bipartite matching question the paper
// answers with the Hopcroft-Karp algorithm (O(E sqrt(V))).
//
// A Matcher carries the algorithm's working arrays across calls, so a hot
// loop that decides thousands of matchings per query (dehin's query
// engine) performs no per-call allocations. The package-level functions
// remain for one-shot callers and as the reference API.
//
// A simple Kuhn augmenting-path implementation is included as an
// independently written cross-check used by the tests.
package bipartite

// NoMatch marks an unmatched vertex in the matching arrays.
const NoMatch int32 = -1

// Graph is a bipartite graph given as adjacency from the nLeft left
// vertices to right vertices in [0, nRight).
type Graph struct {
	NLeft, NRight int
	Adj           [][]int32 // Adj[l] lists the right vertices adjacent to l
}

// Matcher runs Hopcroft-Karp while keeping its dist/match/queue arrays
// across calls: after warm-up, Match performs zero heap allocations. The
// zero value is ready to use. A Matcher is not safe for concurrent use;
// give each worker its own.
type Matcher struct {
	matchL, matchR []int32
	dist           []int32
	queue          []int32
	g              Graph // graph of the in-flight Match call
}

const inf = int32(1<<31 - 1)

// Match computes the maximum matching size of g, reusing the Matcher's
// working arrays. The assignment is readable via MatchL until the next
// call.
//
//hin:hot
func (m *Matcher) Match(g Graph) int {
	m.g = g
	m.matchL = resetMatch(m.matchL, g.NLeft)
	m.matchR = resetMatch(m.matchR, g.NRight)
	if cap(m.dist) < g.NLeft {
		m.dist = make([]int32, g.NLeft)
	} else {
		m.dist = m.dist[:g.NLeft]
	}
	if cap(m.queue) < g.NLeft {
		m.queue = make([]int32, 0, g.NLeft)
	}

	// Greedy initialization cuts the number of phases substantially.
	size := 0
	for l := 0; l < g.NLeft; l++ {
		for _, r := range g.Adj[l] {
			if m.matchR[r] == NoMatch {
				m.matchL[l] = r
				m.matchR[r] = int32(l)
				size++
				break
			}
		}
	}
	for m.bfs() {
		for l := 0; l < g.NLeft; l++ {
			if m.matchL[l] == NoMatch && m.dfs(int32(l)) {
				size++
			}
		}
	}
	m.g = Graph{} // do not pin the caller's adjacency between calls
	return size
}

// MatchL exposes the left-side assignment of the most recent Match call
// (entry l is the matched right vertex or NoMatch). The slice is owned by
// the Matcher and overwritten by the next call.
func (m *Matcher) MatchL() []int32 { return m.matchL }

// HasPerfectLeftMatching reports whether a matching saturating every left
// vertex of g exists, with the same short-circuits as the package-level
// function.
//
//hin:hot
func (m *Matcher) HasPerfectLeftMatching(g Graph) bool {
	for l := 0; l < g.NLeft; l++ {
		if len(g.Adj[l]) == 0 {
			return false
		}
	}
	if g.NLeft > g.NRight {
		return false
	}
	return m.Match(g) == g.NLeft
}

func resetMatch(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = NoMatch
	}
	return s
}

//hin:hot
func (m *Matcher) bfs() bool {
	m.queue = m.queue[:0]
	for l := 0; l < m.g.NLeft; l++ {
		if m.matchL[l] == NoMatch {
			m.dist[l] = 0
			m.queue = append(m.queue, int32(l))
		} else {
			m.dist[l] = inf
		}
	}
	found := false
	for qi := 0; qi < len(m.queue); qi++ {
		l := m.queue[qi]
		for _, r := range m.g.Adj[l] {
			nl := m.matchR[r]
			if nl == NoMatch {
				found = true
			} else if m.dist[nl] == inf {
				m.dist[nl] = m.dist[l] + 1
				m.queue = append(m.queue, nl)
			}
		}
	}
	return found
}

//hin:hot
func (m *Matcher) dfs(l int32) bool {
	for _, r := range m.g.Adj[l] {
		nl := m.matchR[r]
		if nl == NoMatch || (m.dist[nl] == m.dist[l]+1 && m.dfs(nl)) {
			m.matchL[l] = r
			m.matchR[r] = l
			return true
		}
	}
	m.dist[l] = inf
	return false
}

// HopcroftKarp computes a maximum matching. It returns matchL (for each
// left vertex, its matched right vertex or NoMatch), matchR (the inverse),
// and the matching size. One-shot convenience over Matcher.
func HopcroftKarp(g Graph) (matchL, matchR []int32, size int) {
	var m Matcher
	size = m.Match(g)
	return m.matchL, m.matchR, size
}

// HasPerfectLeftMatching reports whether a matching saturating every left
// vertex exists - the exact question Algorithm 2 asks
// (max_bipartite_match(G_B) == |N_b(v', L_i)|). It short-circuits: a left
// vertex with no edges fails immediately.
func HasPerfectLeftMatching(g Graph) bool {
	var m Matcher
	return m.HasPerfectLeftMatching(g)
}
