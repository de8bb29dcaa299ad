package bipartite

import (
	"testing"
	"testing/quick"

	"github.com/hinpriv/dehin/internal/randx"
)

func graphOf(nLeft, nRight int, edges [][2]int32) Graph {
	adj := make([][]int32, nLeft)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	return Graph{NLeft: nLeft, NRight: nRight, Adj: adj}
}

func TestHopcroftKarpSmall(t *testing.T) {
	cases := []struct {
		name     string
		g        Graph
		wantSize int
	}{
		{"empty", graphOf(0, 0, nil), 0},
		{"no edges", graphOf(3, 3, nil), 0},
		{"single edge", graphOf(1, 1, [][2]int32{{0, 0}}), 1},
		{"perfect 3x3", graphOf(3, 3, [][2]int32{{0, 0}, {1, 1}, {2, 2}}), 3},
		{"contended", graphOf(2, 1, [][2]int32{{0, 0}, {1, 0}}), 1},
		{"augmenting path needed", graphOf(2, 2, [][2]int32{{0, 0}, {0, 1}, {1, 0}}), 2},
		{"paper figure 6", graphOf(3, 4, [][2]int32{
			// C(v5')={v1,v2}, C(v6')={v2}, C(v7')={v3,v4}
			{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 3},
		}), 3},
		{"hall violator", graphOf(3, 3, [][2]int32{{0, 0}, {1, 0}, {2, 0}}), 1},
	}
	for _, tc := range cases {
		matchL, matchR, size := HopcroftKarp(tc.g)
		if size != tc.wantSize {
			t.Errorf("%s: size = %d, want %d", tc.name, size, tc.wantSize)
		}
		checkConsistent(t, tc.name, tc.g, matchL, matchR, size)
	}
}

// checkConsistent validates the matching invariants: matched pairs are
// mutual, every matched edge exists in the graph, and the count is right.
func checkConsistent(t *testing.T, name string, g Graph, matchL, matchR []int32, size int) {
	t.Helper()
	count := 0
	for l, r := range matchL {
		if r == NoMatch {
			continue
		}
		count++
		if matchR[r] != int32(l) {
			t.Errorf("%s: matchL[%d]=%d but matchR[%d]=%d", name, l, r, r, matchR[r])
		}
		found := false
		for _, rr := range g.Adj[l] {
			if rr == r {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: matched pair (%d,%d) is not an edge", name, l, r)
		}
	}
	if count != size {
		t.Errorf("%s: reported size %d but %d left vertices matched", name, size, count)
	}
	for r, l := range matchR {
		if l != NoMatch && matchL[l] != int32(r) {
			t.Errorf("%s: matchR[%d]=%d inconsistent", name, r, l)
		}
	}
}

func TestHasPerfectLeftMatching(t *testing.T) {
	cases := []struct {
		name string
		g    Graph
		want bool
	}{
		{"empty left always matches", graphOf(0, 5, nil), true},
		{"isolated left vertex", graphOf(2, 2, [][2]int32{{0, 0}}), false},
		{"more left than right", graphOf(3, 2, [][2]int32{{0, 0}, {1, 1}, {2, 0}}), false},
		{"perfect", graphOf(2, 3, [][2]int32{{0, 1}, {1, 2}}), true},
		{"needs augmenting", graphOf(2, 2, [][2]int32{{0, 0}, {0, 1}, {1, 0}}), true},
		{"hall blocked", graphOf(2, 2, [][2]int32{{0, 0}, {1, 0}}), false},
	}
	for _, tc := range cases {
		if got := HasPerfectLeftMatching(tc.g); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

// randomGraph produces a random bipartite graph with the given RNG.
func randomGraph(rng *randx.RNG, maxSide int) Graph {
	nl := rng.Intn(maxSide + 1)
	nr := rng.Intn(maxSide + 1)
	adj := make([][]int32, nl)
	if nr > 0 {
		for l := 0; l < nl; l++ {
			deg := rng.Intn(nr + 1)
			for _, r := range rng.SampleWithoutReplacement(nr, deg) {
				adj[l] = append(adj[l], int32(r))
			}
		}
	}
	return Graph{NLeft: nl, NRight: nr, Adj: adj}
}

// Property: Hopcroft-Karp and Kuhn agree on the maximum matching size for
// random graphs, and the HK matching is internally consistent.
func TestHopcroftKarpAgreesWithKuhn(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		g := randomGraph(rng, 18)
		matchL, matchR, size := HopcroftKarp(g)
		if size != maxMatchingKuhn(g) {
			return false
		}
		// Inline consistency check (cannot call t.Helper inside quick).
		count := 0
		for l, r := range matchL {
			if r == NoMatch {
				continue
			}
			count++
			if matchR[r] != int32(l) {
				return false
			}
		}
		return count == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding an edge never decreases the maximum matching size.
func TestMatchingMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		g := randomGraph(rng, 12)
		if g.NLeft == 0 || g.NRight == 0 {
			return true
		}
		_, _, before := HopcroftKarp(g)
		l := rng.Intn(g.NLeft)
		r := int32(rng.Intn(g.NRight))
		g.Adj[l] = append(g.Adj[l], r)
		_, _, after := HopcroftKarp(g)
		return after >= before && after <= before+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a complete bipartite graph has matching size min(nl, nr).
func TestCompleteGraphMatching(t *testing.T) {
	for nl := 0; nl <= 8; nl++ {
		for nr := 0; nr <= 8; nr++ {
			adj := make([][]int32, nl)
			for l := range adj {
				for r := 0; r < nr; r++ {
					adj[l] = append(adj[l], int32(r))
				}
			}
			g := Graph{NLeft: nl, NRight: nr, Adj: adj}
			_, _, size := HopcroftKarp(g)
			want := nl
			if nr < nl {
				want = nr
			}
			if size != want {
				t.Fatalf("K(%d,%d): size %d, want %d", nl, nr, size, want)
			}
		}
	}
}

func TestDuplicateEdgesHarmless(t *testing.T) {
	g := graphOf(2, 2, [][2]int32{{0, 0}, {0, 0}, {0, 1}, {1, 0}, {1, 0}})
	_, _, size := HopcroftKarp(g)
	if size != 2 {
		t.Fatalf("size with duplicate edges = %d", size)
	}
}

// Property: a reused Matcher agrees with the one-shot functions across a
// stream of random graphs (stale state from a previous call must never
// leak into the next).
func TestMatcherReuseAgreesWithOneShot(t *testing.T) {
	rng := randx.New(99)
	var m Matcher
	for i := 0; i < 500; i++ {
		g := randomGraph(rng, 20)
		if got, want := m.Match(g), maxMatchingKuhn(g); got != want {
			t.Fatalf("iteration %d: reused Matcher size %d, want %d", i, got, want)
		}
		if got, want := m.HasPerfectLeftMatching(g), HasPerfectLeftMatching(g); got != want {
			t.Fatalf("iteration %d: reused perfect-matching %v, want %v", i, got, want)
		}
	}
}

func TestMatcherMatchLConsistent(t *testing.T) {
	var m Matcher
	g := graphOf(3, 4, [][2]int32{{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 3}})
	size := m.Match(g)
	matchL := m.MatchL()
	count := 0
	for l, r := range matchL {
		if r == NoMatch {
			continue
		}
		count++
		found := false
		for _, rr := range g.Adj[l] {
			if rr == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("MatchL pair (%d,%d) is not an edge", l, r)
		}
	}
	if count != size {
		t.Fatalf("MatchL has %d assignments, size is %d", count, size)
	}
}

func TestMatcherSteadyStateZeroAlloc(t *testing.T) {
	rng := randx.New(11)
	g := randomGraph(rng, 30)
	var m Matcher
	m.Match(g) // warm the working arrays
	allocs := testing.AllocsPerRun(100, func() {
		m.Match(g)
	})
	if allocs != 0 {
		t.Fatalf("Matcher.Match allocated %.1f times per call after warm-up", allocs)
	}
}

func BenchmarkHopcroftKarpDense(b *testing.B) {
	rng := randx.New(7)
	const n = 500
	adj := make([][]int32, n)
	for l := 0; l < n; l++ {
		for r := 0; r < n; r++ {
			if rng.Bool(0.05) {
				adj[l] = append(adj[l], int32(r))
			}
		}
	}
	g := Graph{NLeft: n, NRight: n, Adj: adj}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HopcroftKarp(g)
	}
}

func BenchmarkHasPerfectLeftMatching(b *testing.B) {
	rng := randx.New(9)
	const nl, nr = 40, 80
	adj := make([][]int32, nl)
	for l := 0; l < nl; l++ {
		for _, r := range rng.SampleWithoutReplacement(nr, 6) {
			adj[l] = append(adj[l], int32(r))
		}
	}
	g := Graph{NLeft: nl, NRight: nr, Adj: adj}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HasPerfectLeftMatching(g)
	}
}

// maxMatchingKuhn computes a maximum matching size with Kuhn's simple
// augmenting-path algorithm (O(V*E)), the oracle HopcroftKarp and the
// Matcher are cross-checked against.
func maxMatchingKuhn(g Graph) int {
	matchR := make([]int32, g.NRight)
	for i := range matchR {
		matchR[i] = NoMatch
	}
	visited := make([]bool, g.NRight)
	var try func(l int32) bool
	try = func(l int32) bool {
		for _, r := range g.Adj[l] {
			if visited[r] {
				continue
			}
			visited[r] = true
			if matchR[r] == NoMatch || try(matchR[r]) {
				matchR[r] = l
				return true
			}
		}
		return false
	}
	size := 0
	for l := 0; l < g.NLeft; l++ {
		for i := range visited {
			visited[i] = false
		}
		if try(int32(l)) {
			size++
		}
	}
	return size
}
