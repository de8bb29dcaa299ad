package hin

import (
	"fmt"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/randx"
)

// diffSchema is a heterogeneous schema covering every Builder edge rule:
// weighted and unweighted types, self-loops allowed and forbidden, and
// link types between different entity types.
func diffSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		[]EntityType{
			{Name: "User", Attrs: []string{"yob"}, SetAttrs: []string{"tags"}},
			{Name: "Item", Attrs: []string{"price"}, SetAttrs: []string{"cats", "tags"}},
		},
		[]LinkType{
			{Name: "follow", From: "User", To: "User"},
			{Name: "mention", From: "User", To: "User", Weighted: true},
			{Name: "note", From: "User", To: "User", Weighted: true, AllowSelf: true},
			{Name: "rates", From: "User", To: "Item", Weighted: true},
			{Name: "likes", From: "User", To: "Item"},
			{Name: "related", From: "Item", To: "Item", AllowSelf: true},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// refGraph is the naive reference the Builder is compared against: one
// map of merged (src, dst) strengths per link type, and one map of
// sorted values per set name.
type refGraph struct {
	n     int
	edges []map[[2]EntityID]int64
	sets  map[string]map[EntityID][]int32
}

// rows returns the reference adjacency of link type lt, both directions,
// every row sorted by neighbour; unweighted strengths collapse to 1.
func (r *refGraph) rows(s *Schema, lt LinkTypeID) (out, in [][]Edge) {
	out, in = make([][]Edge, r.n), make([][]Edge, r.n)
	for p, w := range r.edges[lt] {
		if !s.LinkType(lt).Weighted {
			w = 1
		}
		out[p[0]] = append(out[p[0]], Edge{To: p[1], W: int32(w)})
		in[p[1]] = append(in[p[1]], Edge{To: p[0], W: int32(w)})
	}
	for _, rows := range [][][]Edge{out, in} {
		for _, row := range rows {
			slices.SortFunc(row, func(a, b Edge) int { return int(a.To) - int(b.To) })
		}
	}
	return out, in
}

// randomMultigraph adds entities of both types in random interleaving, set
// values (including clears and re-assignments), and about `edges` edges:
// duplicate pairs, hub sources and destinations whose rows are far longer
// than insertionSortMax, and self-loops, which must be rejected with the
// documented error on the link types that forbid them.
func randomMultigraph(t *testing.T, s *Schema, seed uint64, n, edges int) (*Builder, *refGraph) {
	t.Helper()
	rng := randx.New(seed)
	b := NewBuilder(s)
	ref := &refGraph{n: n, sets: map[string]map[EntityID][]int32{"tags": {}, "cats": {}}}
	var byType [2][]EntityID
	for i := 0; i < n; i++ {
		et := EntityTypeID(rng.Intn(2))
		v := b.AddEntity(et, fmt.Sprint(i), int64(rng.Intn(100)))
		byType[et] = append(byType[et], v)
		names := []string{"tags"}
		if et == 1 {
			names = append(names, "cats")
		}
		// A set is assigned to a random earlier entity of the same type,
		// so columns grow past entities that never get a value.
		for _, name := range names {
			if rng.Intn(3) > 0 {
				continue
			}
			u := byType[et][rng.Intn(len(byType[et]))]
			vals := make([]int32, rng.Intn(5))
			for j := range vals {
				vals[j] = int32(rng.Intn(50))
			}
			b.SetSet(name, u, vals)
			if len(vals) == 0 {
				delete(ref.sets[name], u)
			} else {
				sorted := slices.Clone(vals)
				slices.Sort(sorted)
				ref.sets[name][u] = sorted
			}
		}
	}
	if len(byType[0]) == 0 || len(byType[1]) == 0 {
		t.Fatal("seed produced a single entity type")
	}
	pick := func(et EntityTypeID) EntityID {
		pool := byType[et]
		if rng.Intn(4) == 0 {
			// Hubs: the first four entities of each type take a quarter
			// of all picks.
			return pool[rng.Intn(min(4, len(pool)))]
		}
		return pool[rng.Intn(len(pool))]
	}
	ref.edges = make([]map[[2]EntityID]int64, s.NumLinkTypes())
	for lt := range ref.edges {
		ref.edges[lt] = make(map[[2]EntityID]int64)
	}
	for i := 0; i < edges; i++ {
		lt := LinkTypeID(rng.Intn(s.NumLinkTypes()))
		decl := s.LinkType(lt)
		from := pick(b.ltFrom[lt])
		to := pick(b.ltTo[lt])
		if rng.Intn(50) == 0 && b.ltFrom[lt] == b.ltTo[lt] {
			to = from
		}
		w := int32(1)
		if decl.Weighted {
			w = int32(rng.IntRange(1, 9))
		}
		err := b.AddEdge(lt, from, to, w)
		if from == to && !decl.AllowSelf {
			want := fmt.Sprintf("hin: link %q forbids self-loops (entity %d)", decl.Name, from)
			if err == nil || err.Error() != want {
				t.Fatalf("self-loop on %q: err %v, want %q", decl.Name, err, want)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ref.edges[lt][[2]EntityID{from, to}] += int64(w)
	}
	return b, ref
}

// TestBuildParallelDifferential builds random heterogeneous multigraphs on
// both sides of parallelBuildEdges and compares every OutEdges/InEdges
// row and every set against the naive reference.
func TestBuildParallelDifferential(t *testing.T) {
	s := diffSchema(t)
	cases := []struct {
		name     string
		n, edges int
	}{
		{"serial", 400, 6000},
		{"parallel", 3000, parallelBuildEdges + 4000},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, ref := randomMultigraph(t, s, uint64(100+i), tc.n, tc.edges)
			var added int
			for lt := range b.eFrom {
				added += len(b.eFrom[lt])
			}
			if (added >= parallelBuildEdges) != (tc.name == "parallel") {
				t.Fatalf("%s case adds %d edges against cutoff %d", tc.name, added, parallelBuildEdges)
			}
			g, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			var longest, total int
			for lt := 0; lt < s.NumLinkTypes(); lt++ {
				ltid := LinkTypeID(lt)
				out, in := ref.rows(s, ltid)
				for v := 0; v < tc.n; v++ {
					for _, d := range []struct {
						dir  string
						row  func(LinkTypeID, EntityID) ([]EntityID, []int32)
						want []Edge
					}{{"out", g.OutEdges, out[v]}, {"in", g.InEdges, in[v]}} {
						dir, want := d.dir, d.want
						tos, ws := d.row(ltid, EntityID(v))
						got := make([]Edge, len(tos))
						for j := range tos {
							got[j] = Edge{To: tos[j], W: ws[j]}
						}
						if !slices.Equal(got, want) {
							t.Fatalf("lt %q entity %d %s-row = %v, want %v", s.LinkType(ltid).Name, v, dir, got, want)
						}
						longest = max(longest, len(got))
					}
				}
				total += len(ref.edges[lt])
				if g.NumEdges(ltid) != int64(len(ref.edges[lt])) {
					t.Fatalf("lt %d: NumEdges %d, want %d", lt, g.NumEdges(ltid), len(ref.edges[lt]))
				}
			}
			if longest <= insertionSortMax {
				t.Fatalf("longest row %d never exceeds insertionSortMax %d", longest, insertionSortMax)
			}
			for name, col := range ref.sets {
				for v := 0; v < tc.n; v++ {
					if got, want := g.Set(name, EntityID(v)), col[EntityID(v)]; !slices.Equal(got, want) {
						t.Fatalf("set %q entity %d = %v, want %v", name, v, got, want)
					}
				}
			}
			t.Logf("%d merged edges, longest row %d", total, longest)
		})
	}
}

// TestBuildParallelOverflowError pins the merged-strength overflow error on
// both sides of the parallel cutoff: when several link types overflow, the
// reported error is the lowest link type's, at the lowest overflowing
// source entity, exactly as a serial build reports it.
func TestBuildParallelOverflowError(t *testing.T) {
	s := diffSchema(t)
	mention, rates := s.MustLinkTypeID("mention"), s.MustLinkTypeID("rates")
	for i, edges := range []int{100, parallelBuildEdges + 4000} {
		b, _ := randomMultigraph(t, s, uint64(200+i), 2000, edges)
		uid, _ := s.EntityTypeID("User")
		iid, _ := s.EntityTypeID("Item")
		var u, it []EntityID
		for v, et := range b.etype {
			switch et {
			case uid:
				u = append(u, EntityID(v))
			case iid:
				it = append(it, EntityID(v))
			}
		}
		// rates overflows at a lower entity, but mention is the lower
		// link type, so mention's entity is the one reported.
		for _, e := range []struct {
			lt       LinkTypeID
			from, to EntityID
		}{{mention, u[5], u[6]}, {mention, u[9], u[6]}, {rates, u[1], it[0]}} {
			for k := 0; k < 2; k++ {
				if err := b.AddEdge(e.lt, e.from, e.to, maxInt32); err != nil {
					t.Fatal(err)
				}
			}
		}
		_, err := b.Build()
		want := fmt.Sprintf("hin: merged edge strength overflows int32 at entity %d", u[5])
		if err == nil || err.Error() != want {
			t.Fatalf("%d edges: Build error %v, want %q", edges, err, want)
		}
	}
}
