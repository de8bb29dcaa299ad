package hin

import "fmt"

// Density computes the paper's Equation 4 for a graph whose link types all
// connect the same single entity type (a target network schema instance):
//
//	density = |E| / (m|V|^2 + (|L|-m)|V|(|V|-1))
//
// where m is the number of link types that allow self-loops. It returns an
// error if the graph has fewer than two entities or any link type spans
// different entity types.
func Density(g GraphBackend) (float64, error) {
	n := int64(g.NumEntities())
	if n < 2 {
		return 0, fmt.Errorf("hin: density undefined for %d entities", n)
	}
	s := g.Schema()
	var m, l int64
	for i := 0; i < s.NumLinkTypes(); i++ {
		lt := s.LinkType(LinkTypeID(i))
		if lt.From != lt.To {
			return 0, fmt.Errorf("hin: density requires same-typed link endpoints, %q is %s->%s",
				lt.Name, lt.From, lt.To)
		}
		l++
		if lt.AllowSelf {
			m++
		}
	}
	if l == 0 {
		return 0, fmt.Errorf("hin: density undefined without link types")
	}
	den := m*n*n + (l-m)*n*(n-1)
	return float64(g.NumEdgesTotal()) / float64(den), nil
}

// MaxEdges returns the Equation 4 denominator for a graph with n entities
// and the given link types: the maximum possible number of edges.
func MaxEdges(s *Schema, n int) int64 {
	nn := int64(n)
	var m, l int64
	for i := 0; i < s.NumLinkTypes(); i++ {
		l++
		if s.LinkType(LinkTypeID(i)).AllowSelf {
			m++
		}
	}
	return m*nn*nn + (l-m)*nn*(nn-1)
}

// AttrCardinality returns the number of distinct values attribute index i
// takes across entities of type t - the per-attribute cardinality C(A_j) of
// Theorem 2 (and the "average cardinality of gender, yob, ..." statistics
// in Section 6.1).
func AttrCardinality(g GraphBackend, t EntityTypeID, i int) int {
	seen := make(map[int64]struct{})
	for v := 0; v < g.NumEntities(); v++ {
		if g.EntityType(EntityID(v)) != t {
			continue
		}
		seen[g.Attr(EntityID(v), i)] = struct{}{}
	}
	return len(seen)
}

// StrengthCardinality returns the number of distinct edge strengths of link
// type lt - the homogeneous link cardinality C(L_i) of Theorem 2.
func StrengthCardinality(g GraphBackend, lt LinkTypeID) int {
	seen := make(map[int32]struct{})
	buf := &EdgeBuf{}
	for v := 0; v < g.NumEntities(); v++ {
		_, ws := g.OutEdgesBuf(buf, lt, EntityID(v))
		for _, w := range ws {
			seen[w] = struct{}{}
		}
	}
	return len(seen)
}

// MajorityStrength returns the most frequent edge strength of link type lt
// and its count. The re-configured DeHIN of Section 6.2 removes all links
// carrying the network-wide majority strength to strip Complete Graph
// Anonymity's fake edges. ok is false if the link type has no edges.
func MajorityStrength(g *Graph, lt LinkTypeID) (w int32, count int64, ok bool) {
	counts := make(map[int32]int64)
	for _, x := range g.fwd[lt].w {
		counts[x]++
	}
	for x, c := range counts {
		if !ok || c > count || (c == count && x < w) {
			w, count, ok = x, c, true
		}
	}
	return w, count, ok
}
