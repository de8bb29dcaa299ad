package hin

import (
	"math"
	"testing"
)

func targetSchema4(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		[]EntityType{{Name: "User", Attrs: []string{"yob"}, SetAttrs: []string{"tags"}}},
		[]LinkType{
			{Name: "follow", From: "User", To: "User"},
			{Name: "mention", From: "User", To: "User", Weighted: true},
			{Name: "retweet", From: "User", To: "User", Weighted: true},
			{Name: "comment", From: "User", To: "User", Weighted: true},
		},
	)
}

func TestDensityEquation4(t *testing.T) {
	s := targetSchema4(t)
	b := NewBuilder(s)
	n := 10
	for i := 0; i < n; i++ {
		b.AddEntity(0, "", int64(i))
	}
	// 18 edges over 4 link types, no self-loop-allowing types:
	// denominator = 4 * 10 * 9 = 360.
	added := 0
	for lt := 0; lt < 3 && added < 18; lt++ {
		for i := 0; i < n && added < 18; i++ {
			j := (i + lt + 1) % n
			if i == j {
				continue
			}
			if err := b.AddEdge(LinkTypeID(lt), EntityID(i), EntityID(j), 1); err != nil {
				t.Fatal(err)
			}
			added++
		}
	}
	g, _ := b.Build()
	d, err := Density(g)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(added) / 360.0
	if math.Abs(d-want) > 1e-12 {
		t.Fatalf("density = %g, want %g", d, want)
	}
}

func TestDensityWithSelfLinkTypes(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "A"}},
		[]LinkType{
			{Name: "x", From: "A", To: "A", AllowSelf: true, Weighted: true},
			{Name: "y", From: "A", To: "A"},
		},
	)
	b := NewBuilder(s)
	for i := 0; i < 5; i++ {
		b.AddEntity(0, "")
	}
	if err := b.AddEdge(0, 2, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	d, err := Density(g)
	if err != nil {
		t.Fatal(err)
	}
	// m=1, |L|=2: denominator = 1*25 + 1*20 = 45, edges = 2.
	want := 2.0 / 45.0
	if math.Abs(d-want) > 1e-12 {
		t.Fatalf("density = %g, want %g", d, want)
	}
}

func TestDensityErrors(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "A"}, {Name: "B"}},
		[]LinkType{{Name: "x", From: "A", To: "B"}},
	)
	b := NewBuilder(s)
	b.AddEntity(0, "")
	b.AddEntity(1, "")
	g, _ := b.Build()
	if _, err := Density(g); err == nil {
		t.Fatal("cross-type link density accepted")
	}

	b2 := NewBuilder(userSchema(t))
	b2.AddEntity(0, "", 1, 2)
	g2, _ := b2.Build()
	if _, err := Density(g2); err == nil {
		t.Fatal("single-entity density accepted")
	}
}

func TestMaxEdges(t *testing.T) {
	s := targetSchema4(t)
	if got := MaxEdges(s, 1000); got != 4*1000*999 {
		t.Fatalf("MaxEdges = %d", got)
	}
}

func TestCardinalities(t *testing.T) {
	s := targetSchema4(t)
	b := NewBuilder(s)
	years := []int64{1980, 1980, 1990, 2000}
	for _, y := range years {
		b.AddEntity(0, "", y)
	}
	if err := b.AddEdge(1, 0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 1, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 3, 7); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	if c := AttrCardinality(g, 0, 0); c != 3 {
		t.Fatalf("yob cardinality = %d", c)
	}
	if c := StrengthCardinality(g, 1); c != 2 {
		t.Fatalf("strength cardinality = %d", c)
	}
	if c := StrengthCardinality(g, 2); c != 0 {
		t.Fatalf("empty link type cardinality = %d", c)
	}
}

func TestMajorityStrength(t *testing.T) {
	s := targetSchema4(t)
	b := NewBuilder(s)
	for i := 0; i < 5; i++ {
		b.AddEntity(0, "", 0)
	}
	weights := []int32{7, 7, 7, 2, 5}
	k := 0
	for i := 0; i < 5 && k < len(weights); i++ {
		for j := 0; j < 5 && k < len(weights); j++ {
			if i == j {
				continue
			}
			if err := b.AddEdge(1, EntityID(i), EntityID(j), weights[k]); err != nil {
				t.Fatal(err)
			}
			k++
		}
	}
	g, _ := b.Build()
	w, c, ok := MajorityStrength(g, 1)
	if !ok || w != 7 || c != 3 {
		t.Fatalf("majority = %d x%d %v", w, c, ok)
	}
	if _, _, ok := MajorityStrength(g, 2); ok {
		t.Fatal("empty link type should report no majority")
	}
}

func TestMajorityStrengthTieBreaksLow(t *testing.T) {
	s := targetSchema4(t)
	b := NewBuilder(s)
	for i := 0; i < 3; i++ {
		b.AddEntity(0, "", 0)
	}
	if err := b.AddEdge(1, 0, 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 1, 2, 4); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	w, c, ok := MajorityStrength(g, 1)
	if !ok || c != 1 || w != 4 {
		t.Fatalf("tie must break to the smaller strength: %d x%d %v", w, c, ok)
	}
}

func TestEntitiesOfType(t *testing.T) {
	s := MustSchema(
		[]EntityType{{Name: "U"}, {Name: "T"}},
		[]LinkType{},
	)
	b := NewBuilder(s)
	b.AddEntity(0, "")
	b.AddEntity(1, "")
	b.AddEntity(0, "")
	g, _ := b.Build()
	us := g.EntitiesOfType(0)
	if len(us) != 2 || us[0] != 0 || us[1] != 2 {
		t.Fatalf("EntitiesOfType(U) = %v", us)
	}
	ts := g.EntitiesOfType(1)
	if len(ts) != 1 || ts[0] != 1 {
		t.Fatalf("EntitiesOfType(T) = %v", ts)
	}
}
