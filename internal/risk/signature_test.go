package risk

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// buildPair builds a 4-user graph where users 0 and 1 share attributes and
// are distinguishable only through their neighborhoods:
//
//	0 -mention(5)-> 2   (2 has yob 1990)
//	1 -mention(5)-> 3   (3 has yob 1970)
func buildPair(t *testing.T) *hin.Graph {
	t.Helper()
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	b.AddEntity(0, "a", 1980, 1, 100, 2)
	b.AddEntity(0, "b", 1980, 1, 100, 2)
	b.AddEntity(0, "c", 1990, 1, 50, 1)
	b.AddEntity(0, "d", 1970, 1, 50, 1)
	mention := s.MustLinkTypeID(tqq.LinkMention)
	if err := b.AddEdge(mention, 0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(mention, 1, 3, 5); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allAttrs() []int {
	return []int{tqq.AttrYob, tqq.AttrGender, tqq.AttrTweets, tqq.AttrNumTags}
}

func TestSignaturesDistance0(t *testing.T) {
	g := buildPair(t)
	sigs, err := Signatures(g, SignatureConfig{MaxDistance: 0, EntityAttrs: allAttrs()})
	if err != nil {
		t.Fatal(err)
	}
	if sigs[0] != sigs[1] {
		t.Fatal("identical profiles must share a distance-0 signature")
	}
	if sigs[0] == sigs[2] || sigs[2] == sigs[3] {
		t.Fatal("distinct profiles collided")
	}
}

func TestSignaturesDistance1SplitsByNeighborProfile(t *testing.T) {
	g := buildPair(t)
	mention := g.Schema().MustLinkTypeID(tqq.LinkMention)
	sigs, err := Signatures(g, SignatureConfig{
		MaxDistance: 1,
		LinkTypes:   []hin.LinkTypeID{mention},
		EntityAttrs: allAttrs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's expansion: "5-time-mentionee's yob" differs (1990 vs
	// 1970), so 0 and 1 become distinguishable at distance 1.
	if sigs[0] == sigs[1] {
		t.Fatal("distance-1 signatures must separate users with different mentionee profiles")
	}
}

func TestSignaturesIgnoreUnselectedLinkTypes(t *testing.T) {
	g := buildPair(t)
	follow := g.Schema().MustLinkTypeID(tqq.LinkFollow)
	sigs, err := Signatures(g, SignatureConfig{
		MaxDistance: 2,
		LinkTypes:   []hin.LinkTypeID{follow}, // mention edges invisible
		EntityAttrs: allAttrs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sigs[0] != sigs[1] {
		t.Fatal("users identical up to unselected link types must collide")
	}
}

func TestSignaturesStrengthMatters(t *testing.T) {
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	for i := 0; i < 4; i++ {
		b.AddEntity(0, "", 1980, 1, 10, 0)
	}
	mention := s.MustLinkTypeID(tqq.LinkMention)
	// Same neighbor, different strengths.
	if err := b.AddEdge(mention, 0, 2, 5); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(mention, 1, 3, 9); err != nil {
		t.Fatal(err)
	}
	g, _ := b.Build()
	sigs, err := Signatures(g, SignatureConfig{
		MaxDistance: 1,
		LinkTypes:   []hin.LinkTypeID{mention},
		EntityAttrs: allAttrs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sigs[0] == sigs[1] {
		t.Fatal("the short-circuited strength must feed the signature")
	}
}

func TestSignaturesOrderInvariance(t *testing.T) {
	// Two users mention the same (profile-equivalent) neighbors with the
	// same multiset of strengths, inserted in different orders: their
	// signatures must agree.
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	for i := 0; i < 6; i++ {
		b.AddEntity(0, "", 1980, 1, 10, 0)
	}
	mention := s.MustLinkTypeID(tqq.LinkMention)
	// User 0 mentions 2 (w=3) then 3 (w=8); user 1 mentions 5 (w=8) then 4 (w=3).
	edges := []struct {
		f, to hin.EntityID
		w     int32
	}{{0, 2, 3}, {0, 3, 8}, {1, 5, 8}, {1, 4, 3}}
	for _, e := range edges {
		if err := b.AddEdge(mention, e.f, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, _ := b.Build()
	sigs, err := Signatures(g, SignatureConfig{
		MaxDistance: 1,
		LinkTypes:   []hin.LinkTypeID{mention},
		EntityAttrs: allAttrs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if sigs[0] != sigs[1] {
		t.Fatal("signature must be invariant to neighbor insertion order")
	}
}

func TestNetworkRiskNumTagsOnlyIsTagCardinalityOverN(t *testing.T) {
	// Section 6.1: with n=0 and only the number of tags as entity
	// attribute, risk = (number of distinct tag counts)/N = 11/1000 = 1.1%.
	d, err := tqq.Generate(tqq.DefaultConfig(1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NetworkRisk(d.Graph, SignatureConfig{
		MaxDistance: 0,
		EntityAttrs: []int{tqq.AttrNumTags},
	})
	if err != nil {
		t.Fatal(err)
	}
	card := hin.AttrCardinality(d.Graph, 0, tqq.AttrNumTags)
	want := float64(card) / 1000
	if math.Abs(r-want) > 1e-9 {
		t.Fatalf("risk = %g, want %g", r, want)
	}
	if card != 11 {
		t.Fatalf("tag-count cardinality = %d, want 11 (then risk 1.1%%)", card)
	}
}

// Property: increasing MaxDistance only refines the partition - the
// cardinality (and hence risk) never decreases.
func TestRiskMonotoneInDistance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := randx.New(seed)
		cfg := tqq.DefaultConfig(rng.IntRange(50, 200), seed)
		d, err := tqq.Generate(cfg)
		if err != nil {
			return false
		}
		lts := []hin.LinkTypeID{0, 1, 2, 3}
		prev := -1
		for n := 0; n <= 3; n++ {
			c, err := networkCardinality(d.Graph, SignatureConfig{
				MaxDistance: n,
				LinkTypes:   lts,
				EntityAttrs: []int{tqq.AttrNumTags},
			})
			if err != nil || c < prev {
				return false
			}
			prev = c
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding link types refines the partition too.
func TestRiskMonotoneInLinkTypes(t *testing.T) {
	d, err := tqq.Generate(tqq.DefaultConfig(300, 6))
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]hin.LinkTypeID{
		{0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3},
	}
	prev := -1
	for _, lts := range subsets {
		c, err := networkCardinality(d.Graph, SignatureConfig{
			MaxDistance: 2,
			LinkTypes:   lts,
			EntityAttrs: []int{tqq.AttrNumTags},
		})
		if err != nil {
			t.Fatal(err)
		}
		if c < prev {
			t.Fatalf("cardinality shrank when adding link types: %d -> %d", prev, c)
		}
		prev = c
	}
}

func TestSignaturesErrors(t *testing.T) {
	g := buildPair(t)
	if _, err := Signatures(g, SignatureConfig{MaxDistance: -1}); err == nil {
		t.Fatal("negative distance accepted")
	}
	if _, err := Signatures(g, SignatureConfig{LinkTypes: []hin.LinkTypeID{99}}); err == nil {
		t.Fatal("bad link type accepted")
	}
	if _, err := Signatures(g, SignatureConfig{EntityAttrs: []int{42}}); err == nil {
		t.Fatal("bad attr index accepted")
	}
}

func BenchmarkSignaturesDistance2(b *testing.B) {
	cfg := tqq.DefaultConfig(1000, 3)
	cfg.Communities = []tqq.CommunitySpec{{Size: 1000, Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sc := SignatureConfig{
		MaxDistance: 2,
		LinkTypes:   []hin.LinkTypeID{0, 1, 2, 3},
		EntityAttrs: []int{tqq.AttrNumTags},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Signatures(d.Graph, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// networkCardinality computes C(T*_G) at the configured distance straight
// from Signatures, the oracle the combined sweep is checked against.
func networkCardinality(g hin.GraphBackend, cfg SignatureConfig) (int, error) {
	sigs, err := Signatures(g, cfg)
	if err != nil {
		return 0, err
	}
	return Cardinality(sigs), nil
}
