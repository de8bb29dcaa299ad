package dehin

import (
	"runtime"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

func buildIndexFixture(tb testing.TB, users int) (*tqq.Dataset, *tqq.Target) {
	tb.Helper()
	cfg := tqq.DefaultConfig(users, 51)
	cfg.Communities = []tqq.CommunitySpec{{Size: max(40, users/20), Density: 0.01}}
	d, err := tqq.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(13))
	if err != nil {
		tb.Fatal(err)
	}
	return d, tgt
}

// threeExactProfile keys the index on three exact attributes, a tuple
// wider than two packed 32-bit halves.
func threeExactProfile() ProfileSpec {
	return ProfileSpec{
		ExactAttrs: []int{tqq.AttrYob, tqq.AttrGender, tqq.AttrNumTags},
		GrowAttrs:  []int{tqq.AttrTweets},
	}
}

// shiftAttr rebuilds g with delta added to scalar attribute ai of every
// entity - shifting yob by 2^40 on both graphs keeps every match intact
// while putting every exact tuple outside int32.
func shiftAttr(tb testing.TB, g *hin.Graph, ai int, delta int64) *hin.Graph {
	tb.Helper()
	s := g.Schema()
	b := hin.NewBuilder(s)
	for v := 0; v < g.NumEntities(); v++ {
		id := hin.EntityID(v)
		attrs := append([]int64(nil), g.Attrs(id)...)
		attrs[ai] += delta
		b.AddEntity(g.EntityType(id), g.Label(id), attrs...)
		for _, sa := range s.EntityType(g.EntityType(id)).SetAttrs {
			if vals := g.Set(sa, id); len(vals) > 0 {
				b.SetSet(sa, id, vals)
			}
		}
	}
	for lt := 0; lt < s.NumLinkTypes(); lt++ {
		for v := 0; v < g.NumEntities(); v++ {
			tos, ws := g.OutEdges(hin.LinkTypeID(lt), hin.EntityID(v))
			for j, to := range tos {
				if err := b.AddEdge(hin.LinkTypeID(lt), hin.EntityID(v), to, ws[j]); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestPackedIndexOverflowFallsBack pins lookups against an auxiliary
// graph holding an attribute value outside int32: it keys like any other
// value, and the in-range entities still match.
func TestPackedIndexOverflowFallsBack(t *testing.T) {
	s := tqq.TargetSchema()
	b := hin.NewBuilder(s)
	huge := b.AddEntity(0, "huge", int64(1)<<40, 1, 100, 2)
	small := b.AddEntity(0, "small", 1980, 1, 100, 2)
	aux, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	idx, err := buildProfileIndex(aux, TQQProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := hin.NewBuilder(s)
	tb.AddEntity(0, "t-small", 1980, 1, 50, 1)
	tb.AddEntity(0, "t-huge", int64(1)<<40, 1, 50, 1)
	tb.AddEntity(0, "t-absent", int64(1)<<41, 1, 50, 1)
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	for tv, want := range [][]hin.EntityID{{small}, {huge}, nil} {
		if got := idx.lookup(target, hin.EntityID(tv)); !slices.Equal(got, want) {
			t.Fatalf("target %d: lookup = %v, want %v", tv, got, want)
		}
	}
}

// TestPackedIndexOverflowingTargetValue pins the other direction: every
// auxiliary value fits int32, a target value does not - the lookup must
// report no candidates, since no in-range auxiliary value can equal it.
func TestPackedIndexOverflowingTargetValue(t *testing.T) {
	aux := buildAux(t)
	idx, err := buildProfileIndex(aux, TQQProfile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tb := hin.NewBuilder(tqq.TargetSchema())
	tb.AddEntity(0, "t", int64(1)<<40, 1, 50, 1)
	target, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.lookup(target, 0); got != nil {
		t.Fatalf("overflowing target value matched %v, want nil", got)
	}
}

// TestIndexBuildWorkerFingerprint pins the parallel build contract: at
// every worker count the index is identical - same buckets, same entity
// order within each bucket. The fixture spans several build shards so
// the merge really runs.
func TestIndexBuildWorkerFingerprint(t *testing.T) {
	s := tqq.TargetSchema()
	rng := randx.New(77)
	b := hin.NewBuilder(s)
	n := 2*indexShardRows + 123
	for i := 0; i < n; i++ {
		b.AddEntity(0, "", int64(1900+rng.Intn(80)), int64(rng.Intn(2)), int64(rng.Intn(5000)), int64(rng.Intn(4)))
	}
	aux, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []ProfileSpec{TQQProfile(), threeExactProfile()} {
		ref, err := buildProfileIndex(aux, spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, runtime.NumCPU(), 0} {
			got, err := buildProfileIndex(aux, spec, workers)
			if err != nil {
				t.Fatalf("spec %+v workers=%d: %v", spec, workers, err)
			}
			if len(got.buckets) != len(ref.buckets) {
				t.Fatalf("spec %+v workers=%d: %d buckets, want %d", spec, workers, len(got.buckets), len(ref.buckets))
			}
			for k, rb := range ref.buckets {
				if !slices.Equal(got.buckets[k], rb) {
					t.Fatalf("spec %+v workers=%d: bucket %x differs", spec, workers, k)
				}
			}
		}
	}
}

func benchmarkLookup(b *testing.B, spec ProfileSpec) {
	d, tgt := buildIndexFixture(b, 5000)
	idx, err := buildProfileIndex(d.Graph, spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	n := tgt.Graph.NumEntities()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.lookup(tgt.Graph, hin.EntityID(i%n))
	}
}

func BenchmarkProfileLookup(b *testing.B)           { benchmarkLookup(b, TQQProfile()) }
func BenchmarkProfileLookupThreeExact(b *testing.B) { benchmarkLookup(b, threeExactProfile()) }
