package dehin

import (
	"runtime"
	"slices"
	"testing"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/tqq"
)

// TestDegSignatureWorkerInvariance pins the parallel signature build: at
// every worker count the degree vectors are identical to the serial
// build and to the per-entity degrees. The graph spans several build
// shards, so workers really write disjoint ranges side by side.
func TestDegSignatureWorkerInvariance(t *testing.T) {
	s := tqq.TargetSchema()
	rng := randx.New(91)
	b := hin.NewBuilder(s)
	n := 2*degShardRows + 77
	for i := 0; i < n; i++ {
		b.AddEntity(0, "", 1980, 1, 10, 1)
	}
	for lt := 0; lt < s.NumLinkTypes(); lt++ {
		for e := 0; e < 3*n; e++ {
			from, to := hin.EntityID(rng.Intn(n)), hin.EntityID(rng.Intn(n))
			if from == to {
				continue
			}
			if err := b.AddEdge(hin.LinkTypeID(lt), from, to, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lts := []hin.LinkTypeID{0, hin.LinkTypeID(s.NumLinkTypes() - 1)}
	ref := buildDegSignature(g, lts, true, 1)
	for v := 0; v < n; v++ {
		for k, lt := range lts {
			if int(ref.out[v*len(lts)+k]) != g.OutDegree(lt, hin.EntityID(v)) ||
				int(ref.in[v*len(lts)+k]) != g.InDegree(lt, hin.EntityID(v)) {
				t.Fatalf("entity %d link type %d: signature disagrees with the graph", v, lt)
			}
		}
	}
	for _, workers := range []int{2, 3, runtime.NumCPU(), 0} {
		got := buildDegSignature(g, lts, true, workers)
		if !slices.Equal(got.out, ref.out) || !slices.Equal(got.in, ref.in) {
			t.Fatalf("workers=%d: signature differs from the serial build", workers)
		}
	}
}
