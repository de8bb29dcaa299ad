package tqq

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
)

// Target is a released target graph: the induced subgraph on a user sample
// together with the ground-truth map back into the dataset it was sampled
// from. Orig[i] is the dataset entity behind target entity i; experiments
// use it only to score attacks, never inside them.
type Target struct {
	Graph *hin.Graph
	Orig  []hin.EntityID
}

// SampleTarget returns the target graph induced by the given dataset users,
// mirroring the paper's sampling ("vertices are randomly sampled and all
// the edges among them are preserved").
func SampleTarget(d *Dataset, users []hin.EntityID) (*Target, error) {
	g, orig, err := d.Graph.Induced(users)
	if err != nil {
		return nil, err
	}
	return &Target{Graph: g, Orig: orig}, nil
}

// RandomSample draws size users uniformly without replacement and returns
// the induced target graph.
func RandomSample(d *Dataset, size int, rng *randx.RNG) (*Target, error) {
	n := d.Graph.NumEntities()
	if size > n {
		return nil, fmt.Errorf("tqq: sample size %d exceeds dataset size %d", size, n)
	}
	idx := rng.SampleWithoutReplacement(n, size)
	users := make([]hin.EntityID, size)
	for i, v := range idx {
		users[i] = hin.EntityID(v)
	}
	return SampleTarget(d, users)
}

// CommunityTarget returns the target graph induced by planted community i,
// with members presented in a random order so target entity ids carry no
// information about dataset ids.
func CommunityTarget(d *Dataset, i int, rng *randx.RNG) (*Target, error) {
	if i < 0 || i >= len(d.Communities) {
		return nil, fmt.Errorf("tqq: no community %d (have %d)", i, len(d.Communities))
	}
	members := append([]hin.EntityID(nil), d.Communities[i]...)
	rng.Shuffle(len(members), func(a, b int) {
		members[a], members[b] = members[b], members[a]
	})
	return SampleTarget(d, members)
}
