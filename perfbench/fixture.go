package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"github.com/hinpriv/dehin/internal/anonymize"
	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// Fixture shape: a t.qq-style HIN with one planted community that is
// released, anonymized, as the attack target.
const (
	fixtureUsers     = 500_000
	communitySize    = 1000
	communityDensity = 0.01
	// sweepDistance is the batch audit's risk-sweep and attack depth.
	sweepDistance = 2
)

// Daemon configuration: the instrumented set-up `make serve-smoke` runs,
// with the risk and attack depths spelled out. Everything else is at the
// hinriskd defaults, which signatureConfig and daemonAttackConfig mirror.
const (
	daemonMaxDistance    = 2
	daemonAttackDistance = 1
)

var daemonFlags = []string{
	"-maxdistance", strconv.Itoa(daemonMaxDistance),
	"-attackdistance", strconv.Itoa(daemonAttackDistance),
	"-flight", "64", "-flight-slow", "100ms", "-runtime-metrics", "500ms",
}

// allLinkTypes is every link type of the t.qq schema (follow, mention,
// retweet, comment).
func allLinkTypes() []hin.LinkTypeID {
	n := tqq.TargetSchema().NumLinkTypes()
	lts := make([]hin.LinkTypeID, n)
	for i := range lts {
		lts[i] = hin.LinkTypeID(i)
	}
	return lts
}

// genConfig is the generator configuration every workload derives from
// its seed.
func genConfig(seed uint64, users int) tqq.Config {
	cfg := tqq.DefaultConfig(users, seed)
	cfg.Communities = []tqq.CommunitySpec{{Size: communitySize, Density: communityDensity}}
	return cfg
}

// target is the released, anonymized community together with the ground
// truth: truth[i] is the fixture entity behind anonymized entity i.
type target struct {
	graph *hin.Graph
	truth []hin.EntityID
}

// releaseCommunity samples the planted community as a target graph and
// anonymizes it the way the paper's data release was (shuffled ids,
// random labels, remapped tag ids).
func releaseCommunity(d *tqq.Dataset, seed uint64) (*target, error) {
	tgt, err := tqq.CommunityTarget(d, 0, randx.New(seed^0x7a7a))
	if err != nil {
		return nil, fmt.Errorf("community target: %w", err)
	}
	anon, err := anonymize.RandomizeIDs(tgt.Graph, seed^0x5eed)
	if err != nil {
		return nil, fmt.Errorf("anonymize: %w", err)
	}
	truth := make([]hin.EntityID, len(anon.ToOrig))
	for i, t0 := range anon.ToOrig {
		truth[i] = tgt.Orig[t0]
	}
	return &target{graph: anon.Graph, truth: truth}, nil
}

// fileMB is a file's size in MiB.
func fileMB(path string) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / (1 << 20), nil
}

// signatureConfig is the daemon's risk configuration: every link type,
// number of tags as the distance-0 attribute (hinriskd -attrs 3).
func signatureConfig(maxDistance int) risk.SignatureConfig {
	return risk.SignatureConfig{
		MaxDistance: maxDistance,
		LinkTypes:   allLinkTypes(),
		EntityAttrs: []int{tqq.AttrNumTags},
	}
}

// daemonAttackConfig is the attack hinriskd builds per snapshot.
func daemonAttackConfig() dehin.Config {
	return dehin.Config{
		MaxDistance: daemonAttackDistance,
		LinkTypes:   allLinkTypes(),
		Profile:     dehin.TQQProfile(),
		UseIndex:    true,
	}
}

// dehinAttack builds the attack hinriskd serves /v1/dehin with.
func dehinAttack(g hin.GraphBackend) (*dehin.Attack, error) {
	return dehin.NewAttack(g, daemonAttackConfig())
}

// oracle holds the answers the daemon must give, computed by the
// benchmark itself from the same fixture file.
type oracle struct {
	users int
	edges int64
	// class[d][v] is v's signature class size at distance d.
	class [][]int32
	risk  []float64
}

// newOracle derives per-distance class sizes from one SignatureGrid
// sweep over the persisted fixture.
func newOracle(g hin.GraphBackend) (*oracle, error) {
	grid, err := risk.SignatureGrid(g, signatureConfig(daemonMaxDistance))
	if err != nil {
		return nil, fmt.Errorf("oracle grid: %w", err)
	}
	o := &oracle{users: g.NumEntities(), edges: g.NumEdgesTotal()}
	for _, sigs := range grid {
		counts := make(map[uint64]int32, len(sigs))
		for _, s := range sigs {
			counts[s]++
		}
		class := make([]int32, len(sigs))
		sum := 0.0
		for v, s := range sigs {
			class[v] = counts[s]
			sum += 1 / float64(counts[s])
		}
		o.class = append(o.class, class)
		o.risk = append(o.risk, sum/float64(len(sigs)))
	}
	return o, nil
}

// timed runs f and returns its wall time in seconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}
