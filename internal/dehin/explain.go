package dehin

import (
	"fmt"
	"strings"

	"github.com/hinpriv/dehin/internal/bipartite"
	"github.com/hinpriv/dehin/internal/hin"
)

// NeighborPairing records one matched neighbor slot: the target's neighbor
// was explained by the auxiliary candidate's neighbor via the same link
// type.
type NeighborPairing struct {
	LinkType       hin.LinkTypeID
	TargetNeighbor hin.EntityID
	TargetStrength int32
	AuxNeighbor    hin.EntityID
	AuxStrength    int32
}

// MatchExplanation is the evidence DeHIN has for (target entity, auxiliary
// candidate): a concrete witness assignment of target neighbors to
// distinct auxiliary neighbors, per link type. It is what an analyst
// reviews before acting on a de-anonymization claim (the Section 1.1
// story: "Ada has the same social interactions with the other users of
// the same gender and age...").
type MatchExplanation struct {
	Target, Candidate hin.EntityID
	// Complete reports whether every target neighbor was matched
	// (i.e. the boolean Algorithm 2 would accept).
	Complete bool
	// Pairings is the witness assignment; unmatched target neighbors
	// appear in Unmatched.
	Pairings  []NeighborPairing
	Unmatched []NeighborPairing // AuxNeighbor fields zeroed
}

// ExplainMatch reconstructs the matching evidence for one
// (target, candidate) pair at the attack's configured distance. The
// candidate need not have been accepted; for a rejected candidate the
// explanation shows exactly which neighbor slots could not be filled.
func (a *Attack) ExplainMatch(target *hin.Graph, tv, av hin.EntityID) *MatchExplanation {
	ex := &MatchExplanation{Target: tv, Candidate: av, Complete: true}
	s := a.getScratch()
	defer a.putScratch(s)
	a.ensureMemo(s, target)
	// The frame above the recursion's deepest one, as for a top-level
	// directionMatch; at distance 0 there is no recursion, so frame 1 is
	// free too.
	f := s.frame(max(1, a.cfg.MaxDistance))
	for _, lt := range a.cfg.LinkTypes {
		tns, tws := target.OutEdges(lt, tv)
		if len(tns) == 0 {
			continue
		}
		ans, aws := a.auxRow(f, lt, av, false)
		a.buildCompat(s, f, target, a.cfg.MaxDistance, tns, tws, ans, aws, 0)
		matchL, _, _ := bipartite.HopcroftKarp(f.graph(len(ans)))
		for i, tb := range tns {
			p := NeighborPairing{LinkType: lt, TargetNeighbor: tb, TargetStrength: tws[i]}
			if j := matchL[i]; j != bipartite.NoMatch {
				p.AuxNeighbor, p.AuxStrength = ans[j], aws[j]
				ex.Pairings = append(ex.Pairings, p)
				continue
			}
			ex.Complete = false
			ex.Unmatched = append(ex.Unmatched, p)
		}
	}
	return ex
}

// Render writes the explanation with human-readable labels from the two
// graphs.
func (ex *MatchExplanation) Render(target *hin.Graph, aux hin.GraphBackend) string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %q vs candidate %q: complete=%v, %d matched, %d unmatched\n",
		target.Label(ex.Target), aux.Label(ex.Candidate), ex.Complete,
		len(ex.Pairings), len(ex.Unmatched))
	name := func(lt hin.LinkTypeID) string { return aux.Schema().LinkType(lt).Name }
	for _, p := range ex.Pairings {
		fmt.Fprintf(&b, "  %s(%d): %q  <->  %s(%d): %q\n",
			name(p.LinkType), p.TargetStrength, target.Label(p.TargetNeighbor),
			name(p.LinkType), p.AuxStrength, aux.Label(p.AuxNeighbor))
	}
	for _, p := range ex.Unmatched {
		fmt.Fprintf(&b, "  %s(%d): %q  <->  UNMATCHED\n",
			name(p.LinkType), p.TargetStrength, target.Label(p.TargetNeighbor))
	}
	return b.String()
}
