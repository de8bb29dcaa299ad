package anonymize

import (
	"fmt"

	"github.com/hinpriv/dehin/internal/hin"
)

// Utility quantifies the information loss an anonymization inflicted,
// comparing the released graph against the original. The paper's Section
// 6.3 trades exactly this against privacy: CGA costs fake edges with a
// constant weight, VW-CGA additionally destroys the weight distribution.
type Utility struct {
	// EdgesAdded and EdgesRemoved count edge-set changes across all link
	// types.
	EdgesAdded, EdgesRemoved int64
	// WeightL1 sums |w_anon - w_orig| over edges present in both graphs.
	WeightL1 int64
	// FakeWeightMass sums the strengths of added edges (the spurious
	// signal injected into short-circuited features).
	FakeWeightMass int64
}

// EdgeEditDistance is the total number of edge insertions plus deletions.
func (u Utility) EdgeEditDistance() int64 { return u.EdgesAdded + u.EdgesRemoved }

// MeasureUtility compares anonymized against original. Both graphs must
// have the same entity count and schema link-type count, with entity i
// denoting the same individual in both (i.e. measure before any ID
// permutation, or after composing it away).
func MeasureUtility(original, anonymized *hin.Graph) (Utility, error) {
	if original.NumEntities() != anonymized.NumEntities() {
		return Utility{}, fmt.Errorf("anonymize: utility comparison across sizes %d vs %d",
			original.NumEntities(), anonymized.NumEntities())
	}
	if original.Schema().NumLinkTypes() != anonymized.Schema().NumLinkTypes() {
		return Utility{}, fmt.Errorf("anonymize: utility comparison across schemas")
	}
	var u Utility
	n := original.NumEntities()
	for lt := 0; lt < original.Schema().NumLinkTypes(); lt++ {
		ltid := hin.LinkTypeID(lt)
		for v := 0; v < n; v++ {
			ot, ow := original.OutEdges(ltid, hin.EntityID(v))
			at, aw := anonymized.OutEdges(ltid, hin.EntityID(v))
			// Both adjacency rows are sorted; merge-walk them.
			i, j := 0, 0
			for i < len(ot) || j < len(at) {
				switch {
				case j >= len(at) || (i < len(ot) && ot[i] < at[j]):
					u.EdgesRemoved++
					i++
				case i >= len(ot) || at[j] < ot[i]:
					u.EdgesAdded++
					u.FakeWeightMass += int64(aw[j])
					j++
				default:
					d := int64(aw[j]) - int64(ow[i])
					if d < 0 {
						d = -d
					}
					u.WeightL1 += d
					i++
					j++
				}
			}
		}
	}
	return u, nil
}
