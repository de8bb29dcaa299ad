package dehin

import (
	"fmt"
	"sort"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/par"
)

// profileIndex buckets auxiliary entities by their exact-match attribute
// tuple and sorts each bucket descending by the primary growable attribute,
// so a candidate lookup scans only entities that can still satisfy
// "auxiliary >= target" on that attribute. With the t.qq profile this is a
// (yob, gender) index ordered by tweet count - it turns Algorithm 1's scan
// over millions of auxiliary users into a few hundred comparisons.
//
// The bucket key is one 64-bit mix of the whole tuple (see exactKey), so a
// lookup is a single integer map probe with no allocation whatever the
// tuple's width or value range. Distinct tuples may share a key: a bucket
// is a superset of the exact matches, and profileCandidates applies the
// entity matcher - which Config.UseIndex requires to imply exact equality -
// to every member.
type profileIndex struct {
	aux     hin.GraphBackend
	spec    ProfileSpec
	primary int // attr index used for ordering, -1 if none
	buckets map[uint64][]hin.EntityID
}

// indexShardRows is how many auxiliary entities one index-build task
// buckets; boundaries depend only on the entity count, never the worker
// count.
const indexShardRows = 1 << 14

// buildProfileIndex builds the index on a pool of workers (0 =
// GOMAXPROCS). The index is identical at any count: each shard buckets a
// fixed entity range into a private map (recording keys in
// first-occurrence order, so no merge step ranges over a map), and shards
// merge in shard order - every bucket lists its entities ascending,
// exactly as a serial scan appends them, which also makes the subsequent
// unstable per-bucket sort deterministic.
func buildProfileIndex(aux hin.GraphBackend, spec ProfileSpec, workers int) (*profileIndex, error) {
	if err := validateProfileSpec(aux.Schema(), spec); err != nil {
		return nil, err
	}
	idx := &profileIndex{
		aux:     aux,
		spec:    spec,
		primary: -1,
		buckets: make(map[uint64][]hin.EntityID),
	}
	if len(spec.GrowAttrs) > 0 {
		idx.primary = spec.GrowAttrs[0]
	}
	n := aux.NumEntities()
	type shard struct {
		keys []uint64
		m    map[uint64][]hin.EntityID
	}
	ss := make([]shard, par.Shards(n, indexShardRows))
	par.Run(workers, len(ss), func(_, s int) {
		lo, hi := par.Bounds(s, n, indexShardRows)
		m := make(map[uint64][]hin.EntityID)
		var keys []uint64
		for v := lo; v < hi; v++ {
			key := exactKey(aux, hin.EntityID(v), spec.ExactAttrs)
			b, seen := m[key]
			if !seen {
				keys = append(keys, key)
			}
			m[key] = append(b, hin.EntityID(v))
		}
		ss[s] = shard{keys: keys, m: m}
	})
	var keys []uint64
	for s := range ss {
		for _, k := range ss[s].keys {
			b, seen := idx.buckets[k]
			if !seen {
				keys = append(keys, k)
			}
			idx.buckets[k] = append(b, ss[s].m[k]...)
		}
	}
	if idx.primary >= 0 {
		par.Run(workers, len(keys), func(_, k int) {
			b := idx.buckets[keys[k]]
			sort.Slice(b, func(i, j int) bool {
				return aux.Attr(b[i], idx.primary) > aux.Attr(b[j], idx.primary)
			})
		})
	}
	return idx, nil
}

// validateProfileSpec checks every scalar attribute index the spec names
// against every entity type of the schema, so misconfigured indexes fail
// at NewAttack/NewIndex time instead of producing silently empty candidate
// sets (or out-of-range attribute reads) per query.
func validateProfileSpec(s *hin.Schema, spec ProfileSpec) error {
	check := func(role string, attrs []int) error {
		for _, ai := range attrs {
			for t := 0; t < s.NumEntityTypes(); t++ {
				et := s.EntityType(hin.EntityTypeID(t))
				if ai < 0 || ai >= len(et.Attrs) {
					return fmt.Errorf("dehin: profile %s attr %d out of range for entity type %q (%d attrs)",
						role, ai, et.Name, len(et.Attrs))
				}
			}
		}
		return nil
	}
	if err := check("exact", spec.ExactAttrs); err != nil {
		return err
	}
	return check("grow", spec.GrowAttrs)
}

// exactKey mixes the exact-match attribute tuple of v into one 64-bit
// key: each value is folded in and the state is scrambled with the
// splitmix64 finalizer, so tuples of any width and any int64 values key
// deterministically. An empty ExactAttrs list maps every entity to one
// bucket.
//
//hin:hot
func exactKey(g hin.GraphBackend, v hin.EntityID, exact []int) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, ai := range exact {
		h ^= uint64(g.Attr(v, ai))
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// lookup returns the auxiliary entities in the target's exact-tuple
// bucket whose primary growable attribute is >= the target's. The caller
// still applies the full entity matcher to each.
func (idx *profileIndex) lookup(target *hin.Graph, tv hin.EntityID) []hin.EntityID {
	bucket := idx.buckets[exactKey(target, tv, idx.spec.ExactAttrs)]
	if idx.primary < 0 {
		return bucket
	}
	want := target.Attr(tv, idx.primary)
	// Bucket is sorted descending; entries [0, i) have attr >= want.
	i := sort.Search(len(bucket), func(i int) bool {
		return idx.aux.Attr(bucket[i], idx.primary) < want
	})
	return bucket[:i]
}
