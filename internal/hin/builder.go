package hin

import (
	"fmt"
	"slices"

	"github.com/hinpriv/dehin/internal/par"
)

// Builder accumulates entities and edges and freezes them into an immutable
// Graph. A Builder is single-use: after Build it must not be reused.
//
// Entity-shape mistakes (unknown type, wrong attribute count) are
// programmer errors and panic; edge mistakes (bad endpoints, violated
// self-loop rule) are data-dependent and returned as errors.
type Builder struct {
	schema *Schema
	etype  []EntityTypeID
	labels []string

	attrOff  []int64
	attrData []int64

	sets map[string][][]int32 // per set name, indexed by EntityID

	ltFrom []EntityTypeID // per link type: resolved endpoint types
	ltTo   []EntityTypeID
	eFrom  [][]EntityID // per link type
	eTo    [][]EntityID
	eW     [][]int32

	built bool
}

// NewBuilder returns a Builder for the given schema.
func NewBuilder(schema *Schema) *Builder {
	nLT := schema.NumLinkTypes()
	b := &Builder{
		schema:  schema,
		attrOff: []int64{0},
		sets:    make(map[string][][]int32),
		ltFrom:  make([]EntityTypeID, nLT),
		ltTo:    make([]EntityTypeID, nLT),
		eFrom:   make([][]EntityID, nLT),
		eTo:     make([][]EntityID, nLT),
		eW:      make([][]int32, nLT),
	}
	for lt := range nLT {
		decl := schema.LinkType(LinkTypeID(lt))
		// NewSchema guarantees both endpoints name declared types.
		b.ltFrom[lt], _ = schema.EntityTypeID(decl.From)
		b.ltTo[lt], _ = schema.EntityTypeID(decl.To)
	}
	return b
}

// NumEntities returns how many entities have been added so far.
func (b *Builder) NumEntities() int { return len(b.etype) }

// AddEntity appends an entity of type t with the given label and scalar
// attribute values (positional, matching the type declaration) and returns
// its id. It panics if t is out of range or the attribute count is wrong.
func (b *Builder) AddEntity(t EntityTypeID, label string, attrs ...int64) EntityID {
	if int(t) >= b.schema.NumEntityTypes() {
		panic(fmt.Sprintf("hin: AddEntity with unknown entity type %d", t))
	}
	decl := b.schema.EntityType(t)
	if len(attrs) != len(decl.Attrs) {
		panic(fmt.Sprintf("hin: entity type %q takes %d attrs, got %d",
			decl.Name, len(decl.Attrs), len(attrs)))
	}
	id := EntityID(len(b.etype))
	b.etype = append(b.etype, t)
	b.labels = append(b.labels, label)
	b.attrData = append(b.attrData, attrs...)
	b.attrOff = append(b.attrOff, int64(len(b.attrData)))
	return id
}

// SetSet assigns the named multi-valued attribute of entity v. The entity's
// type must declare the set attribute. Values are copied and sorted; a nil
// or empty slice clears the set.
func (b *Builder) SetSet(name string, v EntityID, vals []int32) {
	if v < 0 || int(v) >= len(b.etype) {
		panic(fmt.Sprintf("hin: SetSet on unknown entity %d", v))
	}
	if b.schema.SetAttrIndex(b.etype[v], name) < 0 {
		panic(fmt.Sprintf("hin: entity type %q has no set attribute %q",
			b.schema.EntityType(b.etype[v]).Name, name))
	}
	col := b.sets[name]
	if int(v) >= len(col) {
		// Slots past len(col) were never written, so they are all nil.
		col = slices.Grow(col, len(b.etype)-len(col))[:len(b.etype)]
		b.sets[name] = col
	}
	if len(vals) == 0 {
		col[v] = nil
		return
	}
	cp := slices.Clone(vals)
	slices.Sort(cp)
	col[v] = cp
}

// AddEdge appends a directed edge of link type lt from -> to with strength
// w. Duplicate (lt, from, to) edges are merged at Build time by summing
// strengths. Unweighted link types require w == 1.
func (b *Builder) AddEdge(lt LinkTypeID, from, to EntityID, w int32) error {
	if int(lt) >= b.schema.NumLinkTypes() {
		return fmt.Errorf("hin: unknown link type %d", lt)
	}
	if from < 0 || int(from) >= len(b.etype) {
		return fmt.Errorf("hin: edge source %d out of range", from)
	}
	if to < 0 || int(to) >= len(b.etype) {
		return fmt.Errorf("hin: edge destination %d out of range", to)
	}
	decl := b.schema.LinkType(lt)
	if ft := b.etype[from]; ft != b.ltFrom[lt] {
		return fmt.Errorf("hin: link %q requires source type %q, entity %d has %q",
			decl.Name, decl.From, from, b.schema.EntityType(ft).Name)
	}
	if tt := b.etype[to]; tt != b.ltTo[lt] {
		return fmt.Errorf("hin: link %q requires destination type %q, entity %d has %q",
			decl.Name, decl.To, to, b.schema.EntityType(tt).Name)
	}
	if from == to && !decl.AllowSelf {
		return fmt.Errorf("hin: link %q forbids self-loops (entity %d)", decl.Name, from)
	}
	if w <= 0 {
		return fmt.Errorf("hin: edge strength must be positive, got %d", w)
	}
	if !decl.Weighted && w != 1 {
		return fmt.Errorf("hin: unweighted link %q requires strength 1, got %d", decl.Name, w)
	}
	b.eFrom[lt] = append(b.eFrom[lt], from)
	b.eTo[lt] = append(b.eTo[lt], to)
	b.eW[lt] = append(b.eW[lt], w)
	return nil
}

// GrowEdges reserves room for n more edges of link type lt, so a caller
// that knows its edge counts up front fills each column without
// regrowing it. It never changes the built Graph.
func (b *Builder) GrowEdges(lt LinkTypeID, n int) {
	b.eFrom[lt] = slices.Grow(b.eFrom[lt], n)
	b.eTo[lt] = slices.Grow(b.eTo[lt], n)
	b.eW[lt] = slices.Grow(b.eW[lt], n)
}

// Build freezes the accumulated entities and edges into a Graph. Duplicate
// edges of the same link type are merged by summing strengths (unweighted
// duplicates collapse to a single strength-1 edge). The result depends
// only on the multiset of edges added per link type, never on the order
// they were added in.
func (b *Builder) Build() (*Graph, error) {
	if b.built {
		return nil, fmt.Errorf("hin: Builder already built")
	}
	b.built = true
	n := len(b.etype)
	nLT := b.schema.NumLinkTypes()
	g := &Graph{
		schema:   b.schema,
		n:        n,
		etype:    b.etype,
		label:    b.labels,
		attrOff:  b.attrOff,
		attrData: b.attrData,
		sets:     make(map[string]*setCol, len(b.sets)),
		fwd:      make([]csr, nLT),
		rev:      make([]csr, nLT),
	}
	for name, vals := range b.sets {
		col := &setCol{off: make([]int64, n+1)}
		var total int64
		for v, s := range vals {
			total += int64(len(s))
			col.off[v+1] = total
		}
		for v := len(vals); v < n; v++ {
			col.off[v+1] = total
		}
		col.data = make([]int32, 0, total)
		for _, s := range vals {
			//hin:allow determinism -- each column is rebuilt per set name in ascending entity order; the order b.sets is visited never reaches col.data
			col.data = append(col.data, s...)
		}
		g.sets[name] = col
	}
	// Link types are independent: each task reads and releases only its
	// own edge columns and writes only its own fwd/rev slot, and the first
	// error is chosen by link type, so the result is the serial one.
	var edges int
	for lt := range b.eFrom {
		edges += len(b.eFrom[lt])
	}
	workers := 1
	if edges >= parallelBuildEdges {
		workers = 0
	}
	var firstErr par.FirstErr
	par.Run(workers, nLT, func(_, lt int) {
		collapse := !b.schema.LinkType(LinkTypeID(lt)).Weighted
		fwd, err := buildCSR(n, b.eFrom[lt], b.eTo[lt], b.eW[lt], collapse)
		b.eFrom[lt], b.eTo[lt], b.eW[lt] = nil, nil, nil
		if err != nil {
			firstErr.Set(lt, err)
			return
		}
		g.fwd[lt] = fwd
		g.rev[lt] = transpose(n, fwd)
	})
	if err := firstErr.Err(); err != nil {
		return nil, err
	}
	return g, nil
}

// parallelBuildEdges is the total edge count from which Build assembles
// link types on a worker pool; below it (query snippets, small examples)
// the pool's goroutines cost more than they save.
const parallelBuildEdges = 1 << 16

// insertionSortMax is the longest row buildCSR sorts in place by
// insertion; longer rows are packed and sorted with slices.Sort.
const insertionSortMax = 32

// buildCSR assembles a CSR adjacency from parallel edge slices, sorting
// each row and merging duplicate destinations by summing weights. If
// collapse is true, merged weights are clamped to 1 (unweighted links).
// Because duplicates merge by summing, the order of equal destinations
// within a row never matters, so rows need no stable sort.
func buildCSR(n int, from, to []EntityID, w []int32, collapse bool) (csr, error) {
	off := make([]int64, n+1)
	for _, f := range from {
		off[f+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	tos := make([]EntityID, len(to))
	ws := make([]int32, len(w))
	next := make([]int64, n)
	copy(next, off[:n])
	for i, f := range from {
		p := next[f]
		next[f]++
		tos[p] = to[i]
		ws[p] = w[i]
	}
	// Sort each row by destination and merge duplicates in place, then
	// compact. off[v] is overwritten with the compacted start of row v
	// only after row v has been read.
	var packed []uint64
	out := 0
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		row, roww := tos[lo:hi], ws[lo:hi]
		if len(row) <= insertionSortMax {
			insertionSortRow(row, roww)
		} else {
			packed = sortRowPacked(row, roww, packed[:0])
		}
		off[v] = int64(out)
		for i := 0; i < len(row); {
			j := i + 1
			sum := int64(roww[i])
			for j < len(row) && row[j] == row[i] {
				sum += int64(roww[j])
				j++
			}
			if collapse {
				sum = 1
			}
			if sum > int64(maxInt32) {
				return csr{}, fmt.Errorf("hin: merged edge strength overflows int32 at entity %d", v)
			}
			tos[out] = row[i]
			ws[out] = int32(sum)
			out++
			i = j
		}
	}
	off[n] = int64(out)
	return csr{off: off, to: tos[:out], w: ws[:out]}, nil
}

// insertionSortRow sorts a short row by destination, moving weights along.
func insertionSortRow(to []EntityID, w []int32) {
	for i := 1; i < len(to); i++ {
		t, x := to[i], w[i]
		j := i
		for ; j > 0 && to[j-1] > t; j-- {
			to[j], w[j] = to[j-1], w[j-1]
		}
		to[j], w[j] = t, x
	}
}

// sortRowPacked sorts a long row by destination: each (to, w) pair is
// packed into one uint64 with the destination in the high half (ids are
// non-negative), sorted, and unpacked. buf is reused scratch; the grown
// buffer is returned for the next row.
func sortRowPacked(to []EntityID, w []int32, buf []uint64) []uint64 {
	for i := range to {
		buf = append(buf, uint64(to[i])<<32|uint64(uint32(w[i])))
	}
	slices.Sort(buf)
	for i, p := range buf {
		to[i], w[i] = EntityID(p>>32), int32(uint32(p))
	}
	return buf
}

// transpose derives the reverse adjacency of a merged forward CSR with one
// counting pass. Sources are visited in ascending order, so every reverse
// row comes out sorted by source, and its weights are the already-merged
// forward ones: (u, v) is unique in fwd, so it is unique in rev too.
func transpose(n int, fwd csr) csr {
	off := make([]int64, n+1)
	for _, t := range fwd.to {
		off[t+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	next := make([]int64, n)
	copy(next, off[:n])
	from := make([]EntityID, len(fwd.to))
	ws := make([]int32, len(fwd.w))
	for u := 0; u < n; u++ {
		for e := fwd.off[u]; e < fwd.off[u+1]; e++ {
			t := fwd.to[e]
			p := next[t]
			next[t]++
			from[p] = EntityID(u)
			ws[p] = fwd.w[e]
		}
	}
	return csr{off: off, to: from, w: ws}
}

const maxInt32 = 1<<31 - 1
