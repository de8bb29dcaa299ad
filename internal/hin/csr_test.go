package hin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hinpriv/dehin/internal/randx"
)

// randomRichGraph builds a labeled, attributed, set-carrying graph with
// duplicate edges (exercising merge) from a seeded RNG.
func randomRichGraph(t *testing.T, seed uint64) *Graph {
	t.Helper()
	s := userSchema(t)
	rng := randx.New(seed)
	n := rng.IntRange(2, 60)
	b := NewBuilder(s)
	for i := 0; i < n; i++ {
		b.AddEntity(0, fmt.Sprintf("u%04d", i), int64(1900+rng.Intn(100)), int64(rng.Intn(3)))
		if rng.Intn(3) > 0 {
			tags := make([]int32, rng.IntRange(1, 5))
			for j := range tags {
				tags[j] = int32(rng.Intn(20))
			}
			b.SetSet("tags", EntityID(i), tags)
		}
	}
	follow, mention := s.MustLinkTypeID("follow"), s.MustLinkTypeID("mention")
	for i := 0; i < 6*n; i++ {
		f := EntityID(rng.Intn(n))
		to := EntityID(rng.Intn(n))
		if f == to {
			continue
		}
		if rng.Intn(2) == 0 {
			if err := b.AddEdge(follow, f, to, 1); err != nil {
				t.Fatal(err)
			}
		} else if err := b.AddEdge(mention, f, to, int32(rng.IntRange(1, 9))); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertBackendsEqual checks every GraphBackend accessor of got agrees
// with the in-memory graph want.
func assertBackendsEqual(t *testing.T, want *Graph, got GraphBackend) {
	t.Helper()
	if want.Schema().String() != got.Schema().String() {
		t.Fatalf("schema mismatch:\n%s\nvs\n%s", want.Schema(), got.Schema())
	}
	n := want.NumEntities()
	if got.NumEntities() != n {
		t.Fatalf("NumEntities = %d, want %d", got.NumEntities(), n)
	}
	if w, g := want.NumEdgesTotal(), got.NumEdgesTotal(); w != g {
		t.Fatalf("NumEdgesTotal = %d, want %d", g, w)
	}
	names := sortedSetNames(want.sets)
	c, compact := got.(*CSRGraph)
	if compact {
		if gn := sortedSetNames(c.sets); fmt.Sprint(gn) != fmt.Sprint(names) {
			t.Fatalf("set names = %v, want %v", gn, names)
		}
	}
	for v := 0; v < n; v++ {
		id := EntityID(v)
		if want.EntityType(id) != got.EntityType(id) {
			t.Fatalf("EntityType(%d) = %d, want %d", v, got.EntityType(id), want.EntityType(id))
		}
		if want.Label(id) != got.Label(id) {
			t.Fatalf("Label(%d) = %q, want %q", v, got.Label(id), want.Label(id))
		}
		if compact && want.NumAttrs(id) != c.NumAttrs(id) {
			t.Fatalf("NumAttrs(%d) = %d, want %d", v, c.NumAttrs(id), want.NumAttrs(id))
		}
		for i := 0; i < want.NumAttrs(id); i++ {
			if want.Attr(id, i) != got.Attr(id, i) {
				t.Fatalf("Attr(%d,%d) = %d, want %d", v, i, got.Attr(id, i), want.Attr(id, i))
			}
		}
		for _, name := range names {
			if fmt.Sprint(want.Set(name, id)) != fmt.Sprint(got.Set(name, id)) {
				t.Fatalf("Set(%q,%d) = %v, want %v", name, v, got.Set(name, id), want.Set(name, id))
			}
		}
	}
	gbuf := &EdgeBuf{}
	for lt := 0; lt < want.Schema().NumLinkTypes(); lt++ {
		ltid := LinkTypeID(lt)
		var edges int64
		for v := 0; v < n; v++ {
			id := EntityID(v)
			if want.OutDegree(ltid, id) != got.OutDegree(ltid, id) {
				t.Fatalf("OutDegree(%d,%d) = %d, want %d", lt, v, got.OutDegree(ltid, id), want.OutDegree(ltid, id))
			}
			if want.InDegree(ltid, id) != got.InDegree(ltid, id) {
				t.Fatalf("InDegree(%d,%d) mismatch", lt, v)
			}
			edges += int64(got.OutDegree(ltid, id))
			wt, ww := want.OutEdges(ltid, id)
			gt, gw := got.OutEdgesBuf(gbuf, ltid, id)
			if fmt.Sprint(wt) != fmt.Sprint(gt) || fmt.Sprint(ww) != fmt.Sprint(gw) {
				t.Fatalf("OutEdgesBuf(%d,%d): (%v,%v) want (%v,%v)", lt, v, gt, gw, wt, ww)
			}
			wt, ww = want.InEdges(ltid, id)
			gt, gw = got.InEdgesBuf(gbuf, ltid, id)
			if fmt.Sprint(wt) != fmt.Sprint(gt) || fmt.Sprint(ww) != fmt.Sprint(gw) {
				t.Fatalf("InEdgesBuf(%d,%d): (%v,%v) want (%v,%v)", lt, v, gt, gw, wt, ww)
			}
		}
		if w := want.NumEdges(ltid); edges != w {
			t.Fatalf("link type %d: %d edges by out-degree, want %d", lt, edges, w)
		}
	}
}

// graphOf rebuilds an in-memory Graph from a compact one through the
// public Builder, so it can be written back out.
func graphOf(t *testing.T, g *CSRGraph) *Graph {
	t.Helper()
	s := g.Schema()
	b := NewBuilder(s)
	for v := 0; v < g.NumEntities(); v++ {
		id := EntityID(v)
		attrs := make([]int64, g.NumAttrs(id))
		for i := range attrs {
			attrs[i] = g.Attr(id, i)
		}
		b.AddEntity(g.EntityType(id), g.Label(id), attrs...)
		for _, sa := range s.EntityType(g.EntityType(id)).SetAttrs {
			if vals := g.Set(sa, id); len(vals) > 0 {
				b.SetSet(sa, id, vals)
			}
		}
	}
	buf := &EdgeBuf{}
	for lt := 0; lt < s.NumLinkTypes(); lt++ {
		for v := 0; v < g.NumEntities(); v++ {
			tos, ws := g.OutEdgesBuf(buf, LinkTypeID(lt), EntityID(v))
			for j, to := range tos {
				if err := b.AddEdge(LinkTypeID(lt), EntityID(v), to, ws[j]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFromGraphEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomRichGraph(t, seed)
		assertBackendsEqual(t, g, FromGraph(g))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRFileRoundTrip(t *testing.T) {
	g := randomRichGraph(t, 7)
	path := filepath.Join(t.TempDir(), "g.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertBackendsEqual(t, g, cf.Graph())
	if err := cf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cf.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// A graph read back from the compact backend must round-trip too: every
// accessor of the opened file (labels decode from the packed blob) is
// enough to rebuild a graph that persists to the same bytes.
func TestCSRFileRoundTripFromCSR(t *testing.T) {
	g := randomRichGraph(t, 11)
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.hincsr"), filepath.Join(dir, "b.hincsr")
	if err := WriteCSRFile(first, g); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(first)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	rebuilt := graphOf(t, cf.Graph())
	assertBackendsEqual(t, g, cf.Graph())
	if err := WriteCSRFile(second, rebuilt); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("file rebuilt from the compact backend differs from the original")
	}
}

func TestEmptyGraphCSRFile(t *testing.T) {
	s := userSchema(t)
	g, err := NewBuilder(s).Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	assertBackendsEqual(t, g, cf.Graph())
}

// TestWriteCSRFileReplacesAtomically rewrites a path that is open and
// mapped, as a daemon's graph file is before a reload. The old mapping
// must keep serving the old graph, a reopen must see the new one, and no
// temporary file may be left beside the target. Panic-on-fault turns a
// read past a truncated mapping into a test failure instead of a SIGBUS.
func TestWriteCSRFileReplacesAtomically(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g1, g2 := randomRichGraph(t, 31), randomRichGraph(t, 37)
	dir := t.TempDir()
	path := filepath.Join(dir, "g.hincsr")
	if err := WriteCSRFile(path, g1); err != nil {
		t.Fatal(err)
	}
	old, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := WriteCSRFile(path, g2); err != nil {
		t.Fatal(err)
	}
	assertBackendsEqual(t, g1, old.Graph())
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	assertBackendsEqual(t, g2, cf.Graph())
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after rewrite, want 1", len(ents))
	}
}

// corruptCSR copies the valid fixture, applies mutate, optionally repairs
// the header checksum/size, and returns the expected-to-fail path.
func corruptCSR(t *testing.T, src string, repair bool, mutate func([]byte) []byte) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	data = mutate(append([]byte(nil), data...))
	if repair {
		binary.LittleEndian.PutUint64(data[16:24], uint64(len(data)))
		binary.LittleEndian.PutUint32(data[12:16], crc32.Checksum(data[csrHeaderSize:], castagnoli))
	}
	dst := filepath.Join(t.TempDir(), "corrupt.hincsr")
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestOpenCSRFileFailureModes(t *testing.T) {
	g := randomRichGraph(t, 5)
	valid := filepath.Join(t.TempDir(), "valid.hincsr")
	if err := WriteCSRFile(valid, g); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		repair bool
		want   string
		mutate func([]byte) []byte
	}{
		{"short file", false, "truncated", func(d []byte) []byte { return d[:10] }},
		{"bad magic", false, "bad magic", func(d []byte) []byte { copy(d, "NOTACSR!"); return d }},
		{"version skew", true, "unsupported format version", func(d []byte) []byte {
			binary.LittleEndian.PutUint32(d[8:12], 99)
			return d
		}},
		{"size mismatch", false, "header records", func(d []byte) []byte { return d[:len(d)-5] }},
		{"checksum mismatch", false, "checksum mismatch", func(d []byte) []byte {
			d[len(d)-1] ^= 0xff
			return d
		}},
		{"trailing bytes", true, "trailing bytes", func(d []byte) []byte { return append(d, 0) }},
		{"schema garbage", true, "schema section", func(d []byte) []byte {
			d[csrHeaderSize+8] = '!'
			return d
		}},
		{"adjacency corruption", true, "", func(d []byte) []byte {
			d[len(d)-9] ^= 0x55
			return d
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := corruptCSR(t, valid, c.repair, c.mutate)
			cf, err := OpenCSRFile(path)
			if err == nil {
				cf.Close()
				t.Fatal("OpenCSRFile succeeded on corrupt input")
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error %q does not name the file", err)
			}
		})
	}
	if _, err := OpenCSRFile(filepath.Join(t.TempDir(), "missing.hincsr")); err == nil {
		t.Fatal("OpenCSRFile succeeded on missing file")
	}
}

// Satellite: both backends must report identical statistics.
func TestStatsCrossBackendEquality(t *testing.T) {
	g := randomRichGraph(t, 13)
	path := filepath.Join(t.TempDir(), "stats.hincsr")
	if err := WriteCSRFile(path, g); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	for _, backend := range []struct {
		name string
		g    GraphBackend
	}{{"csr", FromGraph(g)}, {"file", cf.Graph()}} {
		c := backend.g
		if g.NumEdgesTotal() != c.NumEdgesTotal() {
			t.Fatalf("%s: NumEdgesTotal %d vs %d", backend.name, c.NumEdgesTotal(), g.NumEdgesTotal())
		}
		wd, werr := Density(g)
		gd, gerr := Density(c)
		if wd != gd || (werr == nil) != (gerr == nil) {
			t.Fatalf("%s: Density (%v,%v) vs (%v,%v)", backend.name, gd, gerr, wd, werr)
		}
		for lt := 0; lt < g.Schema().NumLinkTypes(); lt++ {
			ltid := LinkTypeID(lt)
			if a, b := StrengthCardinality(g, ltid), StrengthCardinality(c, ltid); a != b {
				t.Fatalf("%s: StrengthCardinality(%d) %d vs %d", backend.name, lt, b, a)
			}
		}
		if a, b := AttrCardinality(g, 0, 0), AttrCardinality(c, 0, 0); a != b {
			t.Fatalf("%s: AttrCardinality %d vs %d", backend.name, b, a)
		}
	}
}
