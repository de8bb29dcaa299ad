package hin

import (
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

// assertBackendsEqual checks every GraphBackend accessor agrees between
// the two backends.
func assertBackendsEqual(t *testing.T, want, got GraphBackend) {
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
	names := want.SetNames()
	if gn := got.SetNames(); fmt.Sprint(gn) != fmt.Sprint(names) {
		t.Fatalf("SetNames = %v, want %v", gn, names)
	}
	var wAttrs, gAttrs []int64
	for v := 0; v < n; v++ {
		id := EntityID(v)
		if want.EntityType(id) != got.EntityType(id) {
			t.Fatalf("EntityType(%d) = %d, want %d", v, got.EntityType(id), want.EntityType(id))
		}
		if want.Label(id) != got.Label(id) {
			t.Fatalf("Label(%d) = %q, want %q", v, got.Label(id), want.Label(id))
		}
		if want.NumAttrs(id) != got.NumAttrs(id) {
			t.Fatalf("NumAttrs(%d) = %d, want %d", v, got.NumAttrs(id), want.NumAttrs(id))
		}
		wAttrs, gAttrs = want.AppendAttrs(wAttrs[:0], id), got.AppendAttrs(gAttrs[:0], id)
		if fmt.Sprint(wAttrs) != fmt.Sprint(gAttrs) {
			t.Fatalf("attrs(%d) = %v, want %v", v, gAttrs, wAttrs)
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
	wbuf, gbuf := &EdgeBuf{}, &EdgeBuf{}
	for lt := 0; lt < want.Schema().NumLinkTypes(); lt++ {
		ltid := LinkTypeID(lt)
		if w, g := want.NumEdges(ltid), got.NumEdges(ltid); w != g {
			t.Fatalf("NumEdges(%d) = %d, want %d", lt, g, w)
		}
		if w, g := want.OutDegrees(ltid, nil), got.OutDegrees(ltid, nil); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("OutDegrees(%d) mismatch", lt)
		}
		if w, g := want.InDegrees(ltid, nil), got.InDegrees(ltid, nil); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("InDegrees(%d) mismatch", lt)
		}
		for v := 0; v < n; v++ {
			id := EntityID(v)
			if want.OutDegree(ltid, id) != got.OutDegree(ltid, id) {
				t.Fatalf("OutDegree(%d,%d) = %d, want %d", lt, v, got.OutDegree(ltid, id), want.OutDegree(ltid, id))
			}
			if want.InDegree(ltid, id) != got.InDegree(ltid, id) {
				t.Fatalf("InDegree(%d,%d) mismatch", lt, v)
			}
			wt, ww := want.OutEdgesBuf(wbuf, ltid, id)
			gt, gw := got.OutEdgesBuf(gbuf, ltid, id)
			if fmt.Sprint(wt) != fmt.Sprint(gt) || fmt.Sprint(ww) != fmt.Sprint(gw) {
				t.Fatalf("OutEdgesBuf(%d,%d): (%v,%v) want (%v,%v)", lt, v, gt, gw, wt, ww)
			}
			wt, ww = want.InEdgesBuf(wbuf, ltid, id)
			gt, gw = got.InEdgesBuf(gbuf, ltid, id)
			if fmt.Sprint(wt) != fmt.Sprint(gt) || fmt.Sprint(ww) != fmt.Sprint(gw) {
				t.Fatalf("InEdgesBuf(%d,%d): (%v,%v) want (%v,%v)", lt, v, gt, gw, wt, ww)
			}
			for _, to := range wt {
				w1, ok1 := want.FindEdge(ltid, id, to)
				w2, ok2 := got.FindEdge(ltid, id, to)
				_ = w1
				_ = w2
				if ok1 != ok2 || (ok1 && w1 != w2) {
					t.Fatalf("FindEdge(%d,%d,%d) = (%d,%v), want (%d,%v)", lt, v, to, w2, ok2, w1, ok1)
				}
			}
			if _, ok := got.FindEdge(ltid, id, id); ok != func() bool { _, k := want.FindEdge(ltid, id, id); return k }() {
				t.Fatalf("FindEdge self mismatch at %d", v)
			}
		}
	}
	for ty := 0; ty < want.Schema().NumEntityTypes(); ty++ {
		if w, g := want.EntitiesOfType(EntityTypeID(ty)), got.EntitiesOfType(EntityTypeID(ty)); fmt.Sprint(w) != fmt.Sprint(g) {
			t.Fatalf("EntitiesOfType(%d) mismatch", ty)
		}
	}
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

// The CSR backend persisted and reloaded must round-trip too (exercises
// writing *from* a CSRGraph, where labels decode from the packed blob).
func TestCSRFileRoundTripFromCSR(t *testing.T) {
	g := randomRichGraph(t, 11)
	c := FromGraph(g)
	path := filepath.Join(t.TempDir(), "g.hincsr")
	if err := WriteCSRFile(path, c); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCSRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	assertBackendsEqual(t, g, cf.Graph())
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
			aw, ac, aok := MajorityStrength(g, ltid)
			bw, bc, bok := MajorityStrength(c, ltid)
			if aw != bw || ac != bc || aok != bok {
				t.Fatalf("%s: MajorityStrength(%d) (%d,%d,%v) vs (%d,%d,%v)", backend.name, lt, bw, bc, bok, aw, ac, aok)
			}
		}
		if a, b := AttrCardinality(g, 0, 0), AttrCardinality(c, 0, 0); a != b {
			t.Fatalf("%s: AttrCardinality %d vs %d", backend.name, b, a)
		}
	}
}
