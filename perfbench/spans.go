package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"

	"github.com/hinpriv/dehin/internal/obs/trace"
)

// spanCapacity bounds the traced run's in-memory span buffer. The traced
// run records a few dozen batch spans plus two per probe request; a
// dropped span fails the run rather than skewing the self-time table.
const spanCapacity = 1 << 17

// recorder records the benchmark's layer-boundary spans into an
// internal/obs/trace Tracer. Every span carries three attributes the
// Chrome export keeps: sid (its own id), parent (the enclosing span's
// sid, 0 for a root) and req (an id shared by every span of one request
// or batch pass). A nil recorder records nothing, which is how untraced
// runs pay no tracing cost.
type recorder struct {
	tr   *trace.Tracer
	next atomic.Int64
}

func newRecorder() *recorder { return &recorder{tr: trace.New(spanCapacity)} }

// span is one open layer span.
type span struct {
	r   *recorder
	sp  trace.Span
	sid int64
	req int64
}

// lane returns a timeline lane for one goroutine's root spans.
func (r *recorder) lane() trace.Track {
	if r == nil {
		return 0
	}
	return r.tr.NewTrack()
}

// root opens a root span on lane for request (or pass) req.
func (r *recorder) root(lane trace.Track, name string, req int64) span {
	if r == nil {
		return span{}
	}
	return r.open(r.tr.StartOn(lane, name), 0, req)
}

func (r *recorder) open(sp trace.Span, parent, req int64) span {
	s := span{r: r, sp: sp, sid: r.next.Add(1), req: req}
	sp.Attr("sid", s.sid)
	sp.Attr("parent", parent)
	sp.Attr("req", req)
	return s
}

// child opens a nested span on the same lane.
func (s span) child(name string) span {
	if s.r == nil {
		return span{}
	}
	return s.r.open(s.sp.Child(name), s.sid, s.req)
}

func (s span) end() { s.sp.End() }

// layerTime is one span name's aggregate over a traced run.
type layerTime struct {
	Name          string
	Count         int
	TotalS, SelfS float64
}

// analyze exports the spans as Chrome trace JSON, validates that the
// export loads (and that nothing was dropped), writes it to path, and
// returns per-name totals with self time: a span's duration minus the
// part its child spans cover.
func (r *recorder) analyze(path string) ([]layerTime, int, error) {
	if d := r.tr.Dropped(); d > 0 {
		return nil, 0, fmt.Errorf("trace: %d spans dropped (capacity %d)", d, r.tr.Cap())
	}
	var buf bytes.Buffer
	if err := r.tr.WriteChromeTrace(&buf); err != nil {
		return nil, 0, err
	}
	stats, err := trace.ValidateChromeTrace(buf.Bytes())
	if err != nil {
		return nil, 0, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, 0, err
	}
	layers, err := selfTimes(&buf)
	return layers, stats.Spans, err
}

// selfTimes aggregates a Chrome trace written by a recorder.
func selfTimes(r io.Reader) ([]layerTime, error) {
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"` // numbers on spans, strings on metadata
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, err
	}
	type rec struct {
		name      string
		dur, kids float64
	}
	bySid := map[int64]*rec{}
	var order []int64
	for _, ev := range f.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		sid := argInt(ev.Args, "sid")
		bySid[sid] = &rec{name: ev.Name, dur: ev.Dur}
		order = append(order, sid)
	}
	for _, ev := range f.TraceEvents {
		if p, ok := bySid[argInt(ev.Args, "parent")]; ok && ev.Ph == "X" {
			p.kids += ev.Dur
		}
	}
	agg := map[string]*layerTime{}
	for _, sid := range order {
		rc := bySid[sid]
		lt := agg[rc.name]
		if lt == nil {
			lt = &layerTime{Name: rc.name}
			agg[rc.name] = lt
		}
		lt.Count++
		lt.TotalS += rc.dur / 1e6
		lt.SelfS += (rc.dur - rc.kids) / 1e6
	}
	out := make([]layerTime, 0, len(agg))
	for _, lt := range agg {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// argInt reads a numeric span attribute (JSON numbers decode as float64).
func argInt(args map[string]any, key string) int64 {
	f, _ := args[key].(float64)
	return int64(f)
}
