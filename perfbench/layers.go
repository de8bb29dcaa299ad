package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/obs/trace"
	"github.com/hinpriv/dehin/internal/serve"
)

// probePerKind is how many requests of each endpoint the traced run's
// probe stream carries: enough for a p99 with ten samples beyond it.
const probePerKind = 1000

// probeKinds are the endpoints the layer probe measures.
var probeKinds = []kind{kRisk, kTopK, kSnapshot, kDehin}

// runTraced is the layer probe. It runs one traced audit pass (every
// batch layer, with allocation deltas), replays a probe stream through an
// in-process serve.Server configured like the daemon, sends the same
// stream to the real daemon one request at a time, and then offers the
// workload's own open-loop traffic while reading the daemon's /metrics
// before and after. Spans are recorded around every layer call and
// written as a Chrome trace; the report's per-layer metrics follow the
// mapping in LAYERS.md.
func runTraced(rep *report, workload string, seed uint64, seconds int, dir, bin string) error {
	rec := newRecorder()
	reg := obs.New()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	a, err := runAudit(seed, dir, auditOptions{rec: rec, req: 0, metrics: reg, keep: true})
	if err != nil {
		return err
	}
	defer a.file.Close() //hin:allow errdrop -- read-only mapping of the fixture
	rep.Stamp.Edges = a.edges
	rep.Attempted, rep.Failed, rep.Problems = a.attempted, a.failed, a.problems
	for _, st := range a.stages {
		name := st.Name
		if name == "dehin.index.daemon" || name == "anonymize.release" {
			continue
		}
		put(name+"_s", st.S, "s")
		put(name+".alloc_mb", st.AllocMB, "MiB")
	}
	put("hin.file_mb", a.fileMB, "MiB")
	putRatios(put, "dehin.", registryScrape(reg), scrape{})

	snips, err := buildSnippets(a.target)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "fixture.hincsr")
	gen := newStreamGen(seed^0x9b0be, a.users, snips, mix{kRisk: 1, kTopK: 1, kSnapshot: 1, kDehin: 1})
	probe := gen.stream(probePerKind * len(probeKinds))
	chk := &checker{o: a.oracle}

	// In-process: the handler alone, with and without the flight
	// recorder, and with and without the benchmark's own spans.
	rp, err := replayHandler(path, probe, chk, rec)
	if err != nil {
		return err
	}
	for _, k := range probeKinds {
		l := rp.lat[k]
		put("serve.handler_us_p50."+k.String(), l.P50, "us")
		put("serve.handler_us_p99."+k.String(), l.P99, "us")
		put("serve.handler_allocs."+k.String(), rp.allocs[k], "count")
	}
	put("obs.flight_overhead_us", rp.flightUS, "us")
	put("trace.overhead_us", rp.traceUS, "us")

	// The /v1/dehin query path below the handler: snippet build and the
	// attack query with the daemon's configuration.
	build, query, err := probeDehin(a, probe, rec)
	if err != nil {
		return err
	}
	put("hin.snippet_build_us", build.P50, "us")
	put("dehin.query_us_p50", query.P50, "us")
	put("dehin.query_us_p99", query.P99, "us")

	// Over the wire: the same stream, one request at a time, so the
	// round trip carries no queueing. rtt - handler is the loopback,
	// net/http and client cost.
	cpus, err := daemonCPUs(workload)
	if err != nil {
		return err
	}
	start := rec.root(rec.lane(), "serve.daemon_start", 0)
	d, err := startDaemon(bin, path, filepath.Join(dir, "hinriskd.log"), cpus)
	start.end()
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := d.scrape()
	if err != nil {
		return err
	}
	wire := newGenerator(d.base, chk)
	defer wire.close()
	wire.clients, wire.rec = wire.clients[:1], rec
	wouts := wire.run(probe, 0, nil)
	wt := tallyOf(wouts)
	for _, k := range probeKinds {
		rtts := make([]float64, 0, probePerKind)
		for _, o := range wouts {
			if o.kind == k {
				rtts = append(rtts, float64(o.rtt)/float64(time.Microsecond))
			}
		}
		l, err := summarize(rtts)
		if err != nil {
			return err
		}
		put("net.rtt_us_p50."+k.String(), l.P50, "us")
		put("net.rtt_us_p99."+k.String(), l.P99, "us")
	}

	// The workload's own open-loop traffic, for the daemon-side counters
	// and the generator's lag under it.
	e := &serveEnv{seed: seed, users: a.users, snips: snips, oracle: a.oracle, d: d}
	queueMax, body := sampleQueueDepth(d, func() []outcome { return tracedBody(workload, e, seconds) })
	after, err := d.scrape()
	if err != nil {
		return err
	}
	bt := tallyOf(body)
	all := wt.add(bt)
	att, failed := all.total()
	rep.Attempted += att
	rep.Failed += failed
	rep.Problems = append(rep.Problems, all.Errors...)
	rep.Tally = &all
	putRatios(put, "serve.dehin.", after, before)
	put("serve.attack_rejected", delta(before, after, "serve_attack_rejected_total"), "count")
	put("serve.attack_queue_depth_max", queueMax, "count")
	put("runtime.gc_cycles", delta(before, after, "runtime_gc_cycles_total"), "count")
	put("runtime.gc_pause_ms_p99", histP99(before, after, "runtime_gc_pause_ns")/1e6, "ms")
	lag, err := lagP99(body)
	if err != nil {
		return err
	}
	put("load.gen_lag_us_p99", lag, "us")

	layers, spans, err := rec.analyze(filepath.Join(filepath.Dir(dir), "results",
		fmt.Sprintf("%s-seed%d.trace.json", workload, seed)))
	if err != nil {
		return err
	}
	rep.Layers = layers
	put("trace.spans", float64(spans), "count")
	rep.Metrics, rep.Named = m, m
	return nil
}

// tracedBody offers the workload's open-loop traffic: serve-read's
// reference phase, serve-attack's attack-with-reload phase, and for
// batch-audit (which has no traffic of its own) the probe mix at the
// attack rate.
func tracedBody(workload string, e *serveEnv, seconds int) []outcome {
	g := newGenerator(e.d.base, &checker{o: e.oracle})
	defer g.close()
	switch workload {
	case "serve-read":
		gen := newStreamGen(e.seed^0x4ead, e.users, e.snips, readMix)
		return g.run(gen.stream(readRefRate*seconds), readRefRate, nil)
	case "serve-attack":
		gen := newStreamGen(e.seed^0xa77c, e.users, e.snips, attackMix)
		steady := g.run(gen.stream(attackRate*seconds), attackRate, nil)
		during, rel := reloadPhase(g, gen)
		return append(append(steady, during...), rel...)
	default:
		gen := newStreamGen(e.seed^0xba7c, e.users, e.snips, mix{kRisk: 1, kTopK: 1, kSnapshot: 1, kDehin: 1})
		return g.run(gen.stream(attackRate*seconds), attackRate, nil)
	}
}

// sampleQueueDepth runs body while polling the daemon's
// serve_attack_queue_depth gauge every 100ms on a connection of its own,
// returning the largest depth seen.
func sampleQueueDepth(d *daemon, body func() []outcome) (float64, []outcome) {
	stop := make(chan struct{})
	var peak float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if s, err := d.scrape(); err == nil {
					peak = max(peak, s["serve_attack_queue_depth"])
				}
			}
		}
	}()
	outs := body()
	close(stop)
	wg.Wait()
	return peak, outs
}

// putRatios reports the attack's useful/attempted ratios from the
// dehin_attack_* counter deltas between two reads.
func putRatios(put func(string, float64, string), prefix string, after, before scrape) {
	q := delta(before, after, "dehin_attack_queries_total")
	c := delta(before, after, "dehin_attack_profile_candidates_total")
	hits := delta(before, after, "dehin_attack_memo_hits_total")
	probes := hits + delta(before, after, "dehin_attack_memo_misses_total")
	put(prefix+"candidates_per_query", ratio(c, q), "count")
	put(prefix+"degree_pruned_share", ratio(delta(before, after, "dehin_attack_degree_pruned_total"), c), "ratio")
	put(prefix+"memo_hit_share", ratio(hits, probes), "ratio")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// registryScrape reads an in-process registry's counters the way scrape
// reads the daemon's.
func registryScrape(r *obs.Registry) scrape {
	out := scrape{}
	for k, v := range r.Snapshot().Counters {
		out[k] = float64(v)
	}
	return out
}

// replayed is the in-process replay's per-endpoint figures.
type replayed struct {
	lat    map[kind]latency // the daemon's configuration, without spans
	allocs map[kind]float64
	// flightUS and traceUS are the medians, over the probe's risk
	// requests, of each request's handler time with the flight recorder
	// minus without it, and with the benchmark's span minus without it.
	flightUS, traceUS float64
}

// Replay variants: every probe request goes through each of them.
const (
	vSpan     = iota // flight recorder on, inside a "serve.handler" span
	vFlight          // flight recorder on: the daemon's configuration
	vNoFlight        // flight recorder off
	nVariants
)

// replayServer loads the fixture into a serve.Server configured like the
// daemon, with the flight recorder when flight is set.
func replayServer(path string, flight bool) (*serve.Server, error) {
	cfg := serve.Config{
		MaxDistance:    daemonMaxDistance,
		AttackDistance: daemonAttackDistance,
		EntityAttrs:    signatureConfig(0).EntityAttrs,
		Profile:        dehin.TQQProfile(),
		Metrics:        obs.New(),
	}
	if flight {
		cfg.Flight = trace.NewFlight(trace.FlightConfig{Capacity: 64, SlowThreshold: 100 * time.Millisecond})
	}
	s := serve.New(cfg)
	if err := s.Load(path); err != nil {
		s.Close() //hin:allow errdrop -- the load error is the one reported
		return nil, err
	}
	return s, nil
}

// sink is a minimal http.ResponseWriter. Its header map and body buffer
// are allocated once and emptied in place between requests, so a replay
// into it counts and times the handler's own work, not the writer's.
type sink struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *sink) Header() http.Header { return w.h }

func (w *sink) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *sink) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

func (w *sink) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// replayHandler loads the fixture into one server per replay variant,
// each configured like the daemon (the vNoFlight one without the flight
// recorder), and sends every probe request through each server's
// Handler().ServeHTTP, checking every answer. The variants of one request
// run back to back, in an order that rotates from request to request, so
// drift of the host's speed and warm-cache effects fall on all of them
// alike and the per-request differences isolate the recorder's and the
// span's cost. A server of its own per variant keeps one variant from
// warming another's tables. The vSpan variant is a "serve.handler" span
// sharing its id with the wire request.
func replayHandler(path string, probe []request, chk *checker, rec *recorder) (*replayed, error) {
	var hs [nVariants]http.Handler
	for v := range hs {
		s, err := replayServer(path, v != vNoFlight)
		if err != nil {
			return nil, err
		}
		defer s.Close() //hin:allow errdrop -- nothing is in flight once the replay returns
		hs[v] = s.Handler()
	}
	w := &sink{h: http.Header{}}
	// prepare builds the request outside any timing: it stands in for
	// the client and connection, not the handler.
	prepare := func(r *request) *http.Request {
		return httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	}
	// Warm the snapshots' pages and the pools, as the daemon is warm by
	// the time the wire probe reaches it.
	for i := 0; i < 200 && i < len(probe); i++ {
		for _, h := range hs {
			w.reset()
			h.ServeHTTP(w, prepare(&probe[i]))
		}
	}
	lane := rec.lane()
	us := map[kind][]float64{}
	var flightDiffs, traceDiffs []float64
	for i := range probe {
		r := &probe[i]
		var el [nVariants]float64
		for j := 0; j < nVariants; j++ {
			v := (i + j) % nVariants
			h, req := hs[v], prepare(r)
			w.reset()
			var sp span
			if v == vSpan {
				sp = rec.root(lane, "serve.handler", int64(i+1))
			}
			t0 := time.Now()
			h.ServeHTTP(w, req)
			el[v] = float64(time.Since(t0)) / float64(time.Microsecond)
			sp.end()
			if err := chk.check(r, w.code, w.body.Bytes()); err != nil {
				return nil, fmt.Errorf("in-process %w", err)
			}
		}
		us[r.kind] = append(us[r.kind], el[vFlight])
		if r.kind == kRisk {
			flightDiffs = append(flightDiffs, el[vFlight]-el[vNoFlight])
			traceDiffs = append(traceDiffs, el[vSpan]-el[vFlight])
		}
	}
	out := &replayed{lat: map[kind]latency{}, allocs: map[kind]float64{},
		flightUS: median(flightDiffs), traceUS: median(traceDiffs)}
	for k, xs := range us {
		l, err := summarize(xs)
		if err != nil {
			return nil, err
		}
		out.lat[k] = l
	}
	// Allocations per request on the daemon's configuration, measured
	// apart from the timed replay.
	for _, k := range probeKinds {
		var reqs []*http.Request
		for i := range probe {
			if probe[i].kind == k && len(reqs) < 200 {
				reqs = append(reqs, prepare(&probe[i]))
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, req := range reqs {
			w.reset()
			hs[vFlight].ServeHTTP(w, req)
		}
		runtime.ReadMemStats(&m1)
		out.allocs[k] = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	}
	return out, nil
}

// probeDehin times, for every dehin request of the probe, the two steps
// below the handler: building the posted snippet with hin.Builder and
// the attack query with the daemon's configuration.
func probeDehin(a *audit, probe []request, rec *recorder) (latency, latency, error) {
	schema := a.file.Graph().Schema()
	var builds, queries []float64
	lane := rec.lane()
	for i := range probe {
		r := &probe[i]
		if r.kind != kDehin {
			continue
		}
		root := rec.root(lane, "dehin.probe", int64(i+1))
		sp := root.child("hin.snippet_build")
		t0 := time.Now()
		g, err := r.snip.graph(schema)
		t1 := time.Now()
		sp.end()
		if err != nil {
			root.end()
			return latency{}, latency{}, err
		}
		sp = root.child("dehin.query")
		cands := a.daemonA.Deanonymize(g, 0)
		t2 := time.Now()
		sp.end()
		root.end()
		if !containsEntity(cands, r.snip.truth) {
			return latency{}, latency{}, fmt.Errorf("dehin probe %d: candidates miss the true counterpart", i)
		}
		builds = append(builds, float64(t1.Sub(t0))/float64(time.Microsecond))
		queries = append(queries, float64(t2.Sub(t1))/float64(time.Microsecond))
	}
	b, err := summarize(builds)
	if err != nil {
		return latency{}, latency{}, err
	}
	q, err := summarize(queries)
	return b, q, err
}

func containsEntity(xs []hin.EntityID, v hin.EntityID) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
