package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/randx"
)

// kind is an endpoint of the request stream.
type kind int

const (
	kRisk kind = iota
	kTopK
	kSnapshot
	kDehin
	kReload
	nKinds
)

var kindNames = [nKinds]string{"risk", "topk", "snapshot", "dehin", "reload"}

func (k kind) String() string { return kindNames[k] }

func (k kind) isRead() bool { return k == kRisk || k == kTopK || k == kSnapshot }

// request is one scheduled request with what its answer must say.
type request struct {
	kind   kind
	method string
	path   string // path and query
	body   []byte
	user   int // risk
	dist   int // risk, topk
	k      int // topk
	snip   *snippet
}

// outcome is one request's fate, timed from its scheduled send time:
// latency = done - due counts any wait a stall imposed, lag = sent - due
// is how late the generator itself ran.
type outcome struct {
	kind     kind
	lat, rtt time.Duration
	lag      time.Duration
	// done is when the answer arrived, from the start of the run.
	done time.Duration
	ok   bool
	err  string
}

// mix is an endpoint weighting.
type mix [nKinds]int

// readMix is serve-read's traffic: /v1/risk, /v1/topk, /v1/snapshot.
var readMix = mix{kRisk: 94, kTopK: 4, kSnapshot: 2}

// streamGen draws requests from the workload's seed. Endpoint kinds come
// in shuffled blocks of exactly the mix's weights, so every run of a
// given length carries the same number of requests of each kind.
type streamGen struct {
	rng   *randx.RNG
	users int
	snips []*snippet
	block []kind
	pos   int
}

func newStreamGen(seed uint64, users int, snips []*snippet, w mix) *streamGen {
	g := &streamGen{rng: randx.New(seed), users: users, snips: snips}
	for k, n := range w {
		for i := 0; i < n; i++ {
			g.block = append(g.block, kind(k))
		}
	}
	g.pos = len(g.block)
	return g
}

func (g *streamGen) next() request {
	if g.pos == len(g.block) {
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
		g.pos = 0
	}
	g.pos++
	return g.make(g.block[g.pos-1])
}

func (g *streamGen) make(k kind) request {
	switch k {
	case kRisk:
		u, d := g.rng.Intn(g.users), g.rng.Intn(daemonMaxDistance+1)
		return request{kind: k, method: "GET", path: fmt.Sprintf("/v1/risk?user=%d&distance=%d", u, d), user: u, dist: d}
	case kTopK:
		kk, d := 1+g.rng.Intn(50), g.rng.Intn(daemonMaxDistance+1)
		return request{kind: k, method: "GET", path: fmt.Sprintf("/v1/topk?k=%d&distance=%d", kk, d), k: kk, dist: d}
	case kSnapshot:
		return request{kind: k, method: "GET", path: "/v1/snapshot"}
	case kDehin:
		s := g.snips[g.rng.Intn(len(g.snips))]
		return request{kind: k, method: "POST", path: "/v1/dehin", body: s.body, snip: s}
	default:
		return request{kind: kReload, method: "POST", path: "/v1/reload"}
	}
}

// stream draws n requests.
func (g *streamGen) stream(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

// checker validates responses against the oracle. Every answer must
// carry a non-zero epoch.
type checker struct {
	o *oracle
}

type riskResp struct {
	Epoch     uint64 `json:"epoch"`
	User      int    `json:"user"`
	Distance  int    `json:"distance"`
	ClassSize int32  `json:"class_size"`
}

type topkResp struct {
	Epoch    uint64 `json:"epoch"`
	Distance int    `json:"distance"`
	K        int    `json:"k"`
	Users    []struct {
		User      int32 `json:"user"`
		ClassSize int32 `json:"class_size"`
	} `json:"users"`
}

type snapResp struct {
	Epoch       uint64    `json:"epoch"`
	Users       int       `json:"users"`
	Edges       int64     `json:"edges"`
	DatasetRisk []float64 `json:"dataset_risk"`
}

type dehinResp struct {
	Epoch      uint64 `json:"epoch"`
	Candidates int    `json:"candidates"`
	Matches    []struct {
		User int32 `json:"user"`
	} `json:"matches"`
	Truncated bool `json:"truncated"`
}

// check returns an error naming the violated oracle, if any. Refusals
// (429, 5xx) and any non-200 are failures.
func (c *checker) check(r *request, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", r.kind, code, body)
	}
	var epoch uint64
	switch r.kind {
	case kRisk:
		var v riskResp
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if want := c.o.class[r.dist][r.user]; v.ClassSize != want || v.User != r.user || v.Distance != r.dist {
			return fmt.Errorf("risk user %d d%d: class_size %d, oracle %d", r.user, r.dist, v.ClassSize, want)
		}
		epoch = v.Epoch
	case kTopK:
		var v topkResp
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if len(v.Users) != r.k || v.Distance != r.dist {
			return fmt.Errorf("topk k=%d d%d: %d users", r.k, r.dist, len(v.Users))
		}
		for i, e := range v.Users {
			if want := c.o.class[r.dist][e.User]; e.ClassSize != want {
				return fmt.Errorf("topk d%d user %d: class_size %d, oracle %d", r.dist, e.User, e.ClassSize, want)
			}
			if i > 0 && e.ClassSize < v.Users[i-1].ClassSize {
				return fmt.Errorf("topk d%d: class sizes not ascending at %d", r.dist, i)
			}
		}
		epoch = v.Epoch
	case kSnapshot, kReload:
		var v snapResp
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Users != c.o.users || v.Edges != c.o.edges || len(v.DatasetRisk) != len(c.o.risk) {
			return fmt.Errorf("snapshot: %d users/%d edges/%d risks, fixture %d/%d/%d",
				v.Users, v.Edges, len(v.DatasetRisk), c.o.users, c.o.edges, len(c.o.risk))
		}
		for d, x := range v.DatasetRisk {
			if math.Abs(x-c.o.risk[d]) > 1e-12 {
				return fmt.Errorf("snapshot: dataset risk d%d %g, oracle %g", d, x, c.o.risk[d])
			}
		}
		epoch = v.Epoch
	case kDehin:
		var v dehinResp
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if !v.Truncated {
			found := false
			for _, m := range v.Matches {
				found = found || hin.EntityID(m.User) == r.snip.truth
			}
			if !found {
				return fmt.Errorf("dehin: %d candidates miss the true counterpart %d", v.Candidates, r.snip.truth)
			}
		}
		epoch = v.Epoch
	}
	if epoch == 0 {
		return fmt.Errorf("%s: zero epoch", r.kind)
	}
	return nil
}

// client is one keep-alive connection of the generator.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// generator is the benchmark's open-loop load generator: requests are
// due at fixed intervals from the start, queryWorkers() connections send
// them in order, and each request is timed from when it was due.
type generator struct {
	base    string
	chk     *checker
	clients []*http.Client
	// rec, when set, records a "net.request" span around each round
	// trip, sharing request i's id i+1 with the in-process replay.
	rec *recorder
}

// queryWorkers is the generator's concurrency: one connection per core.
func queryWorkers() int { return runtime.NumCPU() }

func newGenerator(base string, chk *checker) *generator {
	g := &generator{base: base, chk: chk}
	for i := 0; i < queryWorkers(); i++ {
		g.clients = append(g.clients, newClient())
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends reqs open-loop at rate per second (rate <= 0: back to back,
// closed-loop on every connection), with the schedule starting now, and
// returns one outcome per request. A non-nil stop ends sending once it is
// closed; only the outcomes of the requests sent by then are returned.
func (g *generator) run(reqs []request, rate float64, stop <-chan struct{}) []outcome {
	start := time.Now()
	out := make([]outcome, len(reqs))
	sent := make([]bool, len(reqs))
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range g.clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			lane := g.rec.lane()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || stopped(stop) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				if stopped(stop) {
					return
				}
				sent[i] = true
				at := time.Now()
				if rate <= 0 {
					due = at
				}
				sp := g.rec.root(lane, "net.request", int64(i+1))
				out[i] = g.do(c, &reqs[i])
				sp.end()
				done := time.Now()
				out[i].lat, out[i].rtt, out[i].lag = done.Sub(due), done.Sub(at), at.Sub(due)
				out[i].done = done.Sub(start)
			}
		}(g.clients[w])
	}
	wg.Wait()
	if stop == nil {
		return out
	}
	kept := out[:0]
	for i, o := range out {
		if sent[i] {
			kept = append(kept, o)
		}
	}
	return kept
}

// runFor sends reqs closed-loop on every connection until d has passed
// and returns the outcomes of the requests sent by then.
func (g *generator) runFor(reqs []request, d time.Duration) []outcome {
	stop := make(chan struct{})
	t := time.AfterFunc(d, func() { close(stop) })
	defer t.Stop()
	return g.run(reqs, 0, stop)
}

// blockTimes cuts a closed-loop run's answers, in the order they
// arrived, into blocks of size and returns each whole block's duration
// in seconds: from the answer before the block to its last.
func blockTimes(outs []outcome, size int) []float64 {
	ts := make([]float64, len(outs))
	for i, o := range outs {
		ts[i] = o.done.Seconds()
	}
	sort.Float64s(ts)
	var ds []float64
	for i := size; i < len(ts); i += size {
		ds = append(ds, ts[i]-ts[i-size])
	}
	return ds
}

func stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

func (g *generator) do(c *http.Client, r *request) outcome {
	o := outcome{kind: r.kind}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, g.base+r.path, body)
	if err != nil {
		o.err = err.Error()
		return o
	}
	resp, err := c.Do(req)
	if err != nil {
		o.err = err.Error()
		return o
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.err = err.Error()
		return o
	}
	if err := g.chk.check(r, resp.StatusCode, b); err != nil {
		o.err = err.Error()
		return o
	}
	o.ok = true
	return o
}

// tally is the per-endpoint count of a set of outcomes.
type tally struct {
	Attempted, Succeeded, Failed [nKinds]int
	Errors                       []string
}

func tallyOf(outs []outcome) tally {
	var t tally
	for _, o := range outs {
		t.Attempted[o.kind]++
		if o.ok {
			t.Succeeded[o.kind]++
			continue
		}
		t.Failed[o.kind]++
		if len(t.Errors) < 5 {
			t.Errors = append(t.Errors, o.err)
		}
	}
	return t
}

func (t tally) total() (attempted, failed int) {
	for k := range t.Attempted {
		attempted += t.Attempted[k]
		failed += t.Failed[k]
	}
	return
}

// latencies collects the latencies (in unit) of outcomes whose kind
// passes keep. A failed request counts as missing every limit: it enters
// as +Inf, so it lands beyond any percentile it could distort.
func latencies(outs []outcome, keep func(kind) bool, unit time.Duration) []float64 {
	var xs []float64
	for _, o := range outs {
		if !keep(o.kind) {
			continue
		}
		if !o.ok {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, float64(o.lat)/float64(unit))
	}
	return xs
}

// rttMedian is the median round trip (send to response) of the
// successful outcomes whose kind passes keep, in unit: the service time
// a client sees, without the wait a stall imposed on later requests.
func rttMedian(outs []outcome, keep func(kind) bool, unit time.Duration) float64 {
	var xs []float64
	for _, o := range outs {
		if keep(o.kind) && o.ok {
			xs = append(xs, float64(o.rtt)/float64(unit))
		}
	}
	return median(xs)
}

// lagP99 is the generator's p99 lateness against its schedule, in µs.
func lagP99(outs []outcome) (float64, error) {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = float64(o.lag) / float64(time.Microsecond)
	}
	return percentile(xs, 0.99)
}

// backlogGrew reports whether the generator fell behind its schedule
// during a step: the median lateness of the step's second half exceeds
// limit. Past capacity lateness grows through the whole step; a single
// scheduling stall delays far fewer than half of the second half.
func backlogGrew(outs []outcome, limit time.Duration) bool {
	half := outs[len(outs)/2:]
	lags := make([]float64, len(half))
	for i, o := range half {
		lags[i] = float64(o.lag)
	}
	return len(lags) > 0 && median(lags) > float64(limit)
}

// sleepUntil blocks the calling thread until t with nanosleep(2). The
// runtime's timers wake through the network poller, whose epoll timeout
// is whole milliseconds, so time.Sleep rounds every sub-millisecond wait
// up to ~1ms - longer than the gaps of any rate this generator offers.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil) //hin:allow errdrop -- EINTR just re-enters the loop
	}
}

// summarizeWindows is summarize over the outcomes' latencies, except that
// the p99 is the median of the p99s of n consecutive windows of the
// schedule.
func summarizeWindows(outs []outcome, keep func(kind) bool, unit time.Duration, n int) (latency, error) {
	l, err := summarize(latencies(outs, keep, unit))
	if err != nil {
		return l, err
	}
	p99s := make([]float64, n)
	for w := range p99s {
		win := outs[w*len(outs)/n : (w+1)*len(outs)/n]
		if p99s[w], err = percentile(latencies(win, keep, unit), 0.99); err != nil {
			return l, err
		}
	}
	l.P99 = median(p99s)
	return l, nil
}
