package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

// The self-tests run at tiny scale: `go test` in this directory.

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	v, err := percentile(xs(1000), 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Fatal("a median with 9 samples beyond it must be refused")
	}
	if v, err := percentile(xs(21), 0.5); err != nil || v != 11 {
		t.Fatalf("median of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := summarize(xs(500)); err == nil {
		t.Fatal("summarize must refuse a p99 over 500 samples")
	}
	tl := tail(xs(500))
	if tl.Q != 0.98 || tl.Tail != 490 {
		t.Fatalf("tail of 500 samples = p%v %v; want p98 490", 100*tl.Q, tl.Tail)
	}
}

// tinyFixture is a generated fixture small enough for unit tests, with
// its oracle and dehin snippets.
func tinyFixture(t *testing.T) (*oracle, []*snippet, hin.GraphBackend) {
	t.Helper()
	cfg := genConfig(3, 3000)
	cfg.Communities = []tqq.CommunitySpec{{Size: 60, Density: 0.05}}
	ds, err := tqq.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := newOracle(ds.Graph)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := releaseCommunity(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	snips, err := buildSnippets(tgt)
	if err != nil {
		t.Fatal(err)
	}
	return o, snips, ds.Graph
}

func TestOracleRejectsWrongAnswers(t *testing.T) {
	o, snips, _ := tinyFixture(t)
	chk := &checker{o: o}
	user, dist := 17, 1
	riskReq := &request{kind: kRisk, user: user, dist: dist}
	riskBody := func(class int32, epoch uint64) []byte {
		b, _ := json.Marshal(riskResp{Epoch: epoch, User: user, Distance: dist, ClassSize: class})
		return b
	}
	right := o.class[dist][user]
	if err := chk.check(riskReq, http.StatusOK, riskBody(right, 1)); err != nil {
		t.Fatalf("correct risk answer rejected: %v", err)
	}
	if err := chk.check(riskReq, http.StatusOK, riskBody(right+1, 1)); err == nil {
		t.Fatal("a wrong class_size was accepted")
	}
	if err := chk.check(riskReq, http.StatusOK, riskBody(right, 0)); err == nil {
		t.Fatal("a zero epoch was accepted")
	}
	if err := chk.check(riskReq, http.StatusTooManyRequests, riskBody(right, 1)); err == nil {
		t.Fatal("a 429 was accepted")
	}

	topk := &request{kind: kTopK, k: 1, dist: 0}
	body := fmt.Sprintf(`{"epoch":2,"distance":0,"k":1,"users":[{"user":5,"class_size":%d}]}`, o.class[0][5]+1)
	if err := chk.check(topk, http.StatusOK, []byte(body)); err == nil {
		t.Fatal("a wrong topk class_size was accepted")
	}

	s := snips[0]
	dehinReq := &request{kind: kDehin, snip: s}
	answer := func(users []hin.EntityID, truncated bool) []byte {
		var ms []string
		for _, u := range users {
			ms = append(ms, fmt.Sprintf(`{"user":%d}`, u))
		}
		return []byte(fmt.Sprintf(`{"epoch":3,"candidates":%d,"matches":[%s],"truncated":%v}`,
			len(users), strings.Join(ms, ","), truncated))
	}
	if err := chk.check(dehinReq, http.StatusOK, answer([]hin.EntityID{s.truth + 1, s.truth}, false)); err != nil {
		t.Fatalf("a dehin answer holding the truth was rejected: %v", err)
	}
	if err := chk.check(dehinReq, http.StatusOK, answer([]hin.EntityID{s.truth + 1}, false)); err == nil {
		t.Fatal("a dehin answer missing the true counterpart was accepted")
	}
	if err := chk.check(dehinReq, http.StatusOK, answer([]hin.EntityID{s.truth + 1}, true)); err != nil {
		t.Fatalf("a truncated dehin answer may omit the truth: %v", err)
	}
}

func TestSnippetsFindTheirCounterpart(t *testing.T) {
	_, snips, g := tinyFixture(t)
	a, err := dehinAttack(g)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snips {
		sg, err := s.graph(g.Schema())
		if err != nil {
			t.Fatal(err)
		}
		if !containsEntity(a.Deanonymize(sg, 0), s.truth) {
			t.Fatalf("snippet %d: the attack misses the true counterpart", i)
		}
	}
}

func TestBacklogNeedsSustainedLateness(t *testing.T) {
	steps := func(lag func(i int) time.Duration) []outcome {
		outs := make([]outcome, 1000)
		for i := range outs {
			outs[i].lag = lag(i)
		}
		return outs
	}
	stall := steps(func(i int) time.Duration {
		if i > 900 {
			return 20 * time.Millisecond
		}
		return 50 * time.Microsecond
	})
	if backlogGrew(stall, time.Millisecond) {
		t.Error("a stall at the end of a step is not a growing backlog")
	}
	growing := steps(func(i int) time.Duration { return time.Duration(i) * 10 * time.Microsecond })
	if !backlogGrew(growing, time.Millisecond) {
		t.Error("lateness growing through the step is a backlog")
	}
}

func TestLadderPicksKnee(t *testing.T) {
	ladder := []float64{1000, 2000, 3000, 4000, 5000, 6000, 7000}
	curve := func(knee float64, noisy map[float64]bool) func(float64) (ladderStep, error) {
		return func(rate float64) (ladderStep, error) {
			st := ladderStep{Rate: rate, P99US: 800}
			if rate > knee {
				st.P99US, st.Backlog = 40000, true
			}
			if noisy[rate] {
				st.P99US = 2 * float64(readLimit/time.Microsecond)
			}
			return st, nil
		}
	}
	cases := []struct {
		name  string
		knee  float64
		noisy map[float64]bool
		want  float64
	}{
		{"clean knee", 4500, nil, 4000},
		{"lone stall below the knee", 4500, map[float64]bool{2000: true}, 4000},
		{"never saturates", 1e9, nil, 7000},
	}
	for _, c := range cases {
		got, steps, err := climb(ladder, curve(c.knee, c.noisy))
		if err != nil || got != c.want {
			t.Errorf("%s: climb = %v, %v (steps %+v); want %v", c.name, got, err, steps, c.want)
		}
	}
	if got, steps, _ := climb(ladder, curve(0, nil)); got != 0 || len(steps) != ladderMisses {
		t.Errorf("a ladder with no passing step: %v after %d steps; want 0 after %d", got, len(steps), ladderMisses)
	}
	failing := func(rate float64) (ladderStep, error) {
		return ladderStep{Rate: rate, P99US: 100, Failed: 1}, nil
	}
	if got, _, _ := climb(ladder, failing); got != 0 {
		t.Error("steps with failed requests must not pass")
	}
}

func TestStampMismatchIsIncomparable(t *testing.T) {
	sp := &spec{
		EndToEnd: []specMetric{{Name: "work_s", Better: "lower", Bound: 0.25}, {Name: "rss_mb", Better: "lower", Bound: 0.15}},
		PerLayer: []specMetric{{Name: "dehin.memo_hit_share", Better: "higher"}},
	}
	base := stamp{Workload: "serve-read", GOMAXPROCS: 2, NProc: 2, CPU: "x", GoVersion: "go1.24.0",
		Commit: "a", Seed: 1, Seconds: 10, Users: 500000, Edges: 13, Daemon: "-maxdistance 2"}
	old := &report{Stamp: base,
		line:  line{Metrics: map[string]metric{"work_s": {1, "s"}, "rss_mb": {100, "MiB"}}},
		Named: map[string]metric{"read_p50_us": {200, "us"}, "read_max_qps": {8000, "1/s"}, "dehin.memo_hit_share": {0.5, "ratio"}}}
	cur := &report{Stamp: base,
		line:  line{Metrics: map[string]metric{"work_s": {1.2, "s"}, "rss_mb": {120, "MiB"}}},
		Named: map[string]metric{"read_p50_us": {400, "us"}, "dehin.memo_hit_share": {0.4, "ratio"}}}
	cur.Stamp.Commit = "b"
	c := compareReports(sp, old, cur)
	if len(c.Incomparable) != 0 {
		t.Fatalf("stamps differing only in commit must compare: %v", c.Incomparable)
	}
	by := map[string]verdict{}
	for _, v := range c.Verdicts {
		by[v.Name] = v
	}
	switch {
	case by["work_s"].Worse:
		t.Error("work_s 20% worse is within its 25% bound")
	case !by["rss_mb"].Worse:
		t.Error("rss_mb 20% worse is beyond its 15% bound")
	case by["read_p50_us"].Worse || by["read_p50_us"].Bound != 0:
		t.Error("an undeclared metric is information, never a verdict")
	case !by["read_max_qps"].Missing:
		t.Error("a metric absent from the new report must count as missing")
	case by["dehin.memo_hit_share"].Change <= 0 || by["dehin.memo_hit_share"].Worse:
		t.Errorf("a better-higher metric that fell is a positive (worse) change with no verdict: %+v", by["dehin.memo_hit_share"])
	case !c.failed():
		t.Error("a comparison with a metric beyond its bound must fail")
	}
	for _, change := range []func(*stamp){
		func(s *stamp) { s.CPU, s.GOMAXPROCS = "y", 4 },
		func(s *stamp) { s.Trace = true },
	} {
		cur.Stamp = base
		change(&cur.Stamp)
		if c = compareReports(sp, old, cur); len(c.Incomparable) == 0 || len(c.Verdicts) != 0 {
			t.Fatalf("a configuration mismatch must be incomparable with no verdicts, got %+v", c)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	root := r.root(r.lane(), "outer", 7)
	time.Sleep(2 * time.Millisecond)
	inner := root.child("inner")
	time.Sleep(5 * time.Millisecond)
	inner.end()
	root.end()
	layers, spans, err := r.analyze(t.TempDir() + "/trace.json")
	if err != nil || spans != 2 {
		t.Fatalf("analyze: %d spans, %v", spans, err)
	}
	by := map[string]layerTime{}
	for _, l := range layers {
		by[l.Name] = l
	}
	outer, in := by["outer"], by["inner"]
	if in.SelfS != in.TotalS || math.Abs(outer.SelfS-(outer.TotalS-in.TotalS)) > 1e-9 {
		t.Fatalf("self times wrong: outer %+v inner %+v", outer, in)
	}
	if outer.SelfS < 0.001 || in.SelfS < 0.004 {
		t.Fatalf("self times too small: outer %+v inner %+v", outer, in)
	}
}

func TestProcessCPUCountsThisProcess(t *testing.T) {
	before, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 50*time.Millisecond; {
		x++
	}
	after, err := processCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if used := after - before; used < 20*time.Millisecond || used > time.Second {
		t.Errorf("a 50ms busy loop used %v of CPU time (x=%d)", used, x)
	}
	if _, err := processCPU(1<<22 + 1); err == nil {
		t.Error("no error for a process that does not exist")
	}
}
