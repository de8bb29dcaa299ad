package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/hinpriv/dehin/internal/dehin"
	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/obs"
	"github.com/hinpriv/dehin/internal/risk"
	"github.com/hinpriv/dehin/internal/tqq"
)

// stage is one timed batch-layer call.
type stage struct {
	Name    string
	S       float64
	AllocMB float64 // runtime.MemStats.TotalAlloc delta; traced runs only
}

// audit is one pass of the offline privacy audit and what it left
// behind for the serving probes of a traced run.
type audit struct {
	setupS  float64 // generate + persist
	batchS  float64 // generate through attack
	stages  []stage
	fileMB  float64
	users   int
	edges   int64
	risk    []float64
	run     dehin.Result
	queryMS []float64 // per-target attack query latency, outside batchS

	attempted, failed int
	problems          []string

	// Kept open for the serving probes when keep is set.
	file    *hin.CSRFile
	target  *target
	oracle  *oracle
	daemonA *dehin.Attack
}

// auditOptions selects the traced-run extras of an audit pass.
type auditOptions struct {
	rec     *recorder
	req     int64
	metrics *obs.Registry // receives the batch attack's dehin_attack_* counters
	// keep leaves the fixture file open and additionally builds the
	// daemon-configured signature grid (the oracle) and attack, so the
	// traced run can time risk.grid and probe the serving layers.
	keep bool
}

// runAudit is the paper's offline audit over a freshly generated fixture:
// tqq.Generate → hin.WriteCSRFile → hin.OpenCSRFile → risk.NetworkSweep
// (distances 0-2, all link types, number of tags) → dehin.NewAttack (TQQ
// profile, index, distance 2) → Attack.Run on the anonymized community.
// The same seed always produces the same fixture and target.
func runAudit(seed uint64, dir string, opt auditOptions) (*audit, error) {
	a := &audit{}
	traced := opt.rec != nil
	root := opt.rec.root(opt.rec.lane(), "batch.audit", opt.req)
	defer root.end()
	step := func(name string, f func() error) error {
		sp := root.child(name)
		var before runtime.MemStats
		if traced {
			runtime.ReadMemStats(&before)
		}
		s, err := timed(f)
		sp.end()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		st := stage{Name: name, S: s}
		if traced {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			st.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		}
		a.stages = append(a.stages, st)
		return nil
	}

	path := filepath.Join(dir, "fixture.hincsr")
	var (
		ds     *tqq.Dataset
		sweep  *risk.SweepResult
		attack *dehin.Attack
		tgt    *target
	)
	start := time.Now()
	err := step("tqq.generate", func() (err error) {
		ds, err = tqq.Generate(genConfig(seed, fixtureUsers))
		return err
	})
	if err == nil {
		err = step("hin.persist", func() error { return hin.WriteCSRFile(path, ds.Graph) })
	}
	a.setupS = time.Since(start).Seconds()
	if err == nil {
		err = step("hin.load", func() (err error) {
			a.file, err = hin.OpenCSRFile(path)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if !opt.keep {
			a.file.Close() //hin:allow errdrop -- read-only mapping; the audit's result is already complete
		}
	}()
	g := a.file.Graph()
	err = step("risk.sweep", func() (err error) {
		sc := signatureConfig(sweepDistance)
		sweep, err = risk.NetworkSweep(g, sc)
		return err
	})
	if err == nil {
		err = step("dehin.index", func() (err error) {
			attack, err = dehin.NewAttack(g, dehin.Config{
				MaxDistance: sweepDistance,
				LinkTypes:   allLinkTypes(),
				Profile:     dehin.TQQProfile(),
				UseIndex:    true,
				Metrics:     opt.metrics,
			})
			return err
		})
	}
	if err == nil {
		err = step("anonymize.release", func() (err error) {
			tgt, err = releaseCommunity(ds, seed)
			return err
		})
	}
	if err == nil {
		err = step("dehin.run", func() (err error) {
			a.run, err = attack.Run(tgt.graph, tgt.truth)
			return err
		})
	}
	if err != nil {
		return nil, err
	}
	a.batchS = time.Since(start).Seconds()
	a.users, a.edges = ds.Graph.NumEntities(), ds.Graph.NumEdgesTotal()
	a.risk = sweep.Risk
	a.fileMB, err = fileMB(path)
	if err != nil {
		return nil, err
	}
	a.check(g)
	ds = nil // the in-memory graph is not needed past the checks

	qp := root.child("dehin.query_pass")
	a.queryMS, err = timeQueries(attack, tgt, a.run)
	qp.end()
	if err != nil {
		a.problems = append(a.problems, err.Error())
		a.failed++
	}
	a.attempted += len(a.queryMS)

	if opt.keep {
		a.target = tgt
		err = step("risk.grid", func() (err error) {
			a.oracle, err = newOracle(g)
			return err
		})
		if err == nil {
			err = step("dehin.index.daemon", func() (err error) {
				a.daemonA, err = dehinAttack(g)
				return err
			})
		}
		if err != nil {
			a.file.Close() //hin:allow errdrop -- already failing; the stage error is the one to report
			return nil, err
		}
	}
	return a, nil
}

// check applies the audit's correctness oracles: the reopened CSR has
// the generated graph's entity and edge counts, dataset risk does not
// decrease with distance, and every unique candidate is the true
// counterpart.
func (a *audit) check(g hin.GraphBackend) {
	fail := func(format string, args ...any) {
		a.failed++
		a.problems = append(a.problems, fmt.Sprintf(format, args...))
	}
	a.attempted += 2 + len(a.run.PerTarget)
	if g.NumEntities() != a.users || g.NumEdgesTotal() != a.edges {
		fail("reopened CSR has %d entities/%d edges, generated %d/%d",
			g.NumEntities(), g.NumEdgesTotal(), a.users, a.edges)
	}
	for d := 1; d < len(a.risk); d++ {
		if a.risk[d] < a.risk[d-1] {
			fail("dataset risk decreases from distance %d (%g) to %d (%g)", d-1, a.risk[d-1], d, a.risk[d])
			break
		}
	}
	for tv, o := range a.run.PerTarget {
		if o.Unique && !o.Correct {
			fail("target %d: unique candidate is not the true counterpart", tv)
		}
	}
}

// timeQueries re-asks the audit's attack one target at a time, timing
// each query: Attack.Run reports only aggregates, and the per-target
// latency distribution is what the audit's p50/p99 are. The queries run
// on one goroutine so that each time is the query's own, not shared with
// a co-running worker. Each answer must agree with Run's outcome.
func timeQueries(attack *dehin.Attack, tgt *target, run dehin.Result) ([]float64, error) {
	prepared, err := attack.PrepareTarget(tgt.graph)
	if err != nil {
		return nil, err
	}
	ms := make([]float64, prepared.NumEntities())
	bad := 0
	var buf []hin.EntityID
	for tv := range ms {
		t0 := time.Now()
		buf = attack.DeanonymizeAppend(buf[:0], prepared, hin.EntityID(tv))
		ms[tv] = float64(time.Since(t0).Nanoseconds()) / 1e6
		if o := run.PerTarget[tv]; len(buf) != o.Candidates || (len(buf) == 1 && buf[0] != tgt.truth[tv]) {
			bad++
		}
	}
	if bad > 0 {
		return ms, fmt.Errorf("%d target queries disagree with Attack.Run", bad)
	}
	return ms, nil
}

// batchResult is batch-audit's end-to-end figures over its passes.
type batchResult struct {
	setupS, batchS, rssMB float64
	query                 latency
	passes                int
	edges                 int64
	attempted, failed     int
	problems              []string
}

// runBatchAudit repeats the audit until the run's duration is spent (at
// least minPasses times) and reports medians over the passes.
func runBatchAudit(seed uint64, seconds int, dir string) (*batchResult, error) {
	res := &batchResult{}
	var setups, batches, queries, p99s []float64
	start := time.Now()
	for res.passes < minPasses || time.Since(start) < time.Duration(seconds)*time.Second {
		a, err := runAudit(seed, dir, auditOptions{})
		if err != nil {
			return nil, err
		}
		res.passes++
		setups = append(setups, a.setupS)
		batches = append(batches, a.batchS)
		queries = append(queries, a.queryMS...)
		p99, err := percentile(append([]float64(nil), a.queryMS...), 0.99)
		if err != nil {
			return nil, err
		}
		p99s = append(p99s, p99)
		res.edges = a.edges
		res.attempted += a.attempted
		res.failed += a.failed
		res.problems = append(res.problems, a.problems...)
		// Hand the pass's heap back before the next one starts, so every
		// pass begins from the same state.
		runtime.GC()
		debug.FreeOSMemory()
	}
	res.setupS, res.batchS = median(setups), median(batches)
	var err error
	if res.query, err = summarize(queries); err != nil {
		return nil, err
	}
	// As for serve-read's windows: the p99 is the median of the passes'
	// p99s, robust to one pass hitting a stall.
	res.query.P99 = median(p99s)
	res.rssMB, err = vmHWM(os.Getpid())
	return res, err
}

// minPasses is the fewest audit passes a batch-audit run makes.
const minPasses = 2
