package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/hinpriv/dehin/internal/hin"
	"github.com/hinpriv/dehin/internal/tqq"
)

// Open-loop rates, fixed so every run offers the same load.
const (
	// readRefRate is serve-read's reference rate: about a seventh of the
	// ~14k req/s two closed-loop connections sustain on a quiet 2-vCPU
	// VM with the daemon on a core of its own. Host contention has been
	// seen to cut that capacity to a quarter, and an open loop near
	// capacity turns a slower host into a runaway queue, so the rate
	// leaves room for it.
	readRefRate = 2000
	// readLimit is the p99 a ladder step must meet. On a 2-vCPU VM the
	// scheduler alone puts p99 at 1-5ms at any rate (nanosleep overshoot
	// p99 ~1.5ms), so the limit sits above that noise and below the
	// tens of milliseconds queueing reaches once the rate passes capacity.
	readLimit = 10 * time.Millisecond
	// ladderMisses consecutive failed steps end the climb; one miss can
	// be a scheduling stall rather than saturation.
	ladderMisses = 2
	// refWindows and stepWindows split serve-read's reference phase and
	// each ladder step for their p99: the reported p99 is the median of
	// the windows' p99s, so one scheduling stall of the VM moves one
	// window, not the result, while saturation moves them all.
	refWindows  = 5
	stepWindows = 4
	// readRounds is how many rounds serve-read's main phase has; each
	// round offers 1/readRounds of the reference phase open-loop, then
	// sends reads closed-loop for closedSlice. The daemon's CPU time is
	// summed over the closed-loop slices; their wall-clock rate is that
	// of the median block below, and spreading the slices over the whole
	// phase lets that median step over the seconds-long stretches in
	// which the host lends the VM's cores to its neighbours.
	readRounds  = 10
	closedSlice = 500 * time.Millisecond
	// closedBlock is how many consecutive closed-loop answers make one
	// block; the read rate is closedBlock over the median block's time.
	closedBlock = 200
	// closedMaxRate bounds the closed-loop rate a slice is given requests
	// for; a slice never runs out before closedSlice below it.
	closedMaxRate = 60000
	// daemonStarts is how many times set-up starts the daemon; setup_s
	// takes the median start.
	daemonStarts = 2
	// warmup is sent at the workload's own rate and mix before anything
	// is measured, so first-touch page faults of the snapshot's mapping
	// are not billed to the first measured requests.
	warmup = time.Second
	// stepDuration is the duration of each ladder step.
	stepDuration = time.Second
	// backlogLimit is how late the generator may run at a step's end
	// before the step counts as falling behind.
	backlogLimit = time.Millisecond

	// attackRate is serve-attack's total rate, dehinShare percent of it
	// /v1/dehin and the rest /v1/risk: 100 dehin/s, about a ninth of the
	// ~900/s two closed-loop connections sustain on /v1/dehin alone, and
	// enough for 1000 dehin samples in a 10 s run. While a rebuild holds
	// both cores the same connections manage only ~380 dehin/s, and a
	// slow host stalls them for tens of milliseconds at a time; the low
	// rate keeps the queue those stalls leave short.
	attackRate = 200
	dehinShare = 50
	// reloads is how many back-to-back POST /v1/reload requests the
	// reload phase sends.
	reloads = 3
)

// readLadder is serve-read's fixed rate ladder, climbed until
// ladderMisses consecutive steps miss the limit.
var readLadder = []float64{4000, 8000, 12000, 16000, 20000, 24000}

// attackMix is serve-attack's traffic besides the reloads.
var attackMix = mix{kRisk: 100 - dehinShare, kDehin: dehinShare}

// serveEnv is a generated fixture behind a running hinriskd.
type serveEnv struct {
	path   string
	seed   uint64
	users  int
	edges  int64
	snips  []*snippet
	oracle *oracle
	d      *daemon
	setupS float64
}

// setupServe generates and persists the fixture, computes the oracle and
// the dehin snippets from it, and starts the daemon. setupS covers what
// a deployment pays - generate, persist, daemon start until the first
// request can be sent - not the benchmark's own oracle work. A non-nil
// cpus confines the daemon to that CPU set.
func setupServe(seed uint64, dir, bin string, cpus *cpuMask) (*serveEnv, error) {
	e := &serveEnv{seed: seed, path: filepath.Join(dir, "fixture.hincsr")}
	start := time.Now()
	ds, err := tqq.Generate(genConfig(seed, fixtureUsers))
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	if err := hin.WriteCSRFile(e.path, ds.Graph); err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	gen := time.Since(start).Seconds()

	e.users, e.edges = ds.Graph.NumEntities(), ds.Graph.NumEdgesTotal()
	tgt, err := releaseCommunity(ds, seed)
	if err != nil {
		return nil, err
	}
	ds = nil
	if e.snips, err = buildSnippets(tgt); err != nil {
		return nil, err
	}
	cf, err := hin.OpenCSRFile(e.path)
	if err != nil {
		return nil, err
	}
	e.oracle, err = newOracle(cf.Graph())
	cf.Close() //hin:allow errdrop -- read-only mapping, closed after the oracle copied what it needs
	if err != nil {
		return nil, err
	}
	// Return the generator's garbage before timing the daemon start, so
	// the two processes do not contend with a collection in between.
	runtime.GC()
	debug.FreeOSMemory()
	// From here on the benchmark's heap is small and its allocation is
	// per-request garbage; collecting it less often keeps the generator's
	// own GC cycles from showing up as send lag.
	debug.SetGCPercent(400)

	var starts []float64
	for i := 0; i < daemonStarts; i++ {
		if e.d != nil {
			e.d.stop()
		}
		t0 := time.Now()
		if e.d, err = startDaemon(bin, e.path, filepath.Join(dir, "hinriskd.log"), cpus); err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
	}
	e.setupS = gen + median(starts)
	return e, nil
}

func (e *serveEnv) close() {
	if e.d != nil {
		e.d.stop()
	}
}

// serveResult is one serve workload's end-to-end figures.
type serveResult struct {
	read, attack latency
	// readReload and attackReload are the queries that overlapped the
	// reload phase's rebuilds.
	readReload, attackReload tailLatency
	// readRTT and attackRTT are median round trips, send to response.
	readRTT, attackRTT float64
	readMaxQPS         float64
	// readClosedQPS is what two connections sustain back to back, at
	// the median block's pace.
	readClosedQPS float64
	// readCPUS is the daemon's CPU time per 10k reads sent back to back.
	readCPUS    float64
	reloadS     float64
	reloads     int
	ladder      []ladderStep
	tally       tally
	genLagP99US float64
	rssMB       float64
}

type ladderStep struct {
	Rate    float64
	P99US   float64
	Failed  int
	Backlog bool
	Pass    bool
}

// climb walks the rate ladder upwards, measuring each step, and stops
// once ladderMisses consecutive steps miss the limit (a failed request,
// a growing backlog, or p99 above readLimit). The answer is the highest
// step that passed before that, 0 when none did; a lone miss below it
// counts as noise.
func climb(ladder []float64, measure func(rate float64) (ladderStep, error)) (float64, []ladderStep, error) {
	var best float64
	var steps []ladderStep
	misses := 0
	for _, rate := range ladder {
		st, err := measure(rate)
		if err != nil {
			return 0, steps, err
		}
		st.Pass = st.Failed == 0 && !st.Backlog && st.P99US <= float64(readLimit/time.Microsecond)
		steps = append(steps, st)
		if st.Pass {
			best, misses = rate, 0
		} else if misses++; misses == ladderMisses {
			break
		}
	}
	return best, steps, nil
}

// runServeRead runs readRounds rounds, each offering the read mix
// open-loop at the reference rate for 1/readRounds of the run's duration
// and then closed-loop for closedSlice, and then climbs the rate ladder.
func runServeRead(e *serveEnv, seconds int) (*serveResult, error) {
	gen := newStreamGen(e.seed^0x4ead, e.users, e.snips, readMix)
	g := newGenerator(e.d.base, &checker{o: e.oracle})
	defer g.close()
	res := &serveResult{tally: tallyOf(g.run(gen.stream(int(readRefRate*warmup.Seconds())), readRefRate, nil))}

	var outs []outcome
	var blocks []float64
	var cpu time.Duration
	var closedReads int
	for r := 0; r < readRounds; r++ {
		open := g.run(gen.stream(readRefRate*seconds/readRounds), readRefRate, nil)
		reqs := gen.stream(int(closedMaxRate * closedSlice.Seconds()))
		c0, err := e.d.cpu()
		if err != nil {
			return nil, err
		}
		closed := g.runFor(reqs, closedSlice)
		c1, err := e.d.cpu()
		if err != nil {
			return nil, err
		}
		cpu += c1 - c0
		closedReads += len(closed)
		res.tally = res.tally.add(tallyOf(open)).add(tallyOf(closed))
		outs = append(outs, open...)
		blocks = append(blocks, blockTimes(closed, closedBlock)...)
	}
	var err error
	if res.read, err = summarizeWindows(outs, kind.isRead, time.Microsecond, refWindows); err != nil {
		return nil, err
	}
	res.readRTT = rttMedian(outs, kind.isRead, time.Microsecond)
	if res.genLagP99US, err = lagP99(outs); err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("serve-read: no closed-loop block of %d reads completed", closedBlock)
	}
	res.readClosedQPS = closedBlock / median(blocks)
	res.readCPUS = cpu.Seconds() * 1e4 / float64(closedReads)
	res.readMaxQPS, res.ladder, err = climb(readLadder, func(rate float64) (ladderStep, error) {
		step := g.run(gen.stream(int(rate*stepDuration.Seconds())), rate, nil)
		t := tallyOf(step)
		res.tally = res.tally.add(t)
		// Each window needs 1000 reads for its p99; the lowest steps get
		// fewer windows.
		l, err := summarizeWindows(step, kind.isRead, time.Microsecond, max(1, min(stepWindows, len(step)/1000)))
		_, failed := t.total()
		return ladderStep{Rate: rate, P99US: l.P99, Failed: failed, Backlog: backlogGrew(step, backlogLimit)}, err
	})
	if err != nil {
		return nil, err
	}
	res.rssMB, err = e.d.peakRSSMB()
	return res, err
}

// runServeAttack offers the dehin/risk mix open-loop in two phases. The
// steady phase runs for the run's duration with no reload; its latencies
// are the workload's attack and read figures. The reload phase keeps the
// same traffic going while `reloads` POST /v1/reload requests are sent
// back to back; their median duration is reload_s, and the latencies
// of the queries that overlapped them are reported beside it. A reload
// holds its connection for the whole rebuild, so reloads travel on a
// third connection of their own: the query stream feels a rebuild through
// the cores it takes, not through a client-side queue behind it.
//
// The phases are kept apart because the latency of queries overlapping a
// rebuild is dominated by stalls of tens to hundreds of milliseconds
// whose size varies several-fold from run to run on a 2-core box, which
// would leave the steady-state figures unresolvable.
func runServeAttack(e *serveEnv, seconds int) (*serveResult, error) {
	g := newGenerator(e.d.base, &checker{o: e.oracle})
	defer g.close()
	gen := newStreamGen(e.seed^0xa77c, e.users, e.snips, attackMix)
	warm := tallyOf(g.run(gen.stream(int(attackRate*warmup.Seconds())), attackRate, nil))
	steady := g.run(gen.stream(attackRate*seconds), attackRate, nil)
	during, rel := reloadPhase(g, gen)
	res, err := summarizeAttack(e, steady, during, rel)
	if err != nil {
		return nil, err
	}
	res.tally = warm.add(res.tally)
	return res, nil
}

// reloadPhase sends the attack mix open-loop while `reloads` reloads go
// out back to back on a separate connection, and stops the traffic when
// the last reload answers. It returns the query outcomes that overlapped
// the reloads and the reload outcomes.
func reloadPhase(g *generator, gen *streamGen) (during, rel []outcome) {
	reloader := &generator{base: g.base, chk: g.chk, clients: []*http.Client{newClient()}}
	defer reloader.close()
	// Enough traffic to outlast the reloads several times over; the
	// unsent tail is cut off once they are done.
	reqs := gen.stream(attackRate * 60)
	stop := make(chan struct{})
	done := make(chan []outcome, 1)
	go func() {
		done <- g.run(reqs, attackRate, stop)
	}()
	rs := make([]request, reloads)
	for i := range rs {
		rs[i] = gen.make(kReload)
	}
	rel = reloader.run(rs, 0, nil)
	close(stop)
	return <-done, rel
}

func summarizeAttack(e *serveEnv, steady, during, rel []outcome) (*serveResult, error) {
	res := &serveResult{tally: tallyOf(steady).add(tallyOf(during)).add(tallyOf(rel))}
	var err error
	isDehin := func(k kind) bool { return k == kDehin }
	if res.read, err = summarize(latencies(steady, kind.isRead, time.Microsecond)); err != nil {
		return nil, fmt.Errorf("reads: %w", err)
	}
	if res.attack, err = summarize(latencies(steady, isDehin, time.Millisecond)); err != nil {
		return nil, fmt.Errorf("dehin: %w", err)
	}
	res.readRTT = rttMedian(steady, kind.isRead, time.Microsecond)
	res.attackRTT = rttMedian(steady, isDehin, time.Millisecond)
	// Queries overlapping the rebuilds: fewer of them, so their tail is
	// the highest percentile with ten samples beyond it.
	res.readReload = tail(latencies(during, kind.isRead, time.Microsecond))
	res.attackReload = tail(latencies(during, isDehin, time.Millisecond))
	var ds []float64
	for _, o := range rel {
		if o.ok {
			ds = append(ds, o.rtt.Seconds())
		}
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("serve-attack: no reload succeeded")
	}
	res.reloads = len(ds)
	res.reloadS = median(ds)
	if res.genLagP99US, err = lagP99(steady); err != nil {
		return nil, err
	}
	res.rssMB, err = e.d.peakRSSMB()
	return res, err
}

func (t tally) add(o tally) tally {
	for k := range t.Attempted {
		t.Attempted[k] += o.Attempted[k]
		t.Succeeded[k] += o.Succeeded[k]
		t.Failed[k] += o.Failed[k]
	}
	t.Errors = append(t.Errors, o.Errors...)
	return t
}

// flagString is the daemon flag set as recorded in the stamp.
func flagString() string { return strings.Join(daemonFlags, " ") }
