// Command perfbench is the repository benchmark: the paper's offline
// privacy audit run in-process, and hinriskd loaded open-loop over
// loopback, each on a 500k-user t.qq-style fixture derived from a seed.
//
//	perfbench -bin hinriskd --workload batch-audit|serve-read|serve-attack \
//	          --seed N --seconds S --trace 0|1
//	perfbench compare old.json new.json
//
// With --trace 0 a run measures the end-to-end metrics; with --trace 1 it
// runs the layer probe instead and reports per-layer metrics, writing a
// Chrome trace of its spans. Either way the last stdout line is one JSON
// object {"correct","attempted","failed","metrics"}; the full report,
// with the configuration stamp, goes to <work>/results/. run.sh builds
// this command and hinriskd from the checkout and invokes it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the benchmark's last stdout line.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a run's full record, written to the results directory.
type report struct {
	Stamp stamp `json:"stamp"`
	line
	// Named holds the workload's metrics under their own names
	// (batch_s, read_p99_us, ...), with sample counts where a metric is
	// a percentile.
	Named    map[string]metric `json:"named"`
	Samples  map[string]int    `json:"samples,omitempty"`
	Ladder   []ladderStep      `json:"ladder,omitempty"`
	Tally    *tally            `json:"tally,omitempty"`
	Layers   []layerTime       `json:"layers,omitempty"`
	Problems []string          `json:"problems,omitempty"`
}

var workloads = []string{"batch-audit", "serve-read", "serve-attack"}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// benchMain runs one workload and prints its report and result line.
// Every process and scratch file it creates is gone when it returns.
func benchMain() error {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloads, ", "))
		seed     = flag.Uint64("seed", 1, "seed every input is derived from")
		seconds  = flag.Int("seconds", 10, "measured duration of the run's main phase")
		traced   = flag.Int("trace", 0, "1 runs the traced layer probe instead of the end-to-end measurement")
		bin      = flag.String("bin", "", "hinriskd binary (required)")
		work     = flag.String("work", ".bench_build/work", "scratch and results directory")
	)
	flag.Parse()
	if !contains(workloads, *workload) || *bin == "" || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(*work, "results"), 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*work, *workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep := &report{Stamp: newStamp(*workload, *seed, *seconds, *traced == 1, root, filepath.Join(root, "perfbench"))}
	rep.Stamp.Users = fixtureUsers
	rep.Stamp.Daemon = flagString()
	cpus, err := daemonCPUs(*workload)
	if err != nil {
		return err
	}
	rep.Stamp.Placement = placement(cpus)
	run := runEndToEnd
	if rep.Stamp.Trace {
		run = runTraced
	}
	if err := run(rep, *workload, *seed, *seconds, dir, *bin); err != nil {
		return err
	}
	rep.Correct = rep.Failed == 0 && len(rep.Problems) == 0
	for _, m := range []map[string]metric{rep.Metrics, rep.Named} {
		for k, v := range m {
			// A percentile that lands on a failed request is +Inf (it
			// missed every limit); JSON has no infinity, so it reads as
			// the largest float instead.
			if math.IsInf(v.Value, 1) {
				v.Value = math.MaxFloat64
				m[k] = v
			}
		}
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", *workload, *seed, *traced)
	if err := writeJSON(filepath.Join(*work, "results", name), rep); err != nil {
		return err
	}
	printReport(rep)
	out, err := json.Marshal(rep.line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runEndToEnd measures a workload's end-to-end metrics. The result line's
// metrics have the same names on every workload; each workload fills
// them from its own operations (see LAYERS.md), and Named keeps the
// workload's own metric names.
func runEndToEnd(rep *report, workload string, seed uint64, seconds int, dir, bin string) error {
	named := map[string]metric{}
	samples := map[string]int{}
	var setupS, rssMB, work float64
	switch workload {
	case "batch-audit":
		res, err := runBatchAudit(seed, seconds, dir)
		if err != nil {
			return err
		}
		rep.Stamp.Edges = res.edges
		rep.Attempted, rep.Failed, rep.Problems = res.attempted, res.failed, res.problems
		setupS, rssMB, work = res.setupS, res.rssMB, res.batchS
		named["batch_s"] = metric{res.batchS, "s"}
		named["attack_query_p50_ms"] = metric{res.query.P50, "ms"}
		named["attack_query_p99_ms"] = metric{res.query.P99, "ms"}
		samples["batch_s"] = res.passes
		samples["attack_query_ms"] = res.query.N
	default:
		cpus, err := daemonCPUs(workload)
		if err != nil {
			return err
		}
		e, err := setupServe(seed, dir, bin, cpus)
		if err != nil {
			return err
		}
		defer e.close()
		rep.Stamp.Edges = e.edges
		var res *serveResult
		if workload == "serve-read" {
			res, err = runServeRead(e, seconds)
		} else {
			res, err = runServeAttack(e, seconds)
		}
		if err != nil {
			return err
		}
		rep.Ladder, rep.Tally = res.ladder, &res.tally
		rep.Attempted, rep.Failed = res.tally.total()
		rep.Problems = res.tally.Errors
		setupS, rssMB = e.setupS, res.rssMB
		named["read_p50_us"] = metric{res.read.P50, "us"}
		named["read_p99_us"] = metric{res.read.P99, "us"}
		named["read_rtt_p50_us"] = metric{res.readRTT, "us"}
		samples["read_us"] = res.read.N
		named["load.gen_lag_us_p99"] = metric{res.genLagP99US, "us"}
		if workload == "serve-read" {
			work = res.readCPUS
			named["read_max_qps"] = metric{res.readMaxQPS, "1/s"}
			named["read_closed_qps"] = metric{res.readClosedQPS, "1/s"}
			named["read_cpu_s"] = metric{res.readCPUS, "s"}
		} else {
			work = res.reloadS
			named["attack_p50_ms"] = metric{res.attack.P50, "ms"}
			named["attack_rtt_p50_ms"] = metric{res.attackRTT, "ms"}
			named["attack_p99_ms"] = metric{res.attack.P99, "ms"}
			named["reload_s"] = metric{res.reloadS, "s"}
			named["attack_reload_p50_ms"] = metric{res.attackReload.P50, "ms"}
			named[fmt.Sprintf("attack_reload_p%.0f_ms", 100*res.attackReload.Q)] = metric{res.attackReload.Tail, "ms"}
			named["read_reload_p50_us"] = metric{res.readReload.P50, "us"}
			named[fmt.Sprintf("read_reload_p%.0f_us", 100*res.readReload.Q)] = metric{res.readReload.Tail, "us"}
			samples["attack_reload_ms"] = res.attackReload.N
			samples["read_reload_us"] = res.readReload.N
			samples["attack_ms"] = res.attack.N
			samples["reload_s"] = res.reloads
		}
	}
	named["setup_s"] = metric{setupS, "s"}
	named["rss_mb"] = metric{rssMB, "MiB"}
	rep.Named, rep.Samples = named, samples
	rep.Metrics = map[string]metric{
		"setup_s": {setupS, "s"},
		"rss_mb":  {rssMB, "MiB"},
		"work_s":  {work, "s"},
	}
	return nil
}

// printReport writes the human-readable summary: the stamp, every
// metric by name and unit, and any oracle violations.
func printReport(rep *report) {
	s := rep.Stamp
	fmt.Printf("perfbench %s seed=%d trace=%v  commit=%s\n", s.Workload, s.Seed, s.Trace, s.Commit)
	fmt.Printf("  stamp: GOMAXPROCS=%d nproc=%d cpu=%q go=%s users=%d edges=%d daemon=%q placement=%q\n",
		s.GOMAXPROCS, s.NProc, s.CPU, s.GoVersion, s.Users, s.Edges, s.Daemon, s.Placement)
	for _, k := range sortedNames(rep.Named) {
		m := rep.Named[k]
		fmt.Printf("  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedNames(rep.Samples) {
		fmt.Printf("  samples %-26s %14d\n", k, rep.Samples[k])
	}
	for _, st := range rep.Ladder {
		fmt.Printf("  ladder %6.0f/s p99=%8.1fus failed=%d backlog=%v pass=%v\n", st.Rate, st.P99US, st.Failed, st.Backlog, st.Pass)
	}
	if t := rep.Tally; t != nil {
		for k := kind(0); k < nKinds; k++ {
			if t.Attempted[k] > 0 {
				fmt.Printf("  %-9s attempted=%d succeeded=%d failed=%d\n", k, t.Attempted[k], t.Succeeded[k], t.Failed[k])
			}
		}
	}
	if len(rep.Layers) > 0 {
		fmt.Printf("  %-28s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
		for _, l := range rep.Layers {
			fmt.Printf("  %-28s %7d %12.6f %12.6f\n", l.Name, l.Count, l.TotalS, l.SelfS)
		}
	}
	for _, p := range rep.Problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
