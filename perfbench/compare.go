package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// specMetric is one metric as BENCHMARK.json declares it. Bound is zero
// for the per-layer metrics, which have none.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json a comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &spec{}
	if err := json.Unmarshal(b, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// lookup returns the declared metric of that name, if any.
func (s *spec) lookup(name string) (specMetric, bool) {
	for _, ms := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		for _, m := range ms {
			if m.Name == name {
				return m, true
			}
		}
	}
	return specMetric{}, false
}

// verdict is the comparison of one metric between two results. Only a
// metric with a bound is judged; every other one is information.
type verdict struct {
	Name     string
	Old, New float64
	// Change is (new-old)/old, with the sign flipped for a metric that is
	// better higher, so that positive is worse. For a metric with no
	// declared direction it is the plain relative change.
	Change   float64
	Directed bool
	Bound    float64 // share the metric may get worse; 0 when unbounded
	Missing  bool    // in the old report, absent from the new one
	Worse    bool    // worse by more than Bound
}

// comparison is two results set side by side. Incomparable lists the
// stamp fields that differ; when it is non-empty no metric verdict is
// given, because the difference could come from the configuration.
type comparison struct {
	Incomparable []string
	Verdicts     []verdict
}

// failed reports whether some metric got worse beyond its bound or went
// missing.
func (c comparison) failed() bool {
	for _, v := range c.Verdicts {
		if v.Worse || v.Missing {
			return true
		}
	}
	return false
}

// compareReports compares every metric of the old report, the result
// line's and the named ones, with its counterpart in the new one.
// Directions and bounds come from the benchmark's spec.
func compareReports(sp *spec, old, cur *report) comparison {
	c := comparison{Incomparable: old.Stamp.mismatches(cur.Stamp)}
	if len(c.Incomparable) > 0 {
		return c
	}
	all := func(r *report) map[string]metric {
		m := map[string]metric{}
		for _, src := range []map[string]metric{r.Named, r.Metrics} {
			for k, v := range src {
				m[k] = v
			}
		}
		return m
	}
	olds, curs := all(old), all(cur)
	for _, name := range sortedNames(olds) {
		o := olds[name]
		v := verdict{Name: name, Old: o.Value}
		n, ok := curs[name]
		if !ok {
			v.Missing = true
			c.Verdicts = append(c.Verdicts, v)
			continue
		}
		v.New = n.Value
		v.Change = (n.Value - o.Value) / o.Value
		if m, ok := sp.lookup(name); ok {
			v.Directed, v.Bound = true, m.Bound
			if m.Better == "higher" {
				v.Change = -v.Change
			}
		}
		v.Worse = v.Bound > 0 && v.Change > v.Bound
		c.Verdicts = append(c.Verdicts, v)
	}
	return c
}

// compareMain implements `perfbench compare old.json new.json` over two
// results-directory reports, run from the root of the checkout so that
// BENCHMARK.json gives each metric's direction and bound. Exit status: 0
// when comparable and no bounded metric is worse beyond its bound and
// none is missing, 1 otherwise, 3 when incomparable.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var reps [2]*report
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 2
		}
		reps[i] = &report{}
		if err := json.Unmarshal(b, reps[i]); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 2
		}
	}
	c := compareReports(sp, reps[0], reps[1])
	if len(c.Incomparable) > 0 {
		fmt.Printf("incomparable: stamps differ in %s\n", strings.Join(c.Incomparable, "; "))
		return 3
	}
	for _, v := range c.Verdicts {
		var change, mark string
		switch {
		case v.Missing:
			fmt.Printf("%-34s %14.4f -> %14s  MISSING\n", v.Name, v.Old, "-")
			continue
		case v.Directed:
			change = fmt.Sprintf("%+8.2f%% worse", 100*v.Change)
		default:
			change = fmt.Sprintf("%+8.2f%% change", 100*v.Change)
		}
		switch {
		case v.Worse:
			mark = fmt.Sprintf("WORSE (bound %.0f%%)", 100*v.Bound)
		case v.Bound > 0:
			mark = fmt.Sprintf("ok (bound %.0f%%)", 100*v.Bound)
		default:
			mark = "info"
		}
		fmt.Printf("%-34s %14.4f -> %14.4f  %s  %s\n", v.Name, v.Old, v.New, change, mark)
	}
	if c.failed() {
		return 1
	}
	return 0
}
