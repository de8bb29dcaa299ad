package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// stamp is the configuration a result was measured under. Two results
// compare only when every field but Commit matches: the commit is what a
// comparison varies, everything else must be held fixed.
type stamp struct {
	Workload   string `json:"workload"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Users      int    `json:"fixture_users"`
	Edges      int64  `json:"fixture_edges"`
	Daemon     string `json:"daemon_flags"`
	// Placement is the CPU set the daemon was confined to, if any (see
	// daemonCPUs).
	Placement string `json:"placement"`
	// Trace is whether the run was the traced layer probe, whose metrics
	// are the per-layer ones, not the end-to-end ones.
	Trace bool `json:"trace"`
}

// newStamp records the machine half of the stamp; the caller fills in
// the fixture and daemon fields once they exist.
func newStamp(workload string, seed uint64, seconds int, traced bool, root, benchDir string) stamp {
	return stamp{
		Workload:   workload,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commitOf(root, benchDir),
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
}

// mismatches lists the fields (other than Commit) on which two stamps
// differ; an empty list means the results are comparable.
func (s stamp) mismatches(o stamp) []string {
	var diffs []string
	check := func(field string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", field, a, b))
		}
	}
	check("workload", s.Workload, o.Workload)
	check("gomaxprocs", s.GOMAXPROCS, o.GOMAXPROCS)
	check("nproc", s.NProc, o.NProc)
	check("cpu", s.CPU, o.CPU)
	check("go_version", s.GoVersion, o.GoVersion)
	check("seed", s.Seed, o.Seed)
	check("seconds", s.Seconds, o.Seconds)
	check("fixture_users", s.Users, o.Users)
	check("fixture_edges", s.Edges, o.Edges)
	check("daemon_flags", s.Daemon, o.Daemon)
	check("placement", s.Placement, o.Placement)
	check("trace", s.Trace, o.Trace)
	return diffs
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitOf names the measured source by a digest of the Go sources and
// module files under root, the benchmark's own directory (skip) and
// dot-directories excluded. It works the same in a git clone and in an
// exported tree without history, and it changes with uncommitted edits.
func commitOf(root, skip string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || p == skip) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
