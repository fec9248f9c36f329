package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(tag string, results ...Result) *Report {
	return &Report{Tag: tag, Results: results}
}

func res(name string, ns float64, allocs int64) Result {
	return Result{Name: name, NsPerOp: ns, AllocsPerOp: allocs}
}

func noAllow(t *testing.T) allowance {
	t.Helper()
	a, err := parseAllowNew("")
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDiffPassesOnImprovement(t *testing.T) {
	base := report("old", res("A", 100, 0), res("B", 200, 3))
	cand := report("new", res("A", 90, 0), res("B", 150, 3))
	if f := diff(base, cand, 1.10, noAllow(t)); len(f) != 0 {
		t.Fatalf("unexpected failures: %v", f)
	}
}

func TestDiffFailsOnRegression(t *testing.T) {
	base := report("old", res("A", 100, 0))
	cand := report("new", res("A", 120, 0))
	f := diff(base, cand, 1.10, noAllow(t))
	if len(f) != 1 || !strings.Contains(f[0], "1.20x") {
		t.Fatalf("regression not flagged: %v", f)
	}
}

func TestDiffFailsOnNewAllocations(t *testing.T) {
	base := report("old", res("A", 100, 0))
	cand := report("new", res("A", 100, 2))
	f := diff(base, cand, 1.10, noAllow(t))
	if len(f) != 1 || !strings.Contains(f[0], "allocation-free") {
		t.Fatalf("alloc regression not flagged: %v", f)
	}
}

func TestDiffFailsOnUndeclaredDrop(t *testing.T) {
	base := report("old", res("A", 100, 0), res("B", 50, 0))
	cand := report("new", res("A", 100, 0))
	f := diff(base, cand, 1.10, noAllow(t))
	if len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Fatalf("drop not flagged: %v", f)
	}
}

func TestDiffAllowsDeclaredRemoval(t *testing.T) {
	base := report("old", res("A", 100, 0), res("B", 50, 0))
	cand := report("new", res("A", 100, 0))
	allow, err := parseAllowNew("B")
	if err != nil {
		t.Fatal(err)
	}
	if f := diff(base, cand, 1.10, allow); len(f) != 0 {
		t.Fatalf("declared removal still failed: %v", f)
	}
}

func TestDiffRenameCarriesRegressionGate(t *testing.T) {
	base := report("old", res("A", 100, 0), res("Old", 100, 0))
	cand := report("new", res("A", 100, 0), res("New", 200, 0))
	allow, err := parseAllowNew("Old=New")
	if err != nil {
		t.Fatal(err)
	}
	// The rename is permitted, but New regressed vs Old — still a fail.
	f := diff(base, cand, 1.10, allow)
	if len(f) != 1 || !strings.Contains(f[0], "New (was Old)") {
		t.Fatalf("renamed regression not flagged: %v", f)
	}

	// A clean rename passes, and Old is not reported missing.
	cand2 := report("new", res("A", 100, 0), res("New", 95, 0))
	if f := diff(base, cand2, 1.10, allow); len(f) != 0 {
		t.Fatalf("clean rename failed: %v", f)
	}
}

func TestDiffRejectsDanglingAllowances(t *testing.T) {
	base := report("old", res("A", 100, 0))
	cand := report("new", res("A", 100, 0))
	for _, spec := range []string{"Ghost", "Ghost=A", "A=Ghost"} {
		allow, err := parseAllowNew(spec)
		if err != nil {
			t.Fatal(err)
		}
		if f := diff(base, cand, 1.10, allow); len(f) == 0 {
			t.Fatalf("dangling allowance %q not rejected", spec)
		}
	}
}

func TestDiffNewBenchmarksAreFree(t *testing.T) {
	base := report("old", res("A", 100, 0))
	cand := report("new", res("A", 100, 0), res("Fresh", 1e9, 100))
	if f := diff(base, cand, 1.10, noAllow(t)); len(f) != 0 {
		t.Fatalf("new benchmark should not fail the gate: %v", f)
	}
}

func TestParseAllowNew(t *testing.T) {
	a, err := parseAllowNew(" Old=New , Gone ,X=Y")
	if err != nil {
		t.Fatal(err)
	}
	if a.renames["Old"] != "New" || a.renames["X"] != "Y" || !a.removed["Gone"] {
		t.Fatalf("parse result: %+v", a)
	}
	if _, err := parseAllowNew("=New"); err == nil {
		t.Fatal("malformed rename accepted")
	}
}

func TestDiffNoSharedBenchmarks(t *testing.T) {
	base := report("old", res("A", 100, 0))
	cand := report("new", res("B", 100, 0))
	f := diff(base, cand, 1.10, noAllow(t))
	found := false
	for _, msg := range f {
		if strings.Contains(msg, "no shared benchmarks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no-shared-benchmarks not flagged: %v", f)
	}
}

// writeReport stores r as BENCH_<tag>.json in dir, measured on host
// cpu with the given settings at the given timestamp.
func writeReport(t *testing.T, dir, tag, cpu, ts string, procs int, benchtime string) string {
	t.Helper()
	r := Report{
		Tag: tag, GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64",
		NumCPU: 2, GOMAXPROCS: procs, CPUModel: cpu, BenchTime: benchtime,
		Timestamp: ts, Results: []Result{res("A", 100, 0)},
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_"+tag+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPickSameHostOverNewerForeignReport(t *testing.T) {
	dir := t.TempDir()
	writeReport(t, dir, "a1", "cpu A", "2026-01-01T00:00:00Z", 2, "1s")
	writeReport(t, dir, "a2", "cpu A", "2026-01-02T00:00:00Z", 2, "1s")
	writeReport(t, dir, "b1", "cpu B", "2026-01-03T00:00:00Z", 2, "1s")
	writeReport(t, dir, "a3", "cpu A", "2026-01-04T00:00:00Z", 2, "1s")
	base, cand, err := pickReports(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cand.Tag != "a3" || base == nil || base.Tag != "a2" {
		t.Fatalf("picked %v vs %s, want a3 vs a2", base, cand.Tag)
	}
}

func TestPickNewHostIsBaseline(t *testing.T) {
	dir := t.TempDir()
	a1 := writeReport(t, dir, "a1", "cpu A", "2026-01-01T00:00:00Z", 2, "1s")
	b1 := writeReport(t, dir, "b1", "cpu B", "2026-01-02T00:00:00Z", 2, "1s")
	// A report missing its CPU model matches no host, not even its own.
	c1 := writeReport(t, dir, "c1", "", "2026-01-03T00:00:00Z", 2, "1s")
	c2 := writeReport(t, dir, "c2", "", "2026-01-04T00:00:00Z", 2, "1s")
	for want, paths := range map[string][]string{"b1": {a1, b1}, "c2": {a1, c1, c2}} {
		base, cand, err := pickReports("", paths)
		if err != nil {
			t.Fatal(err)
		}
		if cand.Tag != want || base != nil {
			t.Fatalf("picked %v vs %s, want %s as a new baseline", base, cand.Tag, want)
		}
	}
}

func TestSameHostDifferentSettingsRefused(t *testing.T) {
	for _, tc := range []struct {
		procs     int
		benchtime string
	}{{2, "2s"}, {1, "1s"}} {
		dir := t.TempDir()
		writeReport(t, dir, "a1", "cpu A", "2026-01-01T00:00:00Z", 2, "1s")
		writeReport(t, dir, "a2", "cpu A", "2026-01-02T00:00:00Z", tc.procs, tc.benchtime)
		base, cand, err := pickReports(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base == nil || base.Tag != "a1" {
			t.Fatalf("settings change made a new baseline: %v vs %s", base, cand.Tag)
		}
		if err := sameSettings(base, cand); err == nil {
			t.Fatalf("gomaxprocs %d, bench_time %s vs 2, 1s: compared", tc.procs, tc.benchtime)
		}
	}
}

// TestCommittedPR9VsPR8 keeps the 1-vCPU trajectory's last pair gated:
// among the single-digit reports, PR9 is diffed against PR8 and passes.
func TestCommittedPR9VsPR8(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "BENCH_PR[0-9].json"))
	if err != nil {
		t.Fatal(err)
	}
	base, cand, err := pickReports("", paths)
	if err != nil {
		t.Fatal(err)
	}
	if base == nil || base.Tag != "PR8" || cand.Tag != "PR9" {
		t.Fatalf("picked %v vs %s, want PR9 vs PR8", base, cand.Tag)
	}
	if err := sameSettings(base, cand); err != nil {
		t.Fatal(err)
	}
	if f := diff(base, cand, 1.10, noAllow(t)); len(f) != 0 {
		t.Fatalf("PR9 vs PR8: %v", f)
	}
}
