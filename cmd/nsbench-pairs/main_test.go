package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRun saves a minimal nsbench output: the report line and the
// result line, with cpu_ms_per_round and rounds_per_s set.
func writeRun(t *testing.T, path, cpu string, seed int, cpuMs, rps float64) {
	t.Helper()
	lines := []string{
		"# nsbench soft-16x4",
		fmt.Sprintf(`{"nsbench_report":{"workload":"soft-16x4","seed":%d,"seconds":20,"trace":false,`+
			`"env":{"nproc":2,"gomaxprocs":2,"cpu_model":%q,"go_version":"go1.24.0","goarch":"amd64","steal_share":0.01},"failed":0}}`, seed, cpu),
		fmt.Sprintf(`{"attempted":10,"correct":true,"failed":0,"metrics":{"cpu_ms_per_round":{"unit":"ms","value":%g},"rounds_per_s":{"unit":"1/s","value":%g}}}`, cpuMs, rps),
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func writeBenchmark(t *testing.T, dir string) string {
	t.Helper()
	p := filepath.Join(dir, "BENCHMARK.json")
	decl := `{"end_to_end":[{"name":"cpu_ms_per_round","unit":"ms","better":"lower"},{"name":"rounds_per_s","unit":"1/s","better":"higher"}]}`
	if err := os.WriteFile(p, []byte(decl), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSummaryQuartilesAndWins checks the quartiles, the wins in each
// metric's declared direction, the gap flag, and that a rerun of the
// same workload and seed replaces its summary while another seed is
// appended.
func TestSummaryQuartilesAndWins(t *testing.T) {
	dir := t.TempDir()
	bench := writeBenchmark(t, dir)
	runs := filepath.Join(dir, "runs")
	if err := os.Mkdir(runs, 0o755); err != nil {
		t.Fatal(err)
	}
	// cpu_ms_per_round: parent 10, 11, 12, 13; change 9, 12, 10, 9
	// (wins in pairs 1, 3, 4). rounds_per_s: change higher in pairs 2
	// and 3 only, and its median 0.5 from the parent's, inside the
	// parent's interquartile range of 3.
	parentCPU := []float64{10, 11, 12, 13}
	changeCPU := []float64{9, 12, 10, 9}
	parentRPS := []float64{98, 100, 102, 104}
	changeRPS := []float64{97, 101, 103, 100}
	for i := range parentCPU {
		writeRun(t, filepath.Join(runs, fmt.Sprintf("parent-%02d.txt", i+1)), "X", 1, parentCPU[i], parentRPS[i])
		writeRun(t, filepath.Join(runs, fmt.Sprintf("change-%02d.txt", i+1)), "X", 1, changeCPU[i], changeRPS[i])
	}
	out := filepath.Join(dir, "NSBENCH.json")
	for pass := 0; pass < 2; pass++ {
		if err := run(bench, "p", "c", out, runs); err != nil {
			t.Fatal(err)
		}
	}
	var f File
	if err := readJSON(out, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Summaries) != 1 {
		t.Fatalf("rerun of one workload and seed left %d summaries, want 1", len(f.Summaries))
	}
	s := f.Summaries[0]
	if s.Pairs != 4 || s.Parent != "p" || s.Change != "c" || s.Env.CPUModel != "X" || len(s.Failed.Change) != 4 || !s.Correct.Parent[3] {
		t.Fatalf("summary header wrong: %+v", s)
	}
	cpu, rps := s.Metrics[0], s.Metrics[1]
	if cpu.Parent.Median != 11.5 || cpu.Parent.Q1 != 10.75 || cpu.Parent.Q3 != 12.25 {
		t.Errorf("parent cpu quartiles %v/%v/%v, want 10.75/11.5/12.25", cpu.Parent.Q1, cpu.Parent.Median, cpu.Parent.Q3)
	}
	if cpu.Change.Median != 9.5 || cpu.Wins != 3 || !cpu.GapExceedsParentIQR {
		t.Errorf("change cpu median %v wins %d gap %v, want 9.5, 3, true", cpu.Change.Median, cpu.Wins, cpu.GapExceedsParentIQR)
	}
	if rps.Wins != 2 || rps.GapExceedsParentIQR {
		t.Errorf("rounds_per_s wins %d gap %v, want 2, false", rps.Wins, rps.GapExceedsParentIQR)
	}

	// Another seed is appended.
	for i := range parentCPU {
		writeRun(t, filepath.Join(runs, fmt.Sprintf("parent-%02d.txt", i+1)), "X", 2, parentCPU[i], parentRPS[i])
		writeRun(t, filepath.Join(runs, fmt.Sprintf("change-%02d.txt", i+1)), "X", 2, changeCPU[i], changeRPS[i])
	}
	if err := run(bench, "p", "c", out, runs); err != nil {
		t.Fatal(err)
	}
	buf, _ := os.ReadFile(out)
	if err := json.Unmarshal(buf, &f); err != nil || len(f.Summaries) != 2 {
		t.Fatalf("a second seed left %d summaries (err %v), want 2", len(f.Summaries), err)
	}
}

// TestSummaryRefusesMixedRuns checks that runs from different
// environments or seeds are refused, as nsbench compare refuses them,
// and that a missing change run is an error.
func TestSummaryRefusesMixedRuns(t *testing.T) {
	// The second parent run differs from the rest in one field.
	for _, tc := range []struct {
		name string
		cpu  string
		seed int
		want string
	}{
		{"cpu", "Y", 1, "environments differ"},
		{"seed", "X", 2, "runs differ"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			bench := writeBenchmark(t, dir)
			writeRun(t, filepath.Join(dir, "parent-01.txt"), "X", 1, 10, 100)
			writeRun(t, filepath.Join(dir, "change-01.txt"), "X", 1, 9, 101)
			writeRun(t, filepath.Join(dir, "parent-02.txt"), tc.cpu, tc.seed, 10, 100)
			writeRun(t, filepath.Join(dir, "change-02.txt"), "X", 1, 9, 101)
			out := filepath.Join(dir, "out.json")
			err := run(bench, "p", "c", out, dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Fatalf("a refused summary was written (stat err %v)", err)
			}
		})
	}
	dir := t.TempDir()
	bench := writeBenchmark(t, dir)
	writeRun(t, filepath.Join(dir, "parent-01.txt"), "X", 1, 10, 100)
	if err := run(bench, "p", "c", filepath.Join(dir, "out.json"), dir); err == nil {
		t.Fatal("a pair without its change run was summarized")
	}
}

// TestPairedRatioSeparatesDrift: both sides drift 15% faster over ten
// pairs and the change is 5% better in every pair. The unpaired medians
// differ by less than the parent's interquartile range, so the gap flag
// stays false for all ten wins; the per-pair ratio reads 0.95 with no
// spread.
func TestPairedRatioSeparatesDrift(t *testing.T) {
	dir := t.TempDir()
	bench := writeBenchmark(t, dir)
	const pairs = 10
	for i := 0; i < pairs; i++ {
		p := 10 * (1 - 0.15*float64(i)/(pairs-1))
		writeRun(t, filepath.Join(dir, fmt.Sprintf("parent-%02d.txt", i+1)), "X", 1, p, 100)
		writeRun(t, filepath.Join(dir, fmt.Sprintf("change-%02d.txt", i+1)), "X", 1, 0.95*p, 100)
	}
	out := filepath.Join(dir, "NSBENCH.json")
	if err := run(bench, "p", "c", out, dir); err != nil {
		t.Fatal(err)
	}
	var f File
	if err := readJSON(out, &f); err != nil {
		t.Fatal(err)
	}
	cpu := f.Summaries[0].Metrics[0]
	if cpu.Wins != pairs || cpu.GapExceedsParentIQR {
		t.Errorf("wins %d gap flag %v, want %d and false", cpu.Wins, cpu.GapExceedsParentIQR, pairs)
	}
	r := cpu.PairRatio
	if len(r.Values) != pairs || math.Abs(r.Median-0.95) > 1e-12 || r.Q3-r.Q1 > 1e-12 {
		t.Errorf("paired ratio %v [%v, %v] over %d pairs, want 0.95 with no spread over %d", r.Median, r.Q1, r.Q3, len(r.Values), pairs)
	}
}
