package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// compare diffs the end-to-end metrics of two saved benchmark outputs
// of one workload, and refuses when they were measured in different
// environments: a diff across machines says nothing about the code.

// higherIsBetter lists the end-to-end metrics where a larger value is
// an improvement; for every other metric smaller is better.
var higherIsBetter = map[string]bool{
	"rounds_per_s":          true,
	"cells_per_s":           true,
	"max_rate_rounds_per_s": true,
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: nsbench compare OLD NEW (saved standard output of two runs)")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b *result
		if b, err = readReport(args[1]); err == nil {
			if err = comparable(a, b); err == nil {
				printDiff(a, b)
				return 0
			}
		}
	}
	fmt.Fprintf(os.Stderr, "nsbench compare: %v\n", err)
	return 2
}

// readReport finds the nsbench_report line in a saved output.
func readReport(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), `{"nsbench_report":`) {
			continue
		}
		var line struct {
			Report *result `json:"nsbench_report"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return line.Report, nil
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s: no nsbench_report line", path)
}

// comparable refuses a diff across workloads or environments.
func comparable(a, b *result) error {
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing: runs differ in workload, trace or seconds (%s/%v/%d vs %s/%v/%d)",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds)
	}
	var diffs []string
	for _, f := range []struct {
		name     string
		old, new any
	}{
		{"nproc", a.Env.NProc, b.Env.NProc},
		{"gomaxprocs", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS},
		{"cpu_model", a.Env.CPUModel, b.Env.CPUModel},
		{"go_version", a.Env.GoVersion, b.Env.GoVersion},
		{"goarch", a.Env.GOARCH, b.Env.GOARCH},
	} {
		if f.old != f.new {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", f.name, f.old, f.new))
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("refusing: environments differ: %s", strings.Join(diffs, "; "))
	}
	return nil
}

func printDiff(a, b *result) {
	fmt.Printf("%s: steal share %.4f -> %.4f\n", a.Workload, a.Env.StealShare, b.Env.StealShare)
	newer := map[string]metric{}
	for _, m := range b.E2E {
		newer[m.Name] = m
	}
	for _, m := range a.E2E {
		n, ok := newer[m.Name]
		if !ok {
			fmt.Printf("%-24s %14.6g -> (absent)\n", m.Name, m.Value)
			continue
		}
		verdict := "same"
		if d := n.Value - m.Value; d != 0 {
			verdict = "worse"
			if (d > 0) == higherIsBetter[m.Name] {
				verdict = "better"
			}
		}
		fmt.Printf("%-24s %14.6g -> %14.6g %-6s %+7.2f%% %s\n", m.Name, m.Value, n.Value, m.Unit, 100*(ratio(n.Value, m.Value)-1), verdict)
	}
}
