// Command nsbench-pairs summarizes alternating parent/change runs of the
// repository benchmark (nsbench): for each end-to-end metric that
// BENCHMARK.json declares, both sides' median and quartiles, the
// change's median shift, in how many pairs the change was better, with
// "better" taken from the metric's declared direction, and the median
// and quartiles of the per-pair ratio change/parent. The wins and the
// gap between the medians against the parent's interquartile range are
// the benchmark's acceptance rule; the paired ratio is reported beside
// them because both sides drift together over a set of pairs, and a
// ratio taken within each pair cancels that drift where the unpaired
// medians mix it in. The runs' failed counts, correctness and
// environment stamps ride along. Like nsbench compare, it refuses runs
// measured in different environments or with different workload
// settings: a summary across machines says nothing about the code.
//
// scripts/nsbench-pairs.sh produces the runs and calls it. Usage:
//
//	go run ./cmd/nsbench-pairs -benchmark BENCHMARK.json -parent REV -change REV -o OUT.json DIR
//
// DIR holds parent-NN.txt and change-NN.txt, the saved standard output
// of pair NN's two runs. OUT.json holds a list of summaries: the new
// one replaces a summary of the same workload and seed, or is appended.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// report is what one nsbench run prints that a summary reads: the
// nsbench_report line (settings, environment, failed count) and the
// last line (correctness and the end-to-end metrics).
type report struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    bool   `json:"trace"`
	Env      struct {
		Env
		StealShare float64 `json:"steal_share"`
	} `json:"env"`
	Failed int `json:"failed"`

	correct bool
	metrics map[string]float64
}

// Env is nsbench's environment stamp minus the steal share, which is
// a measurement, not part of the environment.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

// Side is one side's distribution of a metric over the pairs.
type Side struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// Metric is one end-to-end metric's summary.
type Metric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Parent Side   `json:"parent"`
	Change Side   `json:"change"`
	// ChangePct is the change median's shift from the parent median,
	// in percent.
	ChangePct float64 `json:"change_pct"`
	// Wins counts the pairs whose change run was strictly better.
	Wins int `json:"wins"`
	// GapExceedsParentIQR reports whether the medians differ by more
	// than the parent's interquartile range.
	GapExceedsParentIQR bool `json:"gap_exceeds_parent_iqr"`
	// PairRatio is the distribution of the per-pair ratio
	// change/parent, its values in pair order; pairs whose parent value
	// is zero have no ratio and are left out.
	PairRatio Side `json:"pair_ratio"`
}

// Summary is one workload and seed's pairs.
type Summary struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Parent   string `json:"parent"`
	Change   string `json:"change"`
	Pairs    int    `json:"pairs"`
	Env      Env    `json:"env"`
	// Per run, in pair order.
	StealShare PerRun[float64] `json:"steal_share"`
	Failed     PerRun[int]     `json:"failed"`
	Correct    PerRun[bool]    `json:"correct"`
	Metrics    []Metric        `json:"metrics"`
}

// PerRun is one value per run of each side, in pair order.
type PerRun[T any] struct {
	Parent []T `json:"parent"`
	Change []T `json:"change"`
}

// File is the committed summary file: one summary per workload and
// seed.
type File struct {
	Summaries []Summary `json:"summaries"`
}

// e2eMetric is one entry of BENCHMARK.json's end_to_end list.
type e2eMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func main() {
	bench := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration holding the end-to-end metrics")
	parent := flag.String("parent", "", "parent revision label")
	change := flag.String("change", "", "change revision label")
	out := flag.String("o", "", "summary file to write (a summary of the same workload and seed is replaced)")
	flag.Parse()
	if flag.NArg() != 1 || *out == "" {
		fmt.Fprintln(os.Stderr, "usage: nsbench-pairs -benchmark BENCHMARK.json -parent REV -change REV -o OUT.json DIR")
		os.Exit(2)
	}
	if err := run(*bench, *parent, *change, *out, flag.Arg(0)); err != nil {
		fmt.Fprintf(os.Stderr, "nsbench-pairs: %v\n", err)
		os.Exit(1)
	}
}

func run(benchPath, parent, change, out, dir string) error {
	var decl struct {
		EndToEnd []e2eMetric `json:"end_to_end"`
	}
	if err := readJSON(benchPath, &decl); err != nil {
		return err
	}
	pr, cr, err := loadPairs(dir)
	if err != nil {
		return err
	}
	s, err := summarize(decl.EndToEnd, pr, cr, parent, change)
	if err != nil {
		return err
	}
	var f File
	if err := readJSON(out, &f); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	f.put(s)
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	for _, m := range s.Metrics {
		fmt.Printf("%s seed=%d %-18s %12.6g -> %12.6g %-4s %+7.2f%%  wins %d/%d  parent IQR %.4g  paired ratio %.4f [%.4f–%.4f]\n",
			s.Workload, s.Seed, m.Name, m.Parent.Median, m.Change.Median, m.Unit, m.ChangePct, m.Wins, s.Pairs, m.Parent.Q3-m.Parent.Q1,
			m.PairRatio.Median, m.PairRatio.Q1, m.PairRatio.Q3)
	}
	return nil
}

// put replaces the summary of s's workload and seed, or appends s.
func (f *File) put(s Summary) {
	for i := range f.Summaries {
		if f.Summaries[i].Workload == s.Workload && f.Summaries[i].Seed == s.Seed {
			f.Summaries[i] = s
			return
		}
	}
	f.Summaries = append(f.Summaries, s)
}

// loadPairs reads DIR's parent-NN.txt and change-NN.txt runs, in pair
// order; every pair must have both runs.
func loadPairs(dir string) (parent, change []report, err error) {
	names, err := filepath.Glob(filepath.Join(dir, "parent-*.txt"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("%s: no parent-NN.txt runs", dir)
	}
	for _, p := range names {
		c := filepath.Join(dir, "change-"+strings.TrimPrefix(filepath.Base(p), "parent-"))
		a, err := readRun(p)
		if err != nil {
			return nil, nil, err
		}
		b, err := readRun(c)
		if err != nil {
			return nil, nil, err
		}
		parent, change = append(parent, a), append(change, b)
	}
	return parent, change, nil
}

// readRun parses one saved nsbench output.
func readRun(path string) (report, error) {
	var r report
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var last string
	found := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, `{"nsbench_report":`) {
			var wrap struct {
				Report *report `json:"nsbench_report"`
			}
			wrap.Report = &r
			if err := json.Unmarshal([]byte(line), &wrap); err != nil {
				return r, fmt.Errorf("%s: %w", path, err)
			}
			found = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, err
	}
	if !found {
		return r, fmt.Errorf("%s: no nsbench_report line", path)
	}
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil || res.Metrics == nil {
		return r, fmt.Errorf("%s: last line is not an nsbench result", path)
	}
	r.correct = res.Correct
	r.metrics = map[string]float64{}
	for k, v := range res.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

// summarize builds the summary of equally long parent and change run
// lists, refusing runs whose settings or environments differ.
func summarize(decl []e2eMetric, parent, change []report, parentRev, changeRev string) (Summary, error) {
	var s Summary
	if len(parent) == 0 || len(parent) != len(change) {
		return s, fmt.Errorf("need equal, non-zero parent and change run counts, have %d and %d", len(parent), len(change))
	}
	ref := parent[0]
	all := append(append([]report(nil), parent...), change...)
	for _, r := range all {
		if r.Workload != ref.Workload || r.Seed != ref.Seed || r.Seconds != ref.Seconds || r.Trace != ref.Trace {
			return s, fmt.Errorf("refusing: runs differ in workload, seed, seconds or trace (%s/%d/%d/%v vs %s/%d/%d/%v)",
				ref.Workload, ref.Seed, ref.Seconds, ref.Trace, r.Workload, r.Seed, r.Seconds, r.Trace)
		}
		if r.Env.Env != ref.Env.Env {
			return s, fmt.Errorf("refusing: environments differ: %+v vs %+v", ref.Env.Env, r.Env.Env)
		}
	}
	s = Summary{Workload: ref.Workload, Seed: ref.Seed, Seconds: ref.Seconds,
		Parent: parentRev, Change: changeRev, Pairs: len(parent), Env: ref.Env.Env}
	for i := range parent {
		s.StealShare.Parent = append(s.StealShare.Parent, parent[i].Env.StealShare)
		s.StealShare.Change = append(s.StealShare.Change, change[i].Env.StealShare)
		s.Failed.Parent = append(s.Failed.Parent, parent[i].Failed)
		s.Failed.Change = append(s.Failed.Change, change[i].Failed)
		s.Correct.Parent = append(s.Correct.Parent, parent[i].correct)
		s.Correct.Change = append(s.Correct.Change, change[i].correct)
	}
	for _, d := range decl {
		m := Metric{Name: d.Name, Unit: d.Unit, Better: d.Better}
		var pv, cv, ratios []float64
		for i := range parent {
			p, okp := parent[i].metrics[d.Name]
			c, okc := change[i].metrics[d.Name]
			if !okp || !okc {
				return s, fmt.Errorf("pair %d lacks metric %s", i+1, d.Name)
			}
			pv, cv = append(pv, p), append(cv, c)
			if (d.Better == "higher" && c > p) || (d.Better != "higher" && c < p) {
				m.Wins++
			}
			if p != 0 {
				ratios = append(ratios, c/p)
			}
		}
		m.Parent, m.Change = side(pv), side(cv)
		if len(ratios) > 0 {
			m.PairRatio = side(ratios)
		}
		if m.Parent.Median != 0 {
			m.ChangePct = 100 * (m.Change.Median/m.Parent.Median - 1)
		}
		gap := m.Change.Median - m.Parent.Median
		if gap < 0 {
			gap = -gap
		}
		m.GapExceedsParentIQR = gap > m.Parent.Q3-m.Parent.Q1
		s.Metrics = append(s.Metrics, m)
	}
	return s, nil
}

// side returns the quartiles of values (linear interpolation between
// order statistics) with the values in run order.
func side(values []float64) Side {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return Side{Median: quantile(sorted, 0.5), Q1: quantile(sorted, 0.25), Q3: quantile(sorted, 0.75), Values: values}
}

// quantile is the q-quantile of sorted values, interpolating linearly
// between the order statistics around position q·(n−1).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
