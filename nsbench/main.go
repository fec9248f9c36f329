// Command nsbench is the repository benchmark. Each workload drives a
// public entry point of the simulator — sim rounds, campaign.Runner, or
// the serve HTTP API over loopback — from inputs generated from -seed,
// measures for -seconds, checks the simulated outputs against the
// committed reference (reference.json), and prints its metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// holding the gated end-to-end metrics (-trace 0) or the per-layer
// metrics of a traced run (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// N is the sample count behind the value; 0 for counts and
	// computed figures.
	N int `json:"n,omitempty"`
	// Pct names the percentile a tail figure reports (the highest
	// with at least ten samples beyond it).
	Pct float64 `json:"pct,omitempty"`
}

// check is one output check.
type check struct {
	Name string `json:"name"`
	// OK: within the stated tolerance (a failure counts in failed).
	OK bool `json:"ok"`
	// Exact: bit-for-bit equal to the reference; reported separately
	// so a bit-changing change is visible even when it passes.
	Exact  bool   `json:"exact"`
	Detail string `json:"detail"`
}

// result is everything one run reports.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Trace     bool     `json:"trace"`
	Env       env      `json:"env"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Checks    []check  `json:"checks"`
	E2E       []metric `json:"end_to_end"`
	Layers    []metric `json:"per_layer,omitempty"`
}

func (r *result) add(name, unit string, v float64, n int) {
	r.E2E = append(r.E2E, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *result) addSummary(name, unit string, s summary, tail bool) {
	if tail {
		r.E2E = append(r.E2E, metric{Name: name, Unit: unit, Value: s.Tail, N: s.N, Pct: s.TailPct})
		return
	}
	r.E2E = append(r.E2E, metric{Name: name, Unit: unit, Value: s.P50, N: s.N, Pct: 50})
}

func (r *result) layer(name, unit string, v float64, n int) {
	r.Layers = append(r.Layers, metric{Name: name, Unit: unit, Value: v, N: n})
}

func (r *result) check(c check) {
	r.Checks = append(r.Checks, c)
	if !c.OK {
		r.Failed++
	}
}

// runConfig is one invocation's inputs.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
}

// spansPath is where a traced run writes its spans, inside the
// checkout's build directory.
func (rc runConfig) spansPath() string {
	return fmt.Sprintf(".bench_build/spans-%s-%d.ndjson", rc.Workload, rc.Seed)
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(rc runConfig, r *result) error{
	"dense-256":       runDense,
	"soft-16x4":       runSoft,
	"campaign-office": runCampaign,
	"serve-fleet":     runFleet,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var rc runConfig
	var trace int
	flag.StringVar(&rc.Workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&rc.Seed, "seed", 1, "input seed")
	flag.IntVar(&rc.Seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer variant")
	flag.Parse()
	rc.Trace = trace == 1
	run, ok := workloads[rc.Workload]
	if !ok || rc.Seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "nsbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}

	r := &result{Workload: rc.Workload, Seed: rc.Seed, Seconds: rc.Seconds, Trace: rc.Trace}
	ticks0 := readCPUTicks()
	if err := run(rc, r); err != nil {
		fmt.Fprintf(os.Stderr, "nsbench: %s: %v\n", rc.Workload, err)
		os.Exit(1)
	}
	r.Env = stampEnv(stealShare(ticks0, readCPUTicks()))
	if r.Trace {
		r.layer("host.steal_share", "share", r.Env.StealShare, 0)
	}
	if err := emit(os.Stdout, r); err != nil {
		fmt.Fprintf(os.Stderr, "nsbench: %v\n", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// env is the environment stamp recorded with every result; compare
// refuses to diff results whose stamps differ.
type env struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GOARCH     string  `json:"goarch"`
	StealShare float64 `json:"steal_share"`
}

func stampEnv(steal float64) env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		StealShare: steal,
	}
}

// emit prints the human-readable report, the full JSON report line
// (what compare reads) and, last, the result line.
func emit(w *os.File, r *result) error {
	fmt.Fprintf(w, "# nsbench %s seed=%d seconds=%d trace=%v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "# env nproc=%d gomaxprocs=%d cpu=%q go=%s steal_share=%.4f\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.CPUModel, r.Env.GoVersion, r.Env.StealShare)
	for _, c := range r.Checks {
		fmt.Fprintf(w, "check %-28s ok=%-5v exact=%-5v %s\n", c.Name, c.OK, c.Exact, c.Detail)
	}
	printMetrics := func(kind string, ms []metric) {
		for _, m := range ms {
			extra := ""
			if m.N > 0 {
				extra = fmt.Sprintf(" n=%d", m.N)
			}
			if m.Pct > 0 {
				extra += fmt.Sprintf(" p%g", m.Pct)
			}
			fmt.Fprintf(w, "%s %-30s %14.6g %-6s%s\n", kind, m.Name, m.Value, m.Unit, extra)
		}
	}
	printMetrics("e2e", r.E2E)
	printMetrics("layer", r.Layers)

	line, err := json.Marshal(struct {
		Report *result `json:"nsbench_report"`
	}{r})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)

	out := map[string]map[string]any{}
	if r.Trace {
		have := map[string]metric{}
		for _, m := range r.Layers {
			have[m.Name] = m
		}
		for _, l := range perLayer {
			// A layer the workload does not exercise reports 0.
			out[l.Name] = map[string]any{"value": have[l.Name].Value, "unit": l.Unit}
		}
	} else {
		have := map[string]metric{}
		for _, m := range r.E2E {
			have[m.Name] = m
		}
		for _, g := range gatedE2E {
			m, ok := have[g.Name]
			if !ok || m.Unit != g.Unit {
				return fmt.Errorf("workload %s did not report %s in %s", r.Workload, g.Name, g.Unit)
			}
			out[g.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("workload %s attempted nothing", r.Workload)
	}
	final, err := json.Marshal(map[string]any{
		"correct":   r.Failed == 0,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", final)
	return err
}
