// Command netscatter-bench runs the repository's micro-benchmarks — the
// internal/benchsuite cases that `go test -bench` runs too: decoder
// scaling, the per-symbol spectrum, the padded FFT (full and pruned),
// frame synthesis, noise and the 64-device network rounds — and writes
// the results as machine-readable JSON (BENCH_<tag>.json), so
// successive changes accumulate a perf trajectory that can be diffed
// mechanically.
//
// Usage:
//
//	go run ./cmd/netscatter-bench -tag PR1 [-out .] [-benchtime 1s]
//	    [-best N] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -best N runs the whole suite N times and keeps each benchmark's
// minimum ns/op — the least-noise estimate on a shared machine; the
// chosen N is recorded in the report's best_of field so committed
// trajectories state their own methodology. -cpuprofile/-memprofile
// write pprof profiles covering the benchmark runs (CPU spans every
// pass; the heap snapshot is taken after the last), for
// `go tool pprof` against the netscatter-bench binary.
//
// scripts/benchguard.sh diffs the newest committed report with the
// newest earlier report from the same host and fails on a >10% ns/op
// regression or any new allocation; a report from a new host is that
// host's baseline. Newly added benchmarks are accepted silently;
// renames and removals must be declared explicitly:
//
//	scripts/benchguard.sh                                 # gate HEAD vs previous
//	scripts/benchguard.sh -allow-new OldName=NewName      # declare a rename
//	scripts/benchguard.sh -allow-new RetiredName          # declare a removal
//
// (README.md "Performance trajectory" documents the same workflow.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"netscatter/internal/benchsuite"
)

// Result is one benchmark's outcome.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report is the whole run. GOOS, GOARCH, CPU count and CPU model name
// the host: scripts/benchguard.sh diffs a report only with an earlier
// one from the same host, and refuses a pair whose run settings
// (GOMAXPROCS, bench time) differ, so the committed trajectory can't
// silently mix apples and oranges.
type Report struct {
	Tag        string   `json:"tag"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model,omitempty"`
	BenchTime  string   `json:"bench_time,omitempty"`
	BestOf     int      `json:"best_of,omitempty"`
	Timestamp  string   `json:"timestamp"`
	Results    []Result `json:"results"`
}

// cpuModel returns the CPU model string, best-effort: /proc/cpuinfo on
// Linux, empty elsewhere (the field is omitted, and benchguard then
// matches the report with no host: it is never gated).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func main() {
	testing.Init() // registers test.benchtime before we set it
	tag := flag.String("tag", "local", "report tag; output file is BENCH_<tag>.json")
	out := flag.String("out", ".", "output directory")
	benchtime := flag.Duration("benchtime", time.Second, "per-benchmark target duration")
	best := flag.Int("best", 1, "run the suite N times, keep each benchmark's minimum ns/op")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering all benchmark passes to this file")
	memprofile := flag.String("memprofile", "", "write a post-run heap profile to this file")
	flag.Parse()
	if *best < 1 {
		fmt.Fprintf(os.Stderr, "netscatter-bench: -best must be >= 1\n")
		os.Exit(1)
	}

	// testing.Benchmark honors the package-level benchtime flag.
	if err := flag.CommandLine.Lookup("test.benchtime").Value.Set(benchtime.String()); err != nil {
		fmt.Fprintf(os.Stderr, "netscatter-bench: set benchtime: %v\n", err)
		os.Exit(1)
	}

	report := Report{
		Tag:        *tag,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		BenchTime:  benchtime.String(),
		BestOf:     *best,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	for pass := 0; pass < *best; pass++ {
		if *best > 1 {
			fmt.Printf("pass %d/%d\n", pass+1, *best)
		}
		for i, c := range benchsuite.Cases() {
			fmt.Printf("%-44s", c.Name)
			r := testing.Benchmark(func(b *testing.B) { benchsuite.Run(b, c) })
			res := Result{
				Name:        c.Name,
				Iterations:  r.N,
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			fmt.Printf("%14.0f ns/op %8d allocs/op\n", res.NsPerOp, res.AllocsPerOp)
			if pass == 0 {
				report.Results = append(report.Results, res)
				continue
			}
			// Keep the fastest pass per benchmark; allocation counts are
			// deterministic across passes, so min ns/op picks the
			// least-noise timing without mixing rows.
			if res.NsPerOp < report.Results[i].NsPerOp {
				report.Results[i] = res
			}
		}
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
			os.Exit(1)
		}
		f.Close()
	}

	path := filepath.Join(*out, fmt.Sprintf("BENCH_%s.json", *tag))
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "netscatter-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}
