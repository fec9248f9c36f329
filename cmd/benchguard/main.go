// Command benchguard enforces the repository's benchmark trajectory:
// it loads the committed BENCH_<tag>.json reports (written by
// cmd/netscatter-bench), orders them by run timestamp, and diffs the
// newest report against the newest earlier report from the same host.
// The diff fails — exit status 1 — when any benchmark present in both
// reports regressed by more than the threshold in ns/op, when a
// benchmark that was allocation-free starts allocating (the
// steady-state zero-alloc property is part of the trajectory), or when
// a baseline benchmark is missing from the candidate (deleting a
// regressed benchmark must not bypass the gate).
//
// Reports carry machine metadata. A host is GOOS, GOARCH, CPU model
// and CPU count, all recorded and equal: a diff across hosts says
// nothing about the code, so a report with no earlier same-host report
// is the new baseline for its host and passes with a note. The run
// settings — GOMAXPROCS and bench time — must match within a host; a
// same-host pair measured under different settings is refused (exit
// 1), so a new -benchtime cannot start a fresh, ungated trajectory.
//
// Usage:
//
//	go run ./cmd/benchguard [-dir .] [-threshold 1.10] [-allow-new spec] [files...]
//
// Reports are ordered by their embedded run timestamp; the newest is
// the candidate. With explicit file arguments only those reports are
// considered — scripts/benchguard.sh passes the git-tracked ones, so a
// stray uncommitted BENCH_*.json in the working tree cannot hijack the
// gate.
//
// Benchmark suites evolve: a PR that renames a benchmark (or retires
// one deliberately) would otherwise trip the missing-benchmark gate.
// -allow-new names those intentional changes explicitly, as a
// comma-separated list:
//
//	old=new   candidate benchmark "new" is the renamed continuation of
//	          baseline "old" — it is diffed against old's numbers, so
//	          the regression gate still applies across the rename
//	name      baseline benchmark "name" was deliberately removed; its
//	          absence alone does not fail the gate
//
// Entries that match nothing in the reports are an error (a typo must
// not silently weaken the gate).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Result mirrors cmd/netscatter-bench's per-benchmark record.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Report mirrors cmd/netscatter-bench's run record.
type Report struct {
	Tag        string   `json:"tag"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPUModel   string   `json:"cpu_model"`
	BenchTime  string   `json:"bench_time"`
	Timestamp  string   `json:"timestamp"`
	Results    []Result `json:"results"`

	path string
}

func main() {
	dir := flag.String("dir", ".", "directory holding BENCH_*.json reports")
	threshold := flag.Float64("threshold", 1.10, "failure ratio: candidate ns/op vs baseline ns/op")
	allowNew := flag.String("allow-new", "", "comma-separated intentional suite changes: old=new renames, bare names for removals")
	flag.Parse()

	allow, err := parseAllowNew(*allowNew)
	if err != nil {
		fatal(err)
	}
	baseline, candidate, err := pickReports(*dir, flag.Args())
	if err != nil {
		fatal(err)
	}
	if baseline == nil {
		if *allowNew != "" {
			fatal(fmt.Errorf("-allow-new %q: %s has no baseline to apply it to", *allowNew, candidate.Tag))
		}
		h := host(candidate)
		if h == "" {
			h = "with unrecorded machine metadata"
		}
		fmt.Printf("benchguard: %s (%s) has no earlier report from its host (%s): it is the new baseline for that host\n",
			filepath.Base(candidate.path), candidate.Tag, h)
		return
	}
	fmt.Printf("benchguard: %s (%s) vs %s (%s)\n",
		filepath.Base(candidate.path), candidate.Tag, filepath.Base(baseline.path), baseline.Tag)

	if err := sameSettings(baseline, candidate); err != nil {
		fatal(fmt.Errorf("refusing apples-to-oranges diff: %w", err))
	}

	failures := diff(baseline, candidate, *threshold, allow)
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "benchguard: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: no regressions")
}

// allowance is the parsed -allow-new specification.
type allowance struct {
	renames map[string]string // baseline name -> candidate name
	removed map[string]bool   // baseline names allowed to vanish
}

func parseAllowNew(spec string) (allowance, error) {
	a := allowance{renames: map[string]string{}, removed: map[string]bool{}}
	if spec == "" {
		return a, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if old, new, ok := strings.Cut(entry, "="); ok {
			old, new = strings.TrimSpace(old), strings.TrimSpace(new)
			if old == "" || new == "" {
				return a, fmt.Errorf("-allow-new: malformed rename %q", entry)
			}
			a.renames[old] = new
		} else {
			a.removed[entry] = true
		}
	}
	return a, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

// pickReports resolves the (baseline, candidate) pair among either the
// explicit file arguments or dir's BENCH_*.json files: the candidate is
// the most recent report by embedded run timestamp, the baseline the
// most recent earlier one from the same host, or nil when there is
// none.
func pickReports(dir string, args []string) (baseline, candidate *Report, err error) {
	paths := args
	if len(paths) == 0 {
		paths, err = filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
		if err != nil {
			return nil, nil, err
		}
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no BENCH_*.json reports found")
	}

	reports := make([]*Report, 0, len(paths))
	for _, p := range paths {
		r, err := load(p)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, r)
	}
	// RFC 3339 timestamps sort lexicographically; ties (or missing
	// timestamps) fall back to the file name so the order stays stable.
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Timestamp != reports[j].Timestamp {
			return reports[i].Timestamp < reports[j].Timestamp
		}
		return reports[i].path < reports[j].path
	})
	candidate = reports[len(reports)-1]
	if h := host(candidate); h != "" {
		for i := len(reports) - 2; i >= 0; i-- {
			if host(reports[i]) == h {
				return reports[i], candidate, nil
			}
		}
	}
	return nil, candidate, nil
}

func load(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Results) == 0 {
		return nil, fmt.Errorf("%s: report has no results", path)
	}
	r.path = path
	return &r, nil
}

// host names the machine a report was measured on: GOOS, GOARCH, CPU
// count and CPU model. It is empty when any of them was not recorded,
// so such a report matches no host.
func host(r *Report) string {
	if r.GOOS == "" || r.GOARCH == "" || r.NumCPU == 0 || r.CPUModel == "" {
		return ""
	}
	return fmt.Sprintf("%s/%s, %d x %s", r.GOOS, r.GOARCH, r.NumCPU, r.CPUModel)
}

// sameSettings reports whether a same-host pair ran under the same
// run settings: GOMAXPROCS and bench time.
func sameSettings(a, b *Report) error {
	if a.GOMAXPROCS != b.GOMAXPROCS {
		return fmt.Errorf("gomaxprocs differs: %d (%s) vs %d (%s)", a.GOMAXPROCS, a.Tag, b.GOMAXPROCS, b.Tag)
	}
	if a.BenchTime != b.BenchTime {
		return fmt.Errorf("bench_time differs: %q (%s) vs %q (%s)", a.BenchTime, a.Tag, b.BenchTime, b.Tag)
	}
	if a.GoVersion != b.GoVersion {
		fmt.Printf("benchguard: note: go versions differ (%s vs %s)\n", a.GoVersion, b.GoVersion)
	}
	return nil
}

// diff returns one failure message per shared benchmark that regressed,
// plus one per baseline benchmark the candidate dropped — deleting a
// regressed benchmark must not silently bypass the gate. Renames and
// removals declared in allow are honored: a renamed benchmark is diffed
// against its baseline numbers (the gate survives the rename), a
// declared removal is skipped, and an allowance matching nothing fails
// outright.
func diff(baseline, candidate *Report, threshold float64, allow allowance) []string {
	base := make(map[string]Result, len(baseline.Results))
	for _, r := range baseline.Results {
		base[r.Name] = r
	}
	cand := make(map[string]Result, len(candidate.Results))
	for _, r := range candidate.Results {
		cand[r.Name] = r
	}

	var failures []string

	// Resolve declared renames up front: candidate "new" inherits
	// baseline "old"'s numbers under the old name's slot.
	renamedTo := make(map[string]string) // candidate name -> baseline name
	for old, new := range allow.renames {
		if _, ok := base[old]; !ok {
			failures = append(failures, fmt.Sprintf(
				"-allow-new rename %s=%s: %q not in baseline %s", old, new, old, baseline.Tag))
			continue
		}
		if _, ok := cand[new]; !ok {
			failures = append(failures, fmt.Sprintf(
				"-allow-new rename %s=%s: %q not in candidate %s", old, new, new, candidate.Tag))
			continue
		}
		renamedTo[new] = old
	}
	for name := range allow.removed {
		if _, ok := base[name]; !ok {
			failures = append(failures, fmt.Sprintf(
				"-allow-new removal %q: not in baseline %s", name, baseline.Tag))
		}
	}

	seen := make(map[string]bool, len(candidate.Results))
	shared := 0
	for _, cur := range candidate.Results {
		label := cur.Name
		was, ok := base[cur.Name]
		if old, renamed := renamedTo[cur.Name]; renamed {
			was, ok = base[old], true
			label = fmt.Sprintf("%s (was %s)", cur.Name, old)
			seen[old] = true
		}
		seen[cur.Name] = true
		if !ok {
			continue
		}
		shared++
		switch {
		case was.NsPerOp > 0 && cur.NsPerOp > threshold*was.NsPerOp:
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op -> %.0f ns/op (%.2fx > %.2fx allowed)",
				label, was.NsPerOp, cur.NsPerOp, cur.NsPerOp/was.NsPerOp, threshold))
		case was.AllocsPerOp == 0 && cur.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("%s: was allocation-free, now %d allocs/op",
				label, cur.AllocsPerOp))
		default:
			fmt.Printf("benchguard: ok: %-44s %11.0f -> %11.0f ns/op (%.2fx)\n",
				label, was.NsPerOp, cur.NsPerOp, cur.NsPerOp/was.NsPerOp)
		}
	}
	for _, was := range baseline.Results {
		if !seen[was.Name] && !allow.removed[was.Name] {
			failures = append(failures, fmt.Sprintf(
				"%s: present in %s but missing from %s — removals must be deliberate (declare with -allow-new or prune the baseline report)",
				was.Name, baseline.Tag, candidate.Tag))
		}
	}
	if shared == 0 {
		failures = append(failures, "no shared benchmarks between reports — nothing was guarded")
	}
	return failures
}
