package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"netscatter/internal/campaign"
	"netscatter/internal/sim"
)

// The campaign-office workload: the committed office grid, run by
// campaign.Runner over nproc workers with a checkpoint journal in a
// fresh directory, until the artifact is written. Every cell builds its
// own world and runs ten rounds, so construction, the trajectory layer
// and the runner's sharding carry real weight.

// officeSpec is the committed grid, relative to the repository root.
const officeSpec = "examples/campaign/office.json"

// specLoads is how many times a run loads and expands the grid; a load
// takes well under a millisecond, so setup_s is the median of many.
const specLoads = 51

// tmpRoot holds the per-pass checkpoint and artifact directories,
// inside the checkout's build directory.
const tmpRoot = ".bench_build/tmp"

// seedAxis replaces the grid's seeds axis: three seeds derived from
// the benchmark seed (seed 0 gives 1 2 3, the committed axis).
func seedAxis(seed int64) []int64 {
	return []int64{3*seed + 1, 3*seed + 2, 3*seed + 3}
}

// loadOffice loads the committed grid, with its seeds axis replaced
// when seeds is set, and expands it: the workload's set-up.
func loadOffice(seeds []int64) (*campaign.Spec, []campaign.Cell, error) {
	spec, err := campaign.LoadSpec(officeSpec)
	if err != nil {
		return nil, nil, err
	}
	if seeds != nil {
		spec.Seeds = seeds
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, nil, err
	}
	return spec, cells, nil
}

// timedExec wraps an executor and records each RunCell's wall time.
type timedExec struct {
	inner campaign.Executor
	mu    sync.Mutex
	cells []time.Duration
}

func (e *timedExec) RunCell(ctx context.Context, c campaign.Cell) (sim.Snapshot, error) {
	t := time.Now()
	s, err := e.inner.RunCell(ctx, c)
	d := time.Since(t)
	e.mu.Lock()
	e.cells = append(e.cells, d)
	e.mu.Unlock()
	return s, err
}

// campaignPass is one full run of the grid.
type campaignPass struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	totals totals // with the artifact's SHA-256
	cells  []sim.Snapshot
}

// samePass compares two runs of one grid the way the reference check
// compares totals: OK within the tolerance, Exact when the artifact
// bytes are identical. The detail counts the cells that differ.
func samePass(name string, got, want campaignPass, ref reference) check {
	c := compareTotals(name, got.totals, want.totals, ref)
	diff := 0
	for i := range got.cells {
		if got.cells[i] != want.cells[i] {
			diff++
		}
	}
	c.Detail = fmt.Sprintf("%d/%d cells differ; sha256 %s vs %s; %s", diff, len(got.cells), got.totals.SHA256, want.totals.SHA256, c.Detail)
	return c
}

// runPass runs spec to a written artifact in a fresh directory and
// returns the artifact's SHA-256. onCell, when set, runs after each
// completed cell.
func runPass(spec *campaign.Spec, exec campaign.Executor, onCell func()) (campaignPass, error) {
	var p campaignPass
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return p, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "campaign-")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	out := filepath.Join(dir, "artifact.json")
	run := campaign.Runner{
		Spec:           spec,
		Exec:           exec,
		Workers:        runtime.NumCPU(),
		CheckpointPath: filepath.Join(dir, "checkpoint.ndjson"),
	}
	if onCell != nil {
		run.Progress = func(int, int, campaign.Cell) { onCell() }
	}
	cpu0, m0 := processCPU(), mallocs()
	t0 := time.Now()
	a, err := run.Run(context.Background())
	if err == nil {
		err = a.WriteFile(out)
	}
	p.wall = time.Since(t0)
	p.cpu = processCPU() - cpu0
	p.allocs = mallocs() - m0
	if err != nil {
		return p, err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return p, err
	}
	sum := sha256.Sum256(data)
	p.totals = totalsOf(a.Totals)
	p.totals.SHA256 = hex.EncodeToString(sum[:])
	for _, c := range a.Results {
		p.cells = append(p.cells, c.Snapshot)
	}
	return p, nil
}

func runCampaign(rc runConfig, r *result) error {
	ref, canon, err := loadReference(rc.Workload)
	if err != nil {
		return err
	}
	var spec *campaign.Spec
	var cells []campaign.Cell
	setup, err := timeSetup(specLoads, func() error {
		spec, cells, err = loadOffice(seedAxis(rc.Seed))
		return err
	})
	if err != nil {
		return err
	}
	gridRounds := 0
	for _, c := range cells {
		gridRounds += c.Rounds
	}

	// Timed passes: whole grids until the time is used (one in a
	// traced run, which spends the rest on the composed executor).
	exec := &timedExec{inner: campaign.LocalExecutor{}}
	var passes []campaignPass
	var wall, cpu time.Duration
	var allocs uint64
	budget := time.Duration(rc.Seconds) * time.Second
	for len(passes) == 0 || (!rc.Trace && wall < budget) {
		p, err := runPass(spec, exec, nil)
		r.Attempted += len(cells)
		if err != nil {
			r.Failed += len(cells)
			return err
		}
		passes = append(passes, p)
		wall += p.wall
		cpu += p.cpu
		allocs += p.allocs
	}
	rounds := gridRounds * len(passes)
	nCells := len(cells) * len(passes)
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	cellMS := summarize(durationsMS(exec.cells))
	r.add("setup_s", "s", median(setup), len(setup))
	var passRates []float64
	for _, p := range passes {
		passRates = append(passRates, float64(gridRounds)/p.wall.Seconds())
	}
	r.add("rounds_per_s", "1/s", median(passRates), rounds)
	r.addSummary("latency_p50_ms", "ms", cellMS, false)
	r.add("cpu_ms_per_round", "ms", ms(cpu)/float64(rounds), rounds)
	r.add("peak_rss_mb", "MB", rss, 0)
	r.add("cells_per_s", "1/s", float64(nCells)/wall.Seconds(), nCells)
	r.addSummary("cell_p99_ms", "ms", cellMS, true)
	r.add("allocs_per_round", "count", float64(allocs)/float64(rounds), rounds)
	seeded := passes[0].totals
	r.add("per", "share", seeded.per(), int(seeded.DeviceRounds))

	// Every pass ran the same spec: report the first pass that strays
	// beyond the tolerance, else the first that is not bit-identical.
	if len(passes) > 1 {
		var stable check
		for i, p := range passes[1:] {
			c := samePass("artifact-stable-across-passes", p, passes[0], ref)
			if i == 0 || !c.OK || (stable.OK && !c.Exact) {
				stable = c
			}
		}
		r.check(stable)
		r.Attempted++
	}
	r.check(plausible(seeded, canon, ref))
	canonSpec, _, err := loadOffice(nil)
	if err != nil {
		return err
	}
	canonPass := passes[0]
	if !slices.Equal(canonSpec.Seeds, spec.Seeds) {
		if canonPass, err = runPass(canonSpec, campaign.LocalExecutor{}, nil); err != nil {
			return err
		}
	}
	r.check(compareTotals("reference", canonPass.totals, canon, ref))
	r.Attempted += 2

	if rc.Trace {
		if err := traceCampaign(rc, r, ref, spec, exec, passes[0]); err != nil {
			return err
		}
	}
	r.add("failed_share", "share", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	return nil
}

// composedExec runs a cell the way serve.RunLocal does, from the
// layers' public constructors, with a span around each constructor and
// round. Each worker borrows its own tracer from the pool.
type composedExec struct {
	tracers chan *tracer
}

func (e *composedExec) RunCell(ctx context.Context, c campaign.Cell) (sim.Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return sim.Snapshot{}, err
	}
	tr := <-e.tracers
	defer func() { e.tracers <- tr }()
	cfg := withDefaults(c.Config)
	req := int64(c.Index)
	root := tr.begin("campaign.cell", -1, req)

	s := tr.begin("deploy.generate", root, req)
	dep := generate(cfg)
	tr.end(s)
	s = tr.begin("sim.new_network", root, req)
	net, err := newNetwork(cfg, dep)
	tr.end(s)
	if err != nil {
		return sim.Snapshot{}, err
	}
	var traj *sim.Trajectory
	if cfg.Adversity != nil {
		s = tr.begin("sim.new_trajectory", root, req)
		traj, err = newTrajectory(cfg, net)
		tr.end(s)
		if err != nil {
			return sim.Snapshot{}, err
		}
	}
	var acc sim.Accumulator
	for i := 0; i < c.Rounds; i++ {
		name := "sim.round"
		if traj != nil {
			name = "sim.step"
		}
		if i == 0 {
			name = "sim.first_round"
		}
		s = tr.begin(name, root, req)
		var st sim.MultiRoundStats
		if traj != nil {
			st, err = traj.Step()
		} else {
			st, err = net.RunRound(cfg.Devices)
		}
		tr.end(s)
		if err != nil {
			return sim.Snapshot{}, err
		}
		s = tr.begin("sim.accumulate", root, req)
		acc.AddMulti(st, net.SoftCombining())
		tr.end(s)
	}
	tr.end(root)
	return acc.Snapshot(), nil
}

// traceCampaign runs the composed executor over the same grid, checks
// its artifact against LocalExecutor's (byte identity reported, the
// tolerance gating, as for repeated passes) and reports the per-layer
// metrics.
func traceCampaign(rc runConfig, r *result, ref reference, spec *campaign.Spec, local *timedExec, base campaignPass) error {
	workers := runtime.NumCPU()
	epoch := time.Now()
	ex := &composedExec{tracers: make(chan *tracer, workers)}
	ts := make([]*tracer, workers)
	for i := range ts {
		ts[i] = newTracer(epoch)
		ex.tracers <- ts[i]
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var mu sync.Mutex
	heapPeak := ms0.HeapAlloc
	p, err := runPass(spec, ex, func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		mu.Lock()
		heapPeak = max(heapPeak, m.HeapAlloc)
		mu.Unlock()
	})
	runtime.ReadMemStats(&ms1)
	r.Attempted++
	if err != nil {
		return err
	}
	r.check(samePass("trace-fidelity", p, base, ref))
	if err := writeSpans(rc.spansPath(), ts); err != nil {
		return err
	}

	cellMS := summarize(durationsMS(local.cells))
	var busy time.Duration
	for _, d := range local.cells {
		busy += d
	}
	r.layer("campaign.cell_ms.p50", "ms", cellMS.P50, cellMS.N)
	r.layer("campaign.cell_ms.max", "ms", cellMS.Max, cellMS.N)
	r.layer("campaign.worker_idle_share", "share", 1-busy.Seconds()/(float64(workers)*base.wall.Seconds()), cellMS.N)

	var construct float64
	for _, name := range []string{"deploy.generate", "sim.new_network", "sim.new_trajectory"} {
		for _, d := range durations(ts, name) {
			construct += d
		}
	}
	var cellTotal float64
	for _, d := range durations(ts, "campaign.cell") {
		cellTotal += d
	}
	for _, span := range []string{"deploy.generate", "sim.new_network", "sim.new_trajectory", "sim.first_round", "sim.round", "sim.step"} {
		r.spanP50(span+"_ms.p50", "ms", ts, span, 1)
	}
	r.spanP50("sim.accumulate_us.p50", "us", ts, "sim.accumulate", 1e3)
	r.layer("sim.setup_share", "share", ratio(construct, cellTotal), cellMS.N)
	detect, crcOK := base.totals.decodeRatios()
	r.layer("core.detect_ratio", "share", detect, int(base.totals.DeviceRounds))
	r.layer("core.crc_ok_ratio", "share", crcOK, int(base.totals.Detected))
	children, _ := childTotal(ts, "campaign.cell")
	r.layer("sim.unaccounted_share", "share", 1-ratio(children, cellMS.Mean), cellMS.N)
	r.layer("runtime.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC), 0)
	r.layer("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, 0)
	r.layer("runtime.heap_peak_mb", "MB", float64(heapPeak)/(1<<20), 0)
	r.layer("trace.overhead_share", "share", ratio(p.wall.Seconds(), base.wall.Seconds())-1, 0)
	return nil
}
