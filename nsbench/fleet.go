package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"netscatter/internal/serve"
	"netscatter/internal/sim"
)

// The serve-fleet workload: an in-process serve.Server on a loopback
// listener hosting 256 tiny tenants (the soak test's fleet shape). One
// goroutine sends step requests open loop on one keep-alive connection
// to seeded, uniformly chosen tenants; a seeded tenth of them go to a
// probe tenant whose NDJSON stream, held on a second connection, times
// their completion. A tiny round costs about 0.1 ms, so HTTP/JSON, the
// registry and the fair scheduler carry most of the cost.
//
// A probe is timed twice: from its due time (step_done_*, which charges
// the generator's own lateness to the requests behind it) and from its
// actual send (the gated latency_p50_ms). The generator's sleeps below
// a millisecond overshoot when the runtime idles, by up to a
// millisecond and by more under host steal, and the one connection
// catches up only slowly at this rate; timed from the due time, the
// median doubled in runs with 15% steal while the send-timed median
// moved by under a tenth.

const (
	fleetTenants = 256
	fleetStep    = 4   // rounds per step request
	probeEvery   = 10  // one request in probeEvery (seeded) goes to the probe
	waveRounds   = 8   // rounds per tenant in a drain wave
	fleetSetups  = 9   // fleet creations per run; setup_s is their median
	fleetCycles  = 5   // fixed-rate segment + drain waves, repeated
	metricsEvery = 64  // traced run: sample /metrics every this many requests
	canonFleet   = 16  // canonical check: tenants ...
	canonRounds  = 16  // ... and rounds each
	checkSample  = 8   // tenants cross-checked against serve.RunLocal
	fleetSalt    = 100 // tenant i's deployment seed uses salt fleetSalt+i
)

// fleetRate is the fixed offered rate of the timed phase in steps/s:
// about half the service's saturation rate on the reference host
// (2 vCPU), so queueing is present but bounded.
const fleetRate = 1500.0

// ladderRates are the offered rates (steps/s) tried for the highest
// sustainable rate; each rung must keep the step_done tail under
// ladderLimit with no refusal, no missed probe and no growing send
// backlog. One connection's request round trip bounds the top rungs.
var ladderRates = []float64{750, 1500, 2250, 3000, 3750}

const ladderLimit = 50 * time.Millisecond

// fleetConfig is a fleet tenant's deployment config.
func fleetConfig(name string, seed int64) serve.DeploymentConfig {
	return serve.DeploymentConfig{Name: name, Devices: 2, SF: 6, PayloadBytes: 2, Seed: seed}
}

// fleetHarness owns the in-process server, its listener and the two
// client connections.
type fleetHarness struct {
	srv       *serve.Server
	hs        *http.Server
	base      string
	serveDone chan error
	steps     *serve.Client
	streams   *http.Client
	stepsTr   *http.Transport
	streamTr  *http.Transport

	ids     []int64
	cfgs    map[int64]serve.DeploymentConfig
	probe   int64
	probeAt int // probe tenant's accepted cumulative rounds
	matcher probeMatcher

	streamCancel context.CancelFunc
	streamDone   chan error
}

func startFleet() (*fleetHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &fleetHarness{
		srv:       serve.New(serve.Config{}),
		base:      "http://" + ln.Addr().String(),
		serveDone: make(chan error, 1),
		stepsTr:   &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		streamTr:  &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		cfgs:      make(map[int64]serve.DeploymentConfig),
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	h.steps = &serve.Client{BaseURL: h.base, HTTPClient: &http.Client{Transport: h.stepsTr}}
	h.streams = &http.Client{Transport: h.streamTr}
	go func() { h.serveDone <- h.hs.Serve(ln) }()
	return h, nil
}

// stop closes the stream, shuts the HTTP server down and waits for its
// goroutine, then stops the scheduler.
func (h *fleetHarness) stop() {
	if h.streamCancel != nil {
		h.streamCancel()
		<-h.streamDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // best effort; Serve's return is awaited below
	<-h.serveDone
	h.srv.Close()
	h.stepsTr.CloseIdleConnections()
	h.streamTr.CloseIdleConnections()
}

// createFleet creates the fleet and the probe tenant, returning the
// per-create round trips.
func (h *fleetHarness) createFleet(seed int64, tr *tracer) ([]time.Duration, error) {
	ctx := context.Background()
	h.ids = h.ids[:0]
	var creates []time.Duration
	for i := 0; i <= fleetTenants; i++ {
		cfg := fleetConfig(fmt.Sprintf("fleet-%d", i), deriveSeed(seed, fleetSalt+uint64(i)))
		var sp int32
		if tr != nil {
			sp = tr.begin("serve.create", -1, int64(i))
		}
		t := time.Now()
		id, err := h.steps.CreateDeployment(ctx, cfg)
		creates = append(creates, time.Since(t))
		if tr != nil {
			tr.end(sp)
		}
		if err != nil {
			return nil, fmt.Errorf("create tenant %d: %w", i, err)
		}
		h.cfgs[id] = cfg
		if i == fleetTenants {
			h.probe = id
		} else {
			h.ids = append(h.ids, id)
		}
	}
	return creates, nil
}

// all lists the fleet's tenants and then the probe.
func (h *fleetHarness) all() []int64 {
	return append(slices.Clone(h.ids), h.probe)
}

// deleteFleet tears the current fleet down.
func (h *fleetHarness) deleteFleet() error {
	for _, id := range h.all() {
		if err := h.steps.DeleteDeployment(context.Background(), id); err != nil {
			return err
		}
		delete(h.cfgs, id)
	}
	return nil
}

func (h *fleetHarness) metrics() (map[string]int64, error) {
	return h.steps.Metrics(context.Background())
}

// waitServed polls /metrics until rounds_total reaches target.
func (h *fleetHarness) waitServed(target int64) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := h.metrics()
		if err != nil {
			return err
		}
		if m["rounds_total"] >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("service stalled at %d/%d rounds", m["rounds_total"], target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// openStream holds the probe tenant's NDJSON stream on the second
// connection and feeds every line to the matcher.
func (h *fleetHarness) openStream() error {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/deployments/%d/stream", h.base, h.probe), nil)
	if err != nil {
		cancel()
		return err
	}
	resp, err := h.streams.Do(req)
	if err != nil {
		cancel()
		return err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return fmt.Errorf("stream: HTTP %d", resp.StatusCode)
	}
	h.streamCancel = cancel
	h.streamDone = make(chan error, 1)
	go func() {
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			at := time.Now()
			var u serve.RoundUpdate
			if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
				h.streamDone <- err
				return
			}
			h.matcher.observe(u.Round, at)
		}
		h.streamDone <- sc.Err()
	}()
	return nil
}

// loadPhase is one open-loop run at a fixed rate.
type loadPhase struct {
	log       sendLog
	probes    []probeResult
	missed    int
	throttled int
	errs      int
	rounds    int64 // accepted rounds
	cpu       time.Duration
	allocs    uint64
	queued    []float64 // traced: /metrics queued_turns samples
	m0, m1    map[string]int64
}

// drive sends step requests open loop at rate for d, then waits for
// every accepted round to be served and every probe to resolve.
func (h *fleetHarness) drive(rate float64, d time.Duration, rng *rand.Rand, tr *tracer) (loadPhase, error) {
	var ph loadPhase
	ctx := context.Background()
	m0, err := h.metrics()
	if err != nil {
		return ph, err
	}
	ph.m0 = m0
	cpu0, a0 := processCPU(), mallocs()
	t0 := time.Now()
	ol := newOpenLoop(t0, rate)
	end := t0.Add(d)
	for k := 0; ; k++ {
		due := ol.due(k)
		if !due.Before(end) {
			break
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		isProbe := rng.IntN(probeEvery) == 0
		id, target := h.ids[rng.IntN(len(h.ids))], 0
		var sp int32
		if tr != nil {
			sp = tr.begin("serve.step", -1, int64(k))
		}
		sent := time.Now()
		if isProbe {
			id, target = h.probe, h.probeAt+fleetStep
			h.matcher.expect(target, due, sent)
		}
		_, err := h.steps.Step(ctx, id, fleetStep)
		acked := time.Now()
		if tr != nil {
			tr.end(sp)
		}
		ph.log.record(due, sent, acked)
		switch {
		case err != nil:
			if errors.Is(err, serve.ErrThrottled) {
				ph.throttled++
			} else {
				ph.errs++
			}
			if isProbe {
				h.matcher.cancel(target)
			}
		default:
			ph.rounds += fleetStep
			if isProbe {
				h.probeAt = target
				h.matcher.acked(target, acked.Sub(sent))
			}
		}
		if tr != nil && k%metricsEvery == 0 {
			sp := tr.begin("serve.metrics", -1, int64(k))
			m, err := h.metrics()
			tr.end(sp)
			if err != nil {
				return ph, err
			}
			ph.queued = append(ph.queued, float64(m["queued_turns"]))
		}
	}
	if err := h.waitServed(m0["rounds_total"] + ph.rounds); err != nil {
		return ph, err
	}
	for wait := time.Now().Add(2 * time.Second); h.matcher.outstanding() > 0 && time.Now().Before(wait); {
		time.Sleep(time.Millisecond)
	}
	ph.cpu = processCPU() - cpu0
	ph.allocs = mallocs() - a0
	ph.probes, ph.missed = h.matcher.drain()
	m1, err := h.metrics()
	if err != nil {
		return ph, err
	}
	ph.m1 = m1
	return ph, nil
}

// doneMS is the probe completion times in ms, from their due time.
func (ph *loadPhase) doneMS() []float64 {
	out := make([]float64, len(ph.probes))
	for i, p := range ph.probes {
		out[i] = ms(p.done)
	}
	return out
}

// servedMS is the probe completion times in ms, from their send.
func (ph *loadPhase) servedMS() []float64 {
	out := make([]float64, len(ph.probes))
	for i, p := range ph.probes {
		out[i] = ms(p.served)
	}
	return out
}

// failures counts refused, failed and never-completed operations.
func (ph *loadPhase) failures() int { return ph.throttled + ph.errs + ph.missed }

// fleetLoad aggregates a run's fixed-rate segments.
type fleetLoad struct {
	cycleP50 []float64 // each segment's median probe completion from send, ms
	sent     []float64 // every probe completion from its send, ms
	done     []float64 // every probe completion from its due time, ms
	ack      []float64 // every step round trip, ms
	requests int
	failures int
	served   int64 // rounds served during the segments
	cpu      time.Duration
	allocs   uint64
}

func (l *fleetLoad) add(ph loadPhase) {
	if served := ph.servedMS(); len(served) > 0 {
		l.cycleP50 = append(l.cycleP50, median(served))
		l.sent = append(l.sent, served...)
	}
	l.done = append(l.done, ph.doneMS()...)
	l.ack = append(l.ack, durationsMS(ph.log.ack)...)
	l.requests += len(ph.log.late)
	l.failures += ph.failures()
	l.served += ph.m1["rounds_total"] - ph.m0["rounds_total"]
	l.cpu += ph.cpu
	l.allocs += ph.allocs
}

// wave steps every fleet tenant waveRounds rounds back to back and
// returns the served rounds per second until all of them completed.
func (h *fleetHarness) wave() (float64, int, error) {
	m0, err := h.metrics()
	if err != nil {
		return 0, 0, err
	}
	failed := 0
	var accepted int64
	t := time.Now()
	for _, id := range h.ids {
		if _, err := h.steps.Step(context.Background(), id, waveRounds); err != nil {
			failed++
			continue
		}
		accepted += waveRounds
	}
	if err := h.waitServed(m0["rounds_total"] + accepted); err != nil {
		return 0, failed, err
	}
	return float64(accepted) / time.Since(t).Seconds(), failed, nil
}

// fleetTotals sums the stats of every tenant of the current fleet.
func (h *fleetHarness) fleetTotals() (totals, error) {
	var all sim.Snapshot
	for _, id := range h.all() {
		st, err := h.steps.Stats(context.Background(), id)
		if err != nil {
			return totals{}, err
		}
		all.Merge(st.Stats)
	}
	return totalsOf(all), nil
}

func runFleet(rc runConfig, r *result) error {
	ref, canon, err := loadReference(rc.Workload)
	if err != nil {
		return err
	}
	h, err := startFleet()
	if err != nil {
		return err
	}
	defer h.stop()
	var tr *tracer
	if rc.Trace {
		tr = newTracer(time.Now())
	}

	// Set-up: create the fleet fleetSetups times over HTTP, keeping the
	// last; the heap growth of the last creation gives the per-tenant
	// footprint.
	var setup []float64
	var creates []time.Duration
	var heap0 runtime.MemStats
	for i := 0; i < fleetSetups; i++ {
		if i > 0 {
			if err := h.deleteFleet(); err != nil {
				return err
			}
		}
		debug.FreeOSMemory()
		runtime.ReadMemStats(&heap0)
		var ctr *tracer
		if i == fleetSetups-1 {
			ctr = tr
		}
		t := time.Now()
		if creates, err = h.createFleet(rc.Seed, ctr); err != nil {
			return err
		}
		setup = append(setup, time.Since(t).Seconds())
	}
	r.Attempted += len(creates)
	var heap1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&heap1)
	heapPerTenant := (float64(heap1.HeapAlloc) - float64(heap0.HeapAlloc)) / float64(fleetTenants+1)

	// Warm-up: every tenant grows its round arenas once.
	m, err := h.metrics()
	if err != nil {
		return err
	}
	for _, id := range h.all() {
		if _, err := h.steps.Step(context.Background(), id, 2); err != nil {
			return err
		}
	}
	h.probeAt = 2
	if err := h.waitServed(m["rounds_total"] + 2*(fleetTenants+1)); err != nil {
		return err
	}
	if err := h.openStream(); err != nil {
		return err
	}

	// The tenant-choice and probe sequence.
	rng := rand.New(rand.NewPCG(uint64(rc.Seed), 0))
	secs := time.Duration(rc.Seconds) * time.Second

	// The timed phase alternates fixed-rate segments with drain waves,
	// so both samples span the whole run and a burst of host noise
	// moves their medians less. A traced run spends half its time here
	// without waves, and the other half on the traced segment.
	var load fleetLoad
	var waveRates []float64
	fixedSeg, waveSeg := secs/2/fleetCycles, secs/5/fleetCycles
	if rc.Trace {
		fixedSeg, waveSeg = secs/2/fleetCycles, 0
	}
	for c := 0; c < fleetCycles; c++ {
		ph, err := h.drive(fleetRate, fixedSeg, rng, nil)
		if err != nil {
			return err
		}
		load.add(ph)
		for t0 := time.Now(); time.Since(t0) < waveSeg; {
			rate, failed, err := h.wave()
			if err != nil {
				return err
			}
			r.Attempted += fleetTenants
			r.Failed += failed
			waveRates = append(waveRates, rate)
		}
	}
	r.Attempted += load.requests
	r.Failed += load.failures
	done := summarize(load.done)
	if done.N == 0 {
		return fmt.Errorf("no probe step completed")
	}

	// The rate ladder: each rung must keep the completion tail under
	// ladderLimit with no refusal, missed probe or growing send backlog.
	// Refusals on a failing rung are its measurement, not failures of
	// the workload.
	maxRate := 0.0
	if !rc.Trace {
		rung := secs * 3 / 10 / time.Duration(len(ladderRates))
		for _, rate := range ladderRates {
			ph, err := h.drive(rate, rung, rng, nil)
			if err != nil {
				return err
			}
			d := summarize(ph.doneMS())
			lateTail := summarize(durationsMS(ph.log.late[len(ph.log.late)*9/10:]))
			ok := ph.failures() == 0 && d.TailPct > 0 && d.Tail <= ms(ladderLimit) && lateTail.P50 < 10
			fmt.Printf("ladder rate=%.0f steps/s probes=%d done_p50=%.3fms done_p%g=%.3fms refused=%d missed=%d late_p50_last_decile=%.3fms ok=%v\n",
				rate, d.N, d.P50, d.TailPct, d.Tail, ph.throttled+ph.errs, ph.missed, lateTail.P50, ok)
			if !ok {
				break
			}
			maxRate = rate * fleetStep
		}
	}

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.add("setup_s", "s", median(setup), len(setup))
	if len(waveRates) > 0 {
		r.add("rounds_per_s", "1/s", median(waveRates), len(waveRates))
	}
	r.add("latency_p50_ms", "ms", median(load.cycleP50), done.N)
	r.addSummary("latency_p99_ms", "ms", summarize(load.sent), true)
	r.add("cpu_ms_per_round", "ms", ms(load.cpu)/float64(load.served), int(load.served))
	r.add("peak_rss_mb", "MB", rss, 0)
	r.addSummary("step_done_p50_ms", "ms", done, false)
	r.addSummary("step_done_p99_ms", "ms", done, true)
	r.addSummary("step_ack_p50_ms", "ms", summarize(load.ack), false)
	if !rc.Trace {
		r.add("max_rate_rounds_per_s", "1/s", maxRate, len(ladderRates))
	}
	r.add("allocs_per_round", "count", float64(load.allocs)/float64(load.served), int(load.served))

	// Output checks.
	seeded, err := h.fleetTotals()
	if err != nil {
		return err
	}
	r.add("per", "share", seeded.per(), int(seeded.DeviceRounds))
	r.check(plausible(seeded, canon, ref))
	sample := append([]int64{h.probe}, h.ids[:checkSample]...)
	matches := 0
	for _, id := range sample {
		st, err := h.steps.Stats(context.Background(), id)
		if err != nil {
			return err
		}
		local, err := serve.RunLocal(h.cfgs[id], st.Stats.Rounds)
		if err != nil {
			return err
		}
		if totalsOf(st.Stats) == totalsOf(local) {
			matches++
		}
	}
	r.check(check{Name: "served-matches-serve.RunLocal", OK: matches == len(sample), Exact: matches == len(sample),
		Detail: fmt.Sprintf("%d/%d tenants bit-identical to an in-process run", matches, len(sample))})
	canonTotals, err := h.canonical()
	if err != nil {
		return err
	}
	r.check(compareTotals("reference", canonTotals, canon, ref))
	r.Attempted += 3

	if rc.Trace {
		if err := traceFleet(rc, r, h, rng, tr, median(load.cycleP50), heapPerTenant); err != nil {
			return err
		}
	}
	r.add("failed_share", "share", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	return nil
}

// canonical steps the canonical fleet (seeds 1..canonFleet) on the
// live service and returns its summed totals.
func (h *fleetHarness) canonical() (totals, error) {
	ctx := context.Background()
	var all sim.Snapshot
	for i := 0; i < canonFleet; i++ {
		id, err := h.steps.CreateDeployment(ctx, fleetConfig(fmt.Sprintf("canon-%d", i), int64(i+1)))
		if err != nil {
			return totals{}, err
		}
		if err := h.steps.StepAll(ctx, id, canonRounds, 0); err != nil {
			return totals{}, err
		}
		st, err := h.steps.WaitRounds(ctx, id, canonRounds, time.Millisecond)
		if err != nil {
			return totals{}, err
		}
		all.Merge(st.Stats)
		if err := h.steps.DeleteDeployment(ctx, id); err != nil {
			return totals{}, err
		}
	}
	return totalsOf(all), nil
}

// traceFleet runs a second fixed-rate phase with spans around every
// client call and /metrics sampled, and reports the per-layer metrics.
func traceFleet(rc runConfig, r *result, h *fleetHarness, rng *rand.Rand, tr *tracer, untracedServed, heapPerTenant float64) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ph, err := h.drive(fleetRate, time.Duration(rc.Seconds)*time.Second/2, rng, tr)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return err
	}
	r.Attempted += len(ph.log.late)
	r.Failed += ph.failures()

	// The probe's own rounds, timed in-process on its config: the
	// difference between a run of many steps and a bare build.
	probeCfg := h.cfgs[h.probe]
	const steps = 16
	var bare, full []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := serve.RunLocal(probeCfg, 0); err != nil {
			return err
		}
		bare = append(bare, ms(time.Since(t)))
		t = time.Now()
		if _, err := serve.RunLocal(probeCfg, steps*fleetStep); err != nil {
			return err
		}
		full = append(full, ms(time.Since(t)))
	}
	ownMS := (median(full) - median(bare)) / steps
	var wait []float64
	for _, p := range ph.probes {
		wait = append(wait, ms(p.done)-ms(p.ack)-ownMS)
	}

	ts := []*tracer{tr}
	if err := writeSpans(rc.spansPath(), ts); err != nil {
		return err
	}
	createMS := summarize(durations(ts, "serve.create"))
	ackMS := summarize(durations(ts, "serve.step"))
	lateMS := summarize(durationsMS(ph.log.late))
	queued := summarize(ph.queued)
	delta := func(k string) float64 { return float64(ph.m1[k] - ph.m0[k]) }
	accumulated, noise := channelSamples(withDefaults(h.cfgs[h.probe]))
	r.layer("air.samples_accumulated", "count", float64(accumulated), 0)
	r.layer("air.noise_samples", "count", float64(noise), 0)
	fleet, err := h.fleetTotals()
	if err != nil {
		return err
	}
	detect, crcOK := fleet.decodeRatios()
	r.layer("core.detect_ratio", "share", detect, int(fleet.DeviceRounds))
	r.layer("core.crc_ok_ratio", "share", crcOK, int(fleet.Detected))
	r.layer("serve.create_ms.p50", "ms", createMS.P50, createMS.N)
	r.layer("serve.tenant_heap_kb", "KB", heapPerTenant/1024, fleetTenants+1)
	r.layer("serve.step_ack_ms.p50", "ms", ackMS.P50, ackMS.N)
	r.layer("serve.step_ack_ms.p99", "ms", ackMS.Tail, ackMS.N)
	r.layer("serve.wait_ms.p50", "ms", summarize(wait).P50, len(wait))
	r.layer("serve.queued_turns.mean", "count", queued.Mean, queued.N)
	r.layer("serve.queued_turns.max", "count", queued.Max, queued.N)
	r.layer("serve.throttled", "count", delta("throttled_total"), 0)
	r.layer("serve.errors", "count", delta("http_errors_total")+delta("round_errors_total"), 0)
	r.layer("serve.stream_missed", "count", float64(ph.missed), len(ph.probes)+ph.missed)
	r.layer("loadgen.late_ms.p99", "ms", lateMS.Tail, lateMS.N)
	r.layer("loadgen.late_share", "share", ph.log.lateShare(time.Millisecond), lateMS.N)
	r.layer("runtime.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC), 0)
	r.layer("runtime.gc_pause_ms", "ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, 0)
	r.layer("runtime.heap_peak_mb", "MB", float64(max(ms0.HeapAlloc, ms1.HeapAlloc))/(1<<20), 0)
	r.layer("trace.overhead_share", "share", ratio(median(ph.servedMS()), untracedServed)-1, len(ph.probes))
	return nil
}
