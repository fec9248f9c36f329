package main

import (
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64 // 0: no percentile qualifies
	}{
		{11000, 99.9}, // rank 10988 leaves 11 beyond
		{10000, 99.9}, // rank 9989 leaves exactly 10
		{9999, 99},    // p99.9 would leave 9
		{1000, 99},    // rank 989 leaves exactly 10
		{999, 90},     // p99 would leave 9
		{100, 90},     // rank 89 leaves exactly 10
		{99, 75},      // p90 would leave 9
		{40, 75},      // rank 29 leaves exactly 10
		{39, 0},       // p75 would leave 9
		{0, 0},
	} {
		p, ok := tailPct(tc.n)
		if p != tc.want || ok != (tc.want > 0) {
			t.Errorf("tailPct(%d) = p%g,%v; want p%g", tc.n, p, ok, tc.want)
		}
	}
}

func TestNearestRankAndSummary(t *testing.T) {
	if got := rankIndex(1, 50); got != 0 {
		t.Errorf("rankIndex(1, 50) = %d", got)
	}
	if got := rankIndex(2, 50); got != 0 {
		t.Errorf("rankIndex(2, 50) = %d, want the lower of two", got)
	}
	if got := rankIndex(0, 50); got != -1 {
		t.Errorf("rankIndex(0, 50) = %d", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1, unsorted
	}
	s := summarize(xs)
	if s.N != 1000 || s.P50 != 500 || s.TailPct != 99 || s.Tail != 990 || s.Max != 1000 || s.Mean != 500.5 {
		t.Errorf("summary = %+v", s)
	}
	if s := summarize([]float64{3, 1, 2}); s.TailPct != 0 || s.P50 != 2 {
		t.Errorf("short sample summary = %+v: want a median and no tail", s)
	}
}

func TestWindowRates(t *testing.T) {
	ms := time.Millisecond
	durs := []time.Duration{400 * ms, 600 * ms, 250 * ms, 250 * ms, 250 * ms, 250 * ms, 300 * ms}
	got := windowRates(durs, time.Second)
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("windowRates = %v, want [2 4] (the 0.3s tail dropped)", got)
	}
	if got := windowRates([]time.Duration{250 * ms, 250 * ms}, time.Second); len(got) != 1 || got[0] != 4 {
		t.Errorf("short run = %v, want one window [4]", got)
	}
}

func TestDueTimeAccountingChargesStalls(t *testing.T) {
	start := time.Unix(0, 0)
	ol := newOpenLoop(start, 1000) // one request per ms
	var log sendLog
	// Request 0 stalls for 10 ms; the generator sends each later request
	// as soon as the previous returns (0.1 ms round trips), so requests
	// 1..9 leave late and each is charged its full wait.
	now := start
	for k := 0; k < 20; k++ {
		due := ol.due(k)
		if now.Before(due) {
			now = due
		}
		rtt := 100 * time.Microsecond
		if k == 0 {
			rtt = 10 * time.Millisecond
		}
		log.record(due, now, now.Add(rtt))
		now = now.Add(rtt)
	}
	if got := log.late[1]; got != 9*time.Millisecond {
		t.Errorf("request 1 late %v, want 9ms", got)
	}
	if got := log.late[1] + log.ack[1]; got != 9100*time.Microsecond {
		t.Errorf("request 1 acked %v after due, want 9.1ms", got)
	}
	// The generator catches up by request 11 and sends on time again.
	if got := log.late[12]; got != 0 {
		t.Errorf("request 12 late %v, want 0", got)
	}
	if got := log.ack[1]; got != 100*time.Microsecond {
		t.Errorf("request 1 round trip %v, want 0.1ms (the stall is not its own)", got)
	}
	if got := log.lateShare(time.Millisecond); got != 9.0/20 {
		t.Errorf("late share %v, want 9/20 (requests 1..9 over 1ms late)", got)
	}
}

func TestProbeMatching(t *testing.T) {
	var m probeMatcher
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

	m.expect(4, at(0), at(1)) // sent 1ms late
	m.observe(1, at(1))       // an unrelated earlier round
	m.observe(4, at(3))
	m.acked(4, time.Millisecond) // the ack returns after completion
	m.expect(8, at(10), at(10))
	m.expect(12, at(11), at(11))
	m.observe(9, at(15)) // the line for round 8 was dropped: missed
	m.observe(12, at(16))
	m.expect(16, at(20), at(20))
	m.cancel(16) // refused: neither completed nor missed
	m.expect(16, at(21), at(21))
	if n := m.outstanding(); n != 1 {
		t.Fatalf("outstanding %d, want 1", n)
	}
	res, missed := m.drain() // round 16 never arrives: missed
	if missed != 2 {
		t.Errorf("missed %d, want 2 (one dropped line, one never arrived)", missed)
	}
	if len(res) != 2 || res[0].target != 4 || res[0].done != 3*time.Millisecond || res[0].served != 2*time.Millisecond ||
		res[0].ack != time.Millisecond || res[1].target != 12 || res[1].done != 5*time.Millisecond || res[1].served != 5*time.Millisecond {
		t.Errorf("results %+v", res)
	}
	if res, missed := m.drain(); len(res) != 0 || missed != 0 {
		t.Errorf("drain did not reset: %v %d", res, missed)
	}
}

func TestProcParsing(t *testing.T) {
	status := "Name:\tnsbench\nVmPeak:\t  812344 kB\nVmHWM:\t   21504 kB\nVmRSS:\t   20480 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 21504 {
		t.Errorf("parseVmHWM = %d, %v", kb, err)
	}
	if _, err := parseVmHWM("VmRSS:\t 1 kB\n"); err == nil {
		t.Error("missing VmHWM accepted")
	}
	if _, err := parseVmHWM("VmHWM:\t 1 MB\n"); err == nil {
		t.Error("VmHWM in unexpected unit accepted")
	}

	stat0 := "cpu  100 5 50 800 10 0 5 30 7 0\ncpu0 50 2 25 400 5 0 2 15 0 0\nintr 1\n"
	stat1 := "cpu  200 5 90 1600 10 0 5 50 9 0\ncpu0 100 2 45 800 5 0 2 25 0 0\n"
	a, err := parseCPUTicks(stat0)
	if err != nil || a.Total != 1000 || a.Steal != 30 {
		t.Fatalf("parseCPUTicks = %+v, %v (guest time is inside user and must not count twice)", a, err)
	}
	b, err := parseCPUTicks(stat1)
	if err != nil {
		t.Fatal(err)
	}
	if got := stealShare(a, b); got != 20.0/960 {
		t.Errorf("steal share %v, want 20/960", got)
	}
	if got := stealShare(b, a); got != 0 {
		t.Errorf("steal share across a counter reset %v, want 0", got)
	}
	if _, err := parseCPUTicks("cpu 1 2 3\n"); err == nil {
		t.Error("short cpu line accepted")
	}
}

func TestCompareRefusesOtherEnvironments(t *testing.T) {
	a := &result{Workload: "dense-256", Seconds: 20, Env: env{NProc: 2, GOMAXPROCS: 2, CPUModel: "A", GoVersion: "go1.24.0", GOARCH: "amd64"}}
	b := *a
	if err := comparable(a, &b); err != nil {
		t.Fatalf("same environment refused: %v", err)
	}
	b.Env.CPUModel = "B"
	b.Env.StealShare = 0.5 // steal is recorded, not compared
	if err := comparable(a, &b); err == nil || !strings.Contains(err.Error(), "cpu_model") {
		t.Errorf("differing CPU model: %v", err)
	}
	c := *a
	c.Workload = "soft-16x4"
	if err := comparable(a, &c); err == nil {
		t.Error("different workloads compared")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root
// in step with the metric and workload lists here.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, gatedE2E) {
		t.Errorf("end_to_end %v, benchmark reports %v", b.EndToEnd, gatedE2E)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer %v, benchmark reports %v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads, benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
