package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netscatter/internal/chirp"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// smallCfg is a fast tenant: tiny world, short rounds.
func smallCfg(seed int64) DeploymentConfig {
	return DeploymentConfig{
		Devices:      2,
		APs:          1,
		SF:           6,
		BandwidthHz:  500e3,
		PayloadBytes: 2,
		Seed:         seed,
	}
}

// newTestServer builds a Server plus an httptest front end and a typed
// client, all torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

// waitRounds polls until the tenant has accumulated at least n rounds.
func waitRounds(t *testing.T, c *Client, id int64, n int) StatsResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Stats(context.Background(), id)
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Stats.Rounds >= n {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("deployment %d stuck at %d/%d rounds", id, st.Stats.Rounds, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestLifecycle: create → list → detail → step → stats → delete → 404.
func TestLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	id, err := c.CreateDeployment(ctx, smallCfg(7))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	list, err := c.List(ctx)
	if err != nil || len(list) != 1 || list[0].ID != id {
		t.Fatalf("list = %v, %v; want one deployment %d", list, err, id)
	}
	info, err := c.Detail(ctx, id)
	if err != nil || info.Config.Devices != 2 || info.Config.SF != 6 {
		t.Fatalf("detail = %+v, %v", info, err)
	}
	if _, err := c.Step(ctx, id, 10); err != nil {
		t.Fatalf("step: %v", err)
	}
	st := waitRounds(t, c, id, 10)
	if st.Stats.Devices != 20 {
		t.Fatalf("10 rounds x 2 devices should give 20 device-rounds, got %d", st.Stats.Devices)
	}
	if err := c.DeleteDeployment(ctx, id); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Detail(ctx, id); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("detail after delete = %v; want 404", err)
	}
}

// TestServedMatchesOracle: a served deployment's totals after N rounds
// are bit-identical to stepping the same seed/config directly — the
// service adds scheduling, not simulation drift.
func TestServedMatchesOracle(t *testing.T) {
	cfg := smallCfg(42)
	cfg.APs = 2
	const rounds = 12

	// Oracle: replicate buildTenant's construction path by hand.
	rng := dsp.NewRand(cfg.Seed)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, cfg.Devices, cfg.BandwidthHz, rng)
	dep.PlaceAPs(cfg.APs)
	sc := sim.DefaultConfig()
	sc.Params = chirp.Params{SF: cfg.SF, BW: cfg.BandwidthHz, Oversample: 1}
	sc.Skip = 2
	sc.PayloadBytes = cfg.PayloadBytes
	net, err := sim.NewMultiAPNetwork(sc, dep, cfg.APs, cfg.Devices, cfg.Seed+1)
	if err != nil {
		t.Fatal(err)
	}
	var want sim.Accumulator
	for i := 0; i < rounds; i++ {
		stats, err := net.RunRound(cfg.Devices)
		if err != nil {
			t.Fatal(err)
		}
		want.AddMulti(stats, false)
	}

	_, c := newTestServer(t, Config{})
	id, err := c.CreateDeployment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(context.Background(), id, rounds); err != nil {
		t.Fatal(err)
	}
	st := waitRounds(t, c, id, rounds)
	if st.Stats != want.Snapshot() {
		t.Fatalf("served stats %+v != direct-simulation oracle %+v", st.Stats, want.Snapshot())
	}
}

// TestRunPause: continuous mode accumulates rounds until paused, then
// stops.
func TestRunPause(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := c.CreateDeployment(ctx, smallCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(ctx, id); err != nil {
		t.Fatalf("run: %v", err)
	}
	waitRounds(t, c, id, 20)
	if _, err := c.Pause(ctx, id); err != nil {
		t.Fatalf("pause: %v", err)
	}
	// After the in-flight turn drains, the count must stop moving. Wait
	// for idle first and only then read the count: a round may finish
	// between a Stats read and a Detail read.
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := c.Detail(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == "idle" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deployment %d still %s after pause", id, info.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := c.Stats(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	last := st.Stats.Rounds
	time.Sleep(20 * time.Millisecond)
	st, err = c.Stats(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats.Rounds != last || st.Continuous {
		t.Fatalf("rounds moved after pause: %d -> %d (continuous=%v)", last, st.Stats.Rounds, st.Continuous)
	}
}

// TestConfigToggles: soft combining and adversity flip live and are
// reflected in listings and stats.
func TestConfigToggles(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	cfg := smallCfg(5)
	cfg.APs = 2
	id, err := c.CreateDeployment(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	on := true
	info, err := c.Configure(ctx, id, ConfigRequest{
		SoftCombining: &on,
		Adversity:     &AdversityConfig{DopplerHz: 4, Correlation: 0.9, SleepProb: 0.05, WakeProb: 0.5},
	})
	if err != nil {
		t.Fatalf("configure: %v", err)
	}
	if !info.Soft || !info.Adversity {
		t.Fatalf("toggles not reflected: %+v", info)
	}
	if _, err := c.Step(ctx, id, 8); err != nil {
		t.Fatal(err)
	}
	st := waitRounds(t, c, id, 8)
	if st.Stats.SoftRounds != 8 {
		t.Fatalf("want 8 soft rounds with combining on, got %d", st.Stats.SoftRounds)
	}
	off := false
	info, err = c.Configure(ctx, id, ConfigRequest{SoftCombining: &off, DisableAdversity: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Soft || info.Adversity {
		t.Fatalf("toggles did not clear: %+v", info)
	}
}

// TestBackpressure: a step past MaxPending and a create past
// MaxDeployments both refuse with 429/ErrThrottled.
func TestBackpressure(t *testing.T) {
	_, c := newTestServer(t, Config{MaxPending: 4, MaxDeployments: 2})
	ctx := context.Background()
	id, err := c.CreateDeployment(ctx, smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ctx, id, 10); err != ErrThrottled {
		t.Fatalf("step of 10 rounds against MaxPending=4 = %v; want ErrThrottled", err)
	}
	if _, err := c.CreateDeployment(ctx, smallCfg(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDeployment(ctx, smallCfg(3)); err != ErrThrottled {
		t.Fatalf("third create against MaxDeployments=2 = %v; want ErrThrottled", err)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["throttled_total"] < 2 {
		t.Fatalf("throttled_total = %d; want >= 2", m["throttled_total"])
	}
}

// TestValidation: malformed configs and unknown ids produce 400/404,
// not tenants.
func TestValidation(t *testing.T) {
	_, c := newTestServer(t, Config{MaxDevices: 8})
	ctx := context.Background()
	bad := []DeploymentConfig{
		{Devices: 0},
		{Devices: 100},         // past MaxDevices
		{Devices: 2, SF: 3},    // SF below chirp's valid range
		{Devices: 2, APs: -1},  // negative APs
		{Devices: 2, Skip: -2}, // negative skip
	}
	for _, cfg := range bad {
		if _, err := c.CreateDeployment(ctx, cfg); err == nil || !strings.Contains(err.Error(), "400") {
			t.Fatalf("create %+v = %v; want HTTP 400", cfg, err)
		}
	}
	if _, err := c.Stats(ctx, 999); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("stats on unknown id = %v; want 404", err)
	}
	if _, err := c.Step(ctx, 999, 1); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("step on unknown id = %v; want 404", err)
	}
}

// TestStream: the NDJSON stream delivers per-round updates and honors
// ?limit.
func TestStream(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := c.CreateDeployment(ctx, smallCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/deployments/%d/stream?limit=5", c.BaseURL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	if _, err := c.Step(ctx, id, 20); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	var got []RoundUpdate
	for sc.Scan() {
		var u RoundUpdate
		if err := json.Unmarshal(sc.Bytes(), &u); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		got = append(got, u)
	}
	if len(got) != 5 {
		t.Fatalf("limit=5 delivered %d updates", len(got))
	}
	for _, u := range got {
		if u.Devices != 2 || u.Round < 1 {
			t.Fatalf("implausible update %+v", u)
		}
	}
}

// TestHealthzAndMetrics: the operational endpoints respond with the
// expected shapes.
func TestHealthzAndMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := c.httpClient().Get(c.BaseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rounds_total", "http_requests_total", "deployments_active", "queued_turns", "goroutines"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, m)
		}
	}
}

// TestPprofRegistered: the pprof index is reachable through the route
// table (a plain mux would 404 it).
func TestPprofRegistered(t *testing.T) {
	_, c := newTestServer(t, Config{})
	resp, err := c.httpClient().Get(c.BaseURL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
}

// TestRoundHotPathAllocs: the per-round tenant work the scheduler turn
// does — run the round, fold stats, publish with no subscribers — is
// allocation-free. This is the property that keeps a thousand resident
// tenants from churning the heap.
func TestRoundHotPathAllocs(t *testing.T) {
	tn, err := buildTenant(smallCfg(11).withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	// Warm the round arenas: first rounds grow buffers once.
	for i := 0; i < 3; i++ {
		if _, err := tn.net.RunRound(tn.cfg.Devices); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(50, func() {
		stats, err := tn.net.RunRound(tn.cfg.Devices)
		if err != nil {
			t.Fatal(err)
		}
		tn.acc.AddMulti(stats, false)
		tn.publish(stats, false)
	})
	if n != 0 {
		t.Fatalf("tenant round hot path allocates %v/op; want 0", n)
	}
}

// TestRoundPanicQuarantinesTenant: a tenant whose round panics fails
// alone. Its turn recovers the panic, records it as the tenant's last
// error and quarantines it — state "quarantined", step and run refused
// with 409, delete still works — and /metrics counts it, while another
// tenant keeps stepping. The panic is a real one from the round path:
// a negative device count slices the round arena out of range. At a
// parent without recovery the test binary dies.
func TestRoundPanicQuarantinesTenant(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()
	bad, err := c.CreateDeployment(ctx, smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	good, err := c.CreateDeployment(ctx, smallCfg(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ctx, bad, 2); err != nil {
		t.Fatal(err)
	}
	waitRounds(t, c, bad, 2)
	tb := s.reg.get(bad)
	tb.stepMu.Lock()
	tb.mu.Lock()
	tb.cfg.Devices = -1
	tb.mu.Unlock()
	tb.stepMu.Unlock()

	if _, err := c.Step(ctx, bad, 3); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := c.Run(ctx, good); err != nil {
		t.Fatalf("run: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	var info DeploymentInfo
	for {
		if info, err = c.Detail(ctx, bad); err != nil {
			t.Fatal(err)
		}
		if info.State == "quarantined" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never quarantined: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(info.LastError, "round panicked") || info.Pending != 0 || info.Continuous {
		t.Fatalf("quarantined tenant = %+v", info)
	}
	if info.Rounds != 2 {
		t.Fatalf("quarantined tenant accumulated %d rounds, want the 2 before the panic", info.Rounds)
	}
	for name, call := range map[string]func() error{
		"step": func() error { _, err := c.Step(ctx, bad, 1); return err },
		"run":  func() error { _, err := c.Run(ctx, bad); return err },
	} {
		if err := call(); err == nil || !strings.Contains(err.Error(), "409") {
			t.Fatalf("%s on a quarantined tenant = %v; want 409", name, err)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m["round_panics_total"] != 1 {
		t.Fatalf("round_panics_total = %d, want 1", m["round_panics_total"])
	}
	// The other tenant is unaffected and keeps running.
	before := waitRounds(t, c, good, 1).Stats.Rounds
	waitRounds(t, c, good, before+5)
	if err := c.DeleteDeployment(ctx, bad); err != nil {
		t.Fatalf("delete quarantined tenant: %v", err)
	}
	if _, err := c.Pause(ctx, good); err != nil {
		t.Fatal(err)
	}
}
