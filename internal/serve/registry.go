package serve

// The deployment registry and the tenant round loop. A tenant is one
// hosted deployment: its own geometry, network (round arenas, decoders,
// RNG) and statistics. Control-plane state (pending rounds, continuous
// mode, lifecycle) lives behind tenant.mu; the simulation itself is
// serialized by the fair scheduler plus tenant.stepMu (config mutations
// take stepMu to exclude a running turn). The round hot path —
// RunRound/Step, the accumulator fold, the subscriber fan-out — is
// allocation-free for non-adversity tenants, which is what lets one
// process hold thousands of them (the soak test pins this).

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"netscatter/internal/chirp"
	"netscatter/internal/deploy"
	"netscatter/internal/dsp"
	"netscatter/internal/radio"
	"netscatter/internal/sim"
)

// DeploymentConfig creates one tenant. Zero fields select defaults;
// Devices is mandatory.
type DeploymentConfig struct {
	// Name is an optional label echoed back in listings.
	Name string `json:"name,omitempty"`
	// Devices is the concurrent device count (1..Config.MaxDevices).
	Devices int `json:"devices"`
	// APs is the access-point count heard by the deployment
	// (default 1; >1 enables cross-AP selection combining).
	APs int `json:"aps,omitempty"`
	// SF is the chirp spreading factor (default 9).
	SF int `json:"sf,omitempty"`
	// BandwidthHz is the chirp bandwidth (default 500 kHz).
	BandwidthHz float64 `json:"bandwidth_hz,omitempty"`
	// Skip is the minimum cyclic-shift spacing (default 2).
	Skip int `json:"skip,omitempty"`
	// PayloadBytes per device per round (default 5).
	PayloadBytes int `json:"payload_bytes,omitempty"`
	// Seed pins the deployment geometry and every simulation draw
	// (default 1). Equal configs step bit-identical rounds.
	Seed int64 `json:"seed,omitempty"`
	// SoftCombining enables the soft (summed power spectra) cross-AP
	// decode from creation; it can also be toggled later via config.
	SoftCombining bool `json:"soft_combining,omitempty"`
	// OptimizePlacement replaces the default AP line placement with
	// the greedy combined-PER optimizer.
	OptimizePlacement bool `json:"optimize_placement,omitempty"`
	// Adversity, when set, steps the deployment through the
	// time-varying adversarial world from the first round.
	Adversity *AdversityConfig `json:"adversity,omitempty"`
}

// AdversityConfig selects the trajectory's time-varying processes
// (zero fields disable the corresponding process; see
// sim.TrajectoryConfig for semantics and defaults).
type AdversityConfig struct {
	DopplerHz     float64 `json:"doppler_hz,omitempty"`
	Correlation   float64 `json:"correlation,omitempty"`
	CFODriftHz    float64 `json:"cfo_drift_hz,omitempty"`
	MobilityStepM float64 `json:"mobility_step_m,omitempty"`
	SleepProb     float64 `json:"sleep_prob,omitempty"`
	WakeProb      float64 `json:"wake_prob,omitempty"`
	BurstProb     float64 `json:"burst_prob,omitempty"`
	APDropProb    float64 `json:"ap_drop_prob,omitempty"`
}

func (c DeploymentConfig) withDefaults() DeploymentConfig {
	if c.APs == 0 {
		c.APs = 1
	}
	if c.SF == 0 {
		c.SF = 9
	}
	if c.BandwidthHz == 0 {
		c.BandwidthHz = 500e3
	}
	if c.Skip == 0 {
		c.Skip = 2
	}
	if c.PayloadBytes == 0 {
		c.PayloadBytes = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c DeploymentConfig) validate(maxDevices int) error {
	switch {
	case c.Devices < 1:
		return fmt.Errorf("devices must be at least 1 (got %d)", c.Devices)
	case c.Devices > maxDevices:
		return fmt.Errorf("devices %d exceeds the service limit %d", c.Devices, maxDevices)
	case c.APs < 1:
		return fmt.Errorf("aps must be at least 1 (got %d)", c.APs)
	case c.PayloadBytes < 1:
		return fmt.Errorf("payload_bytes must be at least 1 (got %d)", c.PayloadBytes)
	case c.Skip < 1:
		return fmt.Errorf("skip must be at least 1 (got %d)", c.Skip)
	}
	p := chirp.Params{SF: c.SF, BW: c.BandwidthHz, Oversample: 1}
	if err := p.Validate(); err != nil {
		return err
	}
	return nil
}

// RoundUpdate is one completed round as published to stream
// subscribers.
type RoundUpdate struct {
	Round        int     `json:"round"`
	Devices      int     `json:"devices"`
	FramesOK     int     `json:"frames_ok"`
	SoftFramesOK int     `json:"soft_frames_ok,omitempty"`
	PER          float64 `json:"per"`
}

// tenant is one hosted deployment.
type tenant struct {
	id      int64
	cfg     DeploymentConfig // defaults applied
	created time.Time

	// stepMu serializes simulation access: the scheduler turn holds it
	// across its rounds, config mutations take it to exclude them.
	stepMu    sync.Mutex
	net       *sim.MultiAPNetwork
	tr        *sim.Trajectory // nil until adversity is first enabled
	adversity bool            // step through tr rather than net

	acc sim.Accumulator

	// mu guards the control-plane fields below. advOn/softOn mirror
	// the sim-plane toggles (t.adversity, the network's soft flag,
	// both guarded by stepMu) so listings and stats never contend with
	// a turn in progress.
	mu         sync.Mutex
	closed     bool
	pending    int  // requested rounds not yet run
	continuous bool // keep running without explicit steps
	scheduled  bool // a turn is queued or running
	advOn      bool
	softOn     bool
	lastErr    string
	// quarantined is set once a round panicked: the tenant's arenas
	// are in an unknown state, so it runs no further rounds and only
	// listing, stats and delete still serve it.
	quarantined bool
	subs        []chan RoundUpdate

	turnFn func() // persistent scheduler job (allocated once)
}

// buildTenant constructs the tenant's world exactly the way
// cmd/netscatter-sim does for the same knobs: geometry from Seed,
// network from Seed+1, so a served deployment is bit-identical to the
// corresponding batch run (the endpoint test pins this).
func buildTenant(cfg DeploymentConfig) (*tenant, error) {
	rng := dsp.NewRand(cfg.Seed)
	dep := deploy.Generate(deploy.DefaultOffice, radio.DefaultLinkBudget, cfg.Devices, cfg.BandwidthHz, rng)
	if cfg.OptimizePlacement {
		dep.PlaceAPsOptimized(cfg.APs)
	} else {
		dep.PlaceAPs(cfg.APs)
	}
	sc := sim.DefaultConfig()
	sc.Params = chirp.Params{SF: cfg.SF, BW: cfg.BandwidthHz, Oversample: 1}
	sc.Skip = cfg.Skip
	sc.PayloadBytes = cfg.PayloadBytes
	net, err := sim.NewMultiAPNetwork(sc, dep, cfg.APs, cfg.Devices, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	net.SetSoftCombining(cfg.SoftCombining)
	t := &tenant{cfg: cfg, created: time.Now(), net: net, softOn: cfg.SoftCombining}
	if cfg.Adversity != nil {
		if err := t.ensureTrajectory(*cfg.Adversity); err != nil {
			return nil, err
		}
		t.adversity = true
		t.advOn = true
	}
	return t, nil
}

// ensureTrajectory attaches the tenant's trajectory on first enable.
// The adversity processes are fixed at that point; later enables
// reattach the same trajectory (its protocol state carries over).
// Callers hold stepMu, or own the tenant exclusively as buildTenant
// does.
func (t *tenant) ensureTrajectory(a AdversityConfig) error {
	if t.tr != nil {
		return nil
	}
	tr, err := sim.NewTrajectory(t.net, sim.TrajectoryConfig{
		Seed:          t.cfg.Seed,
		DopplerHz:     a.DopplerHz,
		Correlation:   a.Correlation,
		CFODriftHz:    a.CFODriftHz,
		MobilityStepM: a.MobilityStepM,
		SleepProb:     a.SleepProb,
		WakeProb:      a.WakeProb,
		BurstProb:     a.BurstProb,
		APDropProb:    a.APDropProb,
		// A resident service must not grow per-round series without
		// bound; the tenant accumulator is the durable aggregate.
		NoSeries: true,
	})
	if err != nil {
		return err
	}
	t.tr = tr
	return nil
}

// registry is the id→tenant map.
type registry struct {
	mu      sync.Mutex
	tenants map[int64]*tenant
	nextID  int64
}

func (r *registry) add(t *tenant, limit int) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.tenants) >= limit {
		return 0, fmt.Errorf("deployment limit %d reached", limit)
	}
	r.nextID++
	t.id = r.nextID
	r.tenants[t.id] = t
	return t.id, nil
}

func (r *registry) get(id int64) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[id]
}

func (r *registry) remove(id int64) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[id]
	delete(r.tenants, id)
	return t
}

func (r *registry) all() []*tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (r *registry) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.tenants)
}

// kick ensures a turn is queued for the tenant. Callers hold t.mu.
func (s *Server) kickLocked(t *tenant) error {
	if t.scheduled || t.closed {
		return nil
	}
	if t.turnFn == nil {
		t.turnFn = func() { s.turn(t) }
	}
	if err := s.sched.Submit(t.id, t.turnFn); err != nil {
		return err
	}
	t.scheduled = true
	return nil
}

// turn is one scheduled slice of a tenant's round stream: up to
// RoundBudget rounds, then yield and resubmit if work remains. The
// scheduler guarantees one turn per tenant at a time; stepMu
// additionally excludes control-plane config mutations.
func (s *Server) turn(t *tenant) {
	t.stepMu.Lock()
	defer t.stepMu.Unlock()
	for ran := 0; ran < s.cfg.RoundBudget; ran++ {
		t.mu.Lock()
		if t.closed || (t.pending == 0 && !t.continuous) {
			t.mu.Unlock()
			break
		}
		if t.pending > 0 {
			t.pending--
		}
		t.mu.Unlock()

		stats, panicked, err := t.guardedStep()
		if panicked {
			t.mu.Lock()
			t.lastErr = err.Error()
			t.quarantined = true
			t.continuous = false
			t.pending = 0
			t.mu.Unlock()
			s.metrics.roundPanics.Add(1)
			break
		}
		if err != nil {
			t.mu.Lock()
			t.lastErr = err.Error()
			t.continuous = false
			t.pending = 0
			t.mu.Unlock()
			s.metrics.roundErrors.Add(1)
			break
		}
		// A completed round supersedes any recorded failure: clear the
		// sticky error so long-lived listings report recovery instead of
		// the last incident forever.
		t.mu.Lock()
		t.lastErr = ""
		t.mu.Unlock()
		soft := t.net.SoftCombining()
		t.acc.AddMulti(stats, soft)
		s.metrics.rounds.Add(1)
		s.metrics.framesOK.Add(int64(stats.Combined.FramesOK))
		t.publish(stats, soft)
	}

	t.mu.Lock()
	if !t.closed && !t.quarantined && (t.continuous || t.pending > 0) {
		// Stay scheduled: queue the next turn before releasing the
		// flag so a concurrent step request doesn't double-queue.
		if err := s.sched.Submit(t.id, t.turnFn); err != nil {
			t.scheduled = false
			t.lastErr = err.Error()
		}
	} else {
		t.scheduled = false
	}
	t.mu.Unlock()
}

// step runs one round of the tenant: a trajectory step once adversity
// is on, a plain round otherwise. Callers hold stepMu, or own the
// tenant exclusively as RunLocal does.
func (t *tenant) step() (sim.MultiRoundStats, error) {
	if t.adversity {
		return t.tr.Step()
	}
	return t.net.RunRound(t.cfg.Devices)
}

// guardedStep is step for a scheduler turn: a panic anywhere in the
// round — on this goroutine, or on a fan-out helper, whose panic the
// pool re-raises here — comes back as an error with panicked set, so
// one tenant's failure never takes the process (and every other
// tenant) down with it.
func (t *tenant) guardedStep() (stats sim.MultiRoundStats, panicked bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			stats, panicked, err = sim.MultiRoundStats{}, true, fmt.Errorf("round panicked: %v", r)
		}
	}()
	stats, err = t.step()
	return stats, false, err
}

// publish fans a completed round out to stream subscribers without
// blocking the round loop: a subscriber that cannot keep up misses
// updates rather than stalling the tenant.
func (t *tenant) publish(stats sim.MultiRoundStats, soft bool) {
	t.mu.Lock()
	if len(t.subs) > 0 {
		u := RoundUpdate{
			Round:    t.acc.Rounds(),
			Devices:  stats.Combined.Devices,
			FramesOK: stats.Combined.FramesOK,
			PER:      stats.Combined.PER(),
		}
		if soft {
			u.SoftFramesOK = stats.Soft.FramesOK
		}
		for _, ch := range t.subs {
			select {
			case ch <- u:
			default:
			}
		}
	}
	t.mu.Unlock()
}

// subscribe registers a stream listener; the returned cancel detaches
// it.
func (t *tenant) subscribe() (<-chan RoundUpdate, func()) {
	ch := make(chan RoundUpdate, 64)
	t.mu.Lock()
	t.subs = append(t.subs, ch)
	t.mu.Unlock()
	cancel := func() {
		t.mu.Lock()
		for i, c := range t.subs {
			if c == ch {
				t.subs = append(t.subs[:i], t.subs[i+1:]...)
				break
			}
		}
		t.mu.Unlock()
	}
	return ch, cancel
}

// teardown closes a tenant: no new rounds start, queued turns are
// dropped, subscribers are detached, and an in-flight turn finishes
// its current round before observing closed.
func (s *Server) teardown(t *tenant) {
	t.mu.Lock()
	t.closed = true
	t.pending = 0
	t.continuous = false
	subs := t.subs
	t.subs = nil
	t.mu.Unlock()
	s.sched.Drop(t.id)
	for _, ch := range subs {
		close(ch)
	}
}
