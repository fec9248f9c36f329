// Package serve is the long-lived multi-tenant simulation service
// behind cmd/netscatter-serve: many independent NetScatter deployments
// hosted on one process, each created, configured, stepped, streamed
// and torn down over HTTP+JSON.
//
// The layering mirrors the repository's batch tools but stays resident:
//
//   - registry.go owns the tenants. Each tenant wraps one
//     sim.MultiAPNetwork (k >= 1 APs) — and, once adversity is enabled,
//     its sim.Trajectory — so every tenant carries its own zero-alloc
//     round arenas, encoders, decoders and RNG state; tenants share no
//     mutable simulation state with each other.
//   - Rounds are multiplexed over a pool.FairScheduler: per-tenant
//     serialized turns (a round arena is single-threaded by design),
//     round-robin rotation across runnable tenants, and a bounded
//     per-tenant round backlog. A turn runs at most Config.RoundBudget
//     rounds before yielding, so a tenant streaming continuously cannot
//     starve interactive step requests; a backlog past
//     Config.MaxPending is refused with HTTP 429.
//   - api.go is the HTTP surface (see docs/API.md — a test walks the
//     route table below and fails on undocumented endpoints), metrics.go
//     the expvar-style counter surface, client.go the typed client the
//     load generator (cmd/netscatter-load) and the soak test share.
//
// Statistics flow through sim.Accumulator, the concurrency-safe
// snapshot/export seam: the scheduler folds each completed round in,
// and GET …/stats serializes a consistent Snapshot at any moment, even
// mid-turn.
package serve

import (
	"net/http"
	"net/http/pprof"
	"time"

	"netscatter/internal/pool"
)

// Config sizes the service. The zero value of any field selects its
// default.
type Config struct {
	// Workers is the round scheduler's worker count (default
	// pool.Size(), i.e. GOMAXPROCS).
	Workers int
	// RoundBudget is the most rounds one scheduled turn runs before
	// the tenant yields its worker (default 8).
	RoundBudget int
	// MaxPending bounds a tenant's requested-but-unrun round backlog;
	// step requests past it fail with 429 (default 1024).
	MaxPending int
	// MaxDeployments bounds the registry; creates past it fail with
	// 429 (default 4096).
	MaxDeployments int
	// MaxDevices bounds a single deployment's device count (default
	// 256, the paper's scale).
	MaxDevices int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = pool.Size()
	}
	if c.RoundBudget < 1 {
		c.RoundBudget = 8
	}
	if c.MaxPending < 1 {
		c.MaxPending = 1024
	}
	if c.MaxDeployments < 1 {
		c.MaxDeployments = 4096
	}
	if c.MaxDevices < 1 {
		c.MaxDevices = 256
	}
	return c
}

// Server hosts the deployment registry, the fair round scheduler and
// the HTTP API. Create one with New, expose Handler() on an
// http.Server, and Close it on shutdown.
type Server struct {
	cfg     Config
	sched   *pool.FairScheduler
	reg     registry
	metrics metrics
	start   time.Time
}

// New starts a Server (its scheduler workers run until Close).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		// Cap 2 queued turns per tenant: the control plane keeps at
		// most one turn queued (the scheduled flag), and a turn's
		// self-resubmission briefly overlaps it.
		sched: pool.NewFairScheduler(cfg.Workers, 2),
		start: time.Now(),
	}
	s.reg.tenants = make(map[int64]*tenant)
	return s
}

// Close tears down every tenant and stops the scheduler, waiting for
// in-flight rounds to finish.
func (s *Server) Close() {
	for _, t := range s.reg.all() {
		s.teardown(t)
	}
	s.sched.Close()
}

// Route is one registered endpoint. The route table is the single
// source of truth for the mux and for docs/API.md: the docs test fails
// when an entry here is missing from the reference (or vice versa).
type Route struct {
	Method  string
	Pattern string
	Doc     string
	handler http.HandlerFunc
}

// Routes returns the service's endpoint table.
func (s *Server) Routes() []Route {
	return []Route{
		{"GET", "/healthz", "liveness probe with uptime", s.handleHealthz},
		{"GET", "/metrics", "expvar-style counter snapshot", s.handleMetrics},
		{"POST", "/v1/deployments", "create a deployment", s.handleCreate},
		{"GET", "/v1/deployments", "list deployments", s.handleList},
		{"GET", "/v1/deployments/{id}", "deployment detail and stats", s.handleDetail},
		{"DELETE", "/v1/deployments/{id}", "tear a deployment down", s.handleDelete},
		{"POST", "/v1/deployments/{id}/step", "enqueue rounds (429 past the backlog bound)", s.handleStep},
		{"POST", "/v1/deployments/{id}/run", "run rounds continuously", s.handleRun},
		{"POST", "/v1/deployments/{id}/pause", "stop continuous running, clear the backlog", s.handlePause},
		{"POST", "/v1/deployments/{id}/config", "toggle soft combining / adversity", s.handleConfig},
		{"GET", "/v1/deployments/{id}/stats", "live stats snapshot", s.handleStats},
		{"GET", "/v1/deployments/{id}/stream", "stream per-round stats as NDJSON", s.handleStream},
		{"GET", "/debug/pprof/", "pprof profile index (heap, goroutine, ...)", pprof.Index},
		{"GET", "/debug/pprof/profile", "CPU profile", pprof.Profile},
		{"GET", "/debug/pprof/cmdline", "process command line", pprof.Cmdline},
		{"GET", "/debug/pprof/symbol", "pprof symbol lookup", pprof.Symbol},
		{"GET", "/debug/pprof/trace", "execution trace", pprof.Trace},
	}
}

// Handler builds the service's http.Handler from the route table,
// wrapped in the request-counting and panic-recovering middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.Routes() {
		mux.HandleFunc(rt.Method+" "+rt.Pattern, rt.handler)
	}
	return s.countRequests(s.recoverPanics(mux))
}
