package serve

// Process-wide counters, exported as a flat JSON object on /metrics in
// the expvar style: monotonically increasing int64s, cheap enough to
// bump from the round hot path (a single atomic add, no allocation).

import "sync/atomic"

type metrics struct {
	rounds       atomic.Int64 // simulation rounds completed
	framesOK     atomic.Int64 // frames decoded across all rounds
	roundErrors  atomic.Int64 // rounds aborted by a simulation error
	roundPanics  atomic.Int64 // rounds that panicked, quarantining their tenant
	httpRequests atomic.Int64 // requests served (all endpoints)
	httpErrors   atomic.Int64 // error responses written
	throttled    atomic.Int64 // 429s (backlog or deployment limit)
	created      atomic.Int64 // deployments created over the lifetime
	closed       atomic.Int64 // deployments torn down
}

// snapshot dumps the counters. The caller adds gauge-style fields
// (active deployments, queued turns, goroutines, uptime) on top.
func (m *metrics) snapshot() map[string]int64 {
	return map[string]int64{
		"rounds_total":        m.rounds.Load(),
		"frames_ok_total":     m.framesOK.Load(),
		"round_errors_total":  m.roundErrors.Load(),
		"round_panics_total":  m.roundPanics.Load(),
		"http_requests_total": m.httpRequests.Load(),
		"http_errors_total":   m.httpErrors.Load(),
		"throttled_total":     m.throttled.Load(),
		"deployments_created": m.created.Load(),
		"deployments_closed":  m.closed.Load(),
	}
}
