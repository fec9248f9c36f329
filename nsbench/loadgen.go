package main

import (
	"sync"
	"time"
)

// The serve-fleet load generator's bookkeeping: an open-loop schedule
// whose requests are timed from when they were due, and the matcher
// that pairs probe steps with their completion lines on the probe
// tenant's NDJSON stream.

// openLoop is a fixed-rate schedule: request k is due at start +
// k·period, whether or not earlier requests have returned. Timing
// every request from its due time charges a stalled send to every
// request queued behind it.
type openLoop struct {
	start  time.Time
	period time.Duration
}

func newOpenLoop(start time.Time, perSecond float64) openLoop {
	return openLoop{start: start, period: time.Duration(float64(time.Second) / perSecond)}
}

func (o openLoop) due(k int) time.Time { return o.start.Add(time.Duration(k) * o.period) }

// sendLog records, per request, how late the generator sent it and
// its acknowledgement round trip; together they time the request from
// when it was due.
type sendLog struct {
	late []time.Duration // sent − due
	ack  []time.Duration // acked − sent (the Client.Step round trip)
}

func (l *sendLog) record(due, sent, acked time.Time) {
	l.late = append(l.late, sent.Sub(due))
	l.ack = append(l.ack, acked.Sub(sent))
}

// lateShare is the fraction of requests sent more than limit after
// they were due.
func (l *sendLog) lateShare(limit time.Duration) float64 {
	n := 0
	for _, d := range l.late {
		if d > limit {
			n++
		}
	}
	return ratio(float64(n), float64(len(l.late)))
}

// probe is one outstanding probe step: it completes when the stream
// delivers the line for the probe tenant's round count target.
type probe struct {
	target    int
	due, sent time.Time
	ack       time.Duration
}

// probeResult is a completed probe.
type probeResult struct {
	target int
	done   time.Duration // stream arrival − due
	served time.Duration // stream arrival − sent
	ack    time.Duration
}

// probeMatcher pairs probe steps with stream lines. The generator
// registers a step (expect) before sending it, since its rounds can
// finish before the acknowledgement returns, and withdraws it (cancel)
// if the service refuses it. A step whose target line never arrives —
// the stream fan-out drops lines for a slow reader, and a later round
// arrives first — counts as missed, as do steps still outstanding when
// the phase is drained.
type probeMatcher struct {
	mu      sync.Mutex
	pending []probe
	results []probeResult
	missed  int
}

func (m *probeMatcher) expect(target int, due, sent time.Time) {
	m.mu.Lock()
	m.pending = append(m.pending, probe{target: target, due: due, sent: sent})
	m.mu.Unlock()
}

// acked records the step's acknowledgement round trip. The step may
// already have completed.
func (m *probeMatcher) acked(target int, ack time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.pending {
		if m.pending[i].target == target {
			m.pending[i].ack = ack
			return
		}
	}
	for i := len(m.results) - 1; i >= 0; i-- {
		if m.results[i].target == target {
			m.results[i].ack = ack
			return
		}
	}
}

// cancel withdraws a refused step.
func (m *probeMatcher) cancel(target int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.pending {
		if m.pending[i].target == target {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return
		}
	}
}

// observe handles one stream line: the probe tenant completed round.
func (m *probeMatcher) observe(round int, at time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := 0
	for ; i < len(m.pending) && m.pending[i].target <= round; i++ {
		p := m.pending[i]
		if p.target < round {
			m.missed++ // its line was dropped
			continue
		}
		m.results = append(m.results, probeResult{target: p.target, done: at.Sub(p.due), served: at.Sub(p.sent), ack: p.ack})
	}
	m.pending = m.pending[i:]
}

// outstanding reports how many probes are still waiting.
func (m *probeMatcher) outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// drain ends a phase: every still-outstanding probe counts as missed,
// and the completed results and missed count are returned and reset.
func (m *probeMatcher) drain() ([]probeResult, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	results, missed := m.results, m.missed+len(m.pending)
	m.pending, m.results, m.missed = nil, nil, 0
	return results, missed
}
