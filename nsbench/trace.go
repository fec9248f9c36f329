package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The benchmark's tracer. Spans are recorded only in the benchmark's
// own code, around its calls into each layer's public functions; the
// program itself is not instrumented. A tracer belongs to one
// goroutine, so recording takes no lock and touches no shared atomic;
// concurrent callers (campaign workers) each borrow their own.

// span is one recorded interval: a layer operation, the span that
// caused it (-1 for a root) and the request (round, cell or step) all
// spans of one unit of work share.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int32, req int64) int32 {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req, Start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.epoch))
}

// durations returns the durations in milliseconds of every span named
// name across tracers.
func durations(ts []*tracer, name string) []float64 {
	var out []float64
	for _, t := range ts {
		for i := range t.spans {
			if s := &t.spans[i]; s.Name == name {
				out = append(out, float64(s.End-s.Start)/1e6)
			}
		}
	}
	return out
}

// spanP50 reports the median duration of span across tracers as a
// per-layer metric, in ms times scale.
func (r *result) spanP50(metric, unit string, ts []*tracer, span string, scale float64) {
	s := summarize(durations(ts, span))
	r.layer(metric, unit, s.P50*scale, s.N)
}

// childTotal sums, per root span, the durations of its direct
// children, and returns the mean over roots together with the mean
// root duration (both in ms).
func childTotal(ts []*tracer, root string) (children, roots float64) {
	n := 0
	for _, t := range ts {
		sum := make(map[int32]int64)
		for i := range t.spans {
			s := &t.spans[i]
			if s.Parent >= 0 && t.spans[s.Parent].Name == root {
				sum[s.Parent] += s.End - s.Start
			}
		}
		for i := range t.spans {
			s := &t.spans[i]
			if s.Name != root {
				continue
			}
			children += float64(sum[int32(i)]) / 1e6
			roots += float64(s.End-s.Start) / 1e6
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return children / float64(n), roots / float64(n)
}

// writeSpans dumps every span as NDJSON.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range ts {
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// busySlot accumulates time and calls for one pool work item. Slots
// are padded to a cache line so workers writing neighbouring slots do
// not share one.
type busySlot struct {
	ns    int64
	calls int64
	start time.Time
	_     [3]int64
}

// busySlots is a fixed set of per-item accumulators: each slot is
// written by whichever worker runs that item, one worker at a time.
type busySlots []busySlot

// drain sums and clears every slot.
func (b busySlots) drain() (ns, calls int64) {
	for i := range b {
		ns += b[i].ns
		calls += b[i].calls
		b[i] = busySlot{}
	}
	return ns, calls
}
