// Package exper contains one registered experiment per table and figure
// of the paper's evaluation, each regenerating the corresponding rows or
// series from the simulation substrate. The cmd/netscatter-exp binary
// and the repository's benchmark suite both drive this registry.
package exper

import (
	"fmt"
	"strings"
)

// Config controls experiment execution.
type Config struct {
	// Seed makes every experiment deterministic.
	Seed int64
	// Quick trades statistical depth for speed (used by tests and the
	// default bench run).
	Quick bool
}

// Table is a printable result table.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
}

// Result is an experiment's output: tables plus free-form notes
// (deviations, calibration remarks).
type Result struct {
	ID     string
	Title  string
	Tables []Table
	Notes  []string
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the index key ("T1", "F17", ...).
	ID string
	// Title names the paper artifact.
	Title string
	// Ref cites the paper section/figure.
	Ref string
	// Run executes the experiment.
	Run func(Config) (*Result, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in registration order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID finds an experiment by its ID (case-insensitive).
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Format renders a result as aligned text.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		if t.Name != "" {
			fmt.Fprintf(&b, "\n-- %s --\n", t.Name)
		}
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteByte('\n')
		}
		writeRow(t.Columns)
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		b.WriteByte('\n')
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "\nnote: %s\n", n)
	}
	return b.String()
}

// f formats a float compactly.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v <= -1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10 || v <= -10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// sci formats small probabilities in scientific style.
func sci(v float64) string {
	if v == 0 {
		return "0"
	}
	if v >= 0.01 {
		return fmt.Sprintf("%.3f", v)
	}
	return fmt.Sprintf("%.2e", v)
}
