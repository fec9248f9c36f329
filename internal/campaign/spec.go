// Package campaign runs declarative scenario campaigns: a JSON spec
// names the scenario axes of the paper's evaluation grid — device
// count × AP count × channel/adversity condition × rounds × seeds — and
// the runner expands the axes into a cell grid, shards the cells
// across worker goroutines, checkpoints completed cells so a killed
// campaign resumes exactly where it stopped, and merges per-cell
// snapshots into one deterministic results artifact.
//
// Determinism is the load-bearing property: every cell's deployment
// seed is a splittable dsp.StreamAt(seed, cellIndex) derivation — a
// pure function of the spec and the cell's grid position — so results
// are independent of worker count, execution order, and whether the
// run was interrupted (resumed-vs-uninterrupted artifacts are
// byte-identical, test-enforced). Cells execute either in-process
// (serve.RunLocal, the hosted tenant's exact code path) or against a
// live netscatter-serve instance (serve.Client); both produce the
// same snapshots by construction.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"netscatter/internal/dsp"
	"netscatter/internal/serve"
)

// Spec declares one campaign: scalar radio/deployment parameters plus
// list-valued scenario axes. Every combination of axis values becomes
// one grid cell; empty axes default to a single value, so the smallest
// useful spec is just a name and a devices list.
type Spec struct {
	// Name labels the campaign (artifact, checkpoint header, tenant
	// names on a service).
	Name string `json:"name"`

	// Scalar parameters shared by every cell; zero values select the
	// service defaults (SF 9, 500 kHz, skip 2, 5 payload bytes).
	SF                int     `json:"sf,omitempty"`
	BandwidthHz       float64 `json:"bandwidth_hz,omitempty"`
	Skip              int     `json:"skip,omitempty"`
	PayloadBytes      int     `json:"payload_bytes,omitempty"`
	SoftCombining     bool    `json:"soft_combining,omitempty"`
	OptimizePlacement bool    `json:"optimize_placement,omitempty"`

	// Axes. Devices is mandatory; the rest default to one-element
	// lists: APs [1], Rounds [1], Seeds [1], Channels [{"name":"static"}].
	Devices  []int         `json:"devices"`
	APs      []int         `json:"aps,omitempty"`
	Rounds   []int         `json:"rounds,omitempty"`
	Seeds    []int64       `json:"seeds,omitempty"`
	Channels []ChannelSpec `json:"channels,omitempty"`
}

// ChannelSpec is one entry of the channel-condition axis: a static
// channel (nil adversity) or a named time-varying adversarial world.
type ChannelSpec struct {
	Name      string                 `json:"name"`
	Adversity *serve.AdversityConfig `json:"adversity,omitempty"`
}

// Cell is one expanded grid point, self-describing: its axis values,
// the derived deployment config, and the rounds to run on it.
type Cell struct {
	Index   int    `json:"index"`
	Devices int    `json:"devices"`
	APs     int    `json:"aps"`
	Rounds  int    `json:"rounds"`
	Seed    int64  `json:"seed"`
	Channel string `json:"channel"`
	// Config is the cell's full deployment config. Its Seed is the
	// splittable stream derivation dsp.StreamAt(Seed, Index) — a pure
	// function of the axis seed and the grid position, so a cell's
	// randomness never depends on which worker runs it or when.
	Config serve.DeploymentConfig `json:"config"`
}

// maxCells caps a spec's grid, the product of its axis lengths: the
// expansion allocates every cell up front, so an unbounded product
// would exhaust memory before any cell runs.
const maxCells = 1 << 16

// LoadSpec reads and expands-checks a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: parsing %s: %w", path, err)
	}
	return s, nil
}

// parseSpec decodes one JSON spec and expands-checks it. Unknown
// fields, nested ones included, are errors: a misspelt axis would
// otherwise fall back to its default without a word. So is any data
// after the spec's object.
func parseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("trailing data after the spec")
	}
	if _, err := s.Cells(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Digest is the spec's canonical SHA-256, recorded in checkpoints and
// artifacts so a resume against a different spec fails loudly instead
// of merging unrelated results.
func (s *Spec) Digest() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is a plain data struct; Marshal cannot fail on it.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Cells expands the axes into the campaign grid. The expansion order
// is fixed (seeds ▸ channels ▸ rounds ▸ APs ▸ devices, devices
// innermost) and indices are dense from 0, so a cell's index — and
// with it its derived RNG — is stable for a given spec.
func (s *Spec) Cells() ([]Cell, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Devices) == 0 {
		return nil, fmt.Errorf("campaign: spec needs a devices axis")
	}
	aps := s.APs
	if len(aps) == 0 {
		aps = []int{1}
	}
	rounds := s.Rounds
	if len(rounds) == 0 {
		rounds = []int{1}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	channels := s.Channels
	if len(channels) == 0 {
		channels = []ChannelSpec{{Name: "static"}}
	}
	for _, n := range s.Devices {
		if n < 1 {
			return nil, fmt.Errorf("campaign: devices axis value %d (must be >= 1)", n)
		}
	}
	for _, k := range aps {
		if k < 1 {
			return nil, fmt.Errorf("campaign: aps axis value %d (must be >= 1)", k)
		}
	}
	for _, r := range rounds {
		if r < 1 {
			return nil, fmt.Errorf("campaign: rounds axis value %d (must be >= 1)", r)
		}
	}
	for i, ch := range channels {
		if ch.Name == "" {
			return nil, fmt.Errorf("campaign: channel %d needs a name", i)
		}
	}

	// Multiply up the grid size one axis at a time, failing before the
	// product can pass maxCells (and so before it can overflow).
	size := 1
	for _, n := range []int{len(seeds), len(channels), len(rounds), len(aps), len(s.Devices)} {
		if n > maxCells/size {
			return nil, fmt.Errorf("campaign: grid of %d seeds × %d channels × %d rounds × %d aps × %d devices exceeds %d cells",
				len(seeds), len(channels), len(rounds), len(aps), len(s.Devices), maxCells)
		}
		size *= n
	}

	cells := make([]Cell, 0, size)
	idx := 0
	for _, seed := range seeds {
		for _, ch := range channels {
			for _, r := range rounds {
				for _, k := range aps {
					for _, n := range s.Devices {
						st := dsp.StreamAt(seed, uint64(idx))
						depSeed := int64(st.Uint64())
						if depSeed == 0 {
							depSeed = 1 // 0 would select the service default
						}
						cells = append(cells, Cell{
							Index:   idx,
							Devices: n,
							APs:     k,
							Rounds:  r,
							Seed:    seed,
							Channel: ch.Name,
							Config: serve.DeploymentConfig{
								Name:              fmt.Sprintf("%s/%d", s.Name, idx),
								Devices:           n,
								APs:               k,
								SF:                s.SF,
								BandwidthHz:       s.BandwidthHz,
								Skip:              s.Skip,
								PayloadBytes:      s.PayloadBytes,
								Seed:              depSeed,
								SoftCombining:     s.SoftCombining,
								OptimizePlacement: s.OptimizePlacement,
								Adversity:         ch.Adversity,
							},
						})
						idx++
					}
				}
			}
		}
	}
	return cells, nil
}
