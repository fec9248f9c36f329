package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"netscatter/internal/serve"
)

// testSpec is a tiny but fully-axed campaign: two device counts, two
// AP counts, two seeds, a static and an adversarial channel — 16
// cells, each cheap (SF 6, 2-byte payloads).
func testSpec() *Spec {
	return &Spec{
		Name:         "test-grid",
		SF:           6,
		PayloadBytes: 2,
		Devices:      []int{2, 3},
		APs:          []int{1, 2},
		Rounds:       []int{2},
		Seeds:        []int64{1, 2},
		Channels: []ChannelSpec{
			{Name: "static"},
			{Name: "mobile", Adversity: &serve.AdversityConfig{DopplerHz: 4, SleepProb: 0.1}},
		},
	}
}

func TestSpecExpansion(t *testing.T) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 1 * 2 * 2; len(cells) != want {
		t.Fatalf("expanded %d cells, want %d", len(cells), want)
	}
	seen := map[int64]bool{}
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		if c.Config.Devices != c.Devices || c.Config.APs != c.APs {
			t.Errorf("cell %d config does not mirror axes: %+v", i, c)
		}
		if c.Config.Seed == 0 {
			t.Errorf("cell %d has zero deployment seed (would select the service default)", i)
		}
		seen[c.Config.Seed] = true
		if (c.Channel == "mobile") != (c.Config.Adversity != nil) {
			t.Errorf("cell %d channel %q adversity mismatch", i, c.Channel)
		}
	}
	if len(seen) != len(cells) {
		t.Errorf("deployment seeds collide: %d distinct over %d cells", len(seen), len(cells))
	}

	// Expansion is deterministic: a second expansion is identical.
	again, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i] != again[i] {
			t.Fatalf("cell %d differs between expansions", i)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	spec := &Spec{Name: "minimal", Devices: []int{4}}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("minimal spec expanded to %d cells, want 1", len(cells))
	}
	c := cells[0]
	if c.APs != 1 || c.Rounds != 1 || c.Seed != 1 || c.Channel != "static" {
		t.Errorf("defaults not applied: %+v", c)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []*Spec{
		{Devices: []int{4}},                                         // no name
		{Name: "x"},                                                 // no devices axis
		{Name: "x", Devices: []int{0}},                              // bad device count
		{Name: "x", Devices: []int{4}, APs: []int{0}},               // bad AP count
		{Name: "x", Devices: []int{4}, Rounds: []int{0}},            // bad rounds
		{Name: "x", Devices: []int{4}, Channels: []ChannelSpec{{}}}, // unnamed channel
	}
	for i, s := range bad {
		if _, err := s.Cells(); err == nil {
			t.Errorf("bad spec %d expanded without error", i)
		}
	}
}

func TestLoadSpecAndDigest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	body := `{"name":"loaded","sf":6,"devices":[2,4],"aps":[1,2],"seeds":[7]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("loaded spec expanded to %d cells, want 4", len(cells))
	}
	if spec.Digest() != spec.Digest() {
		t.Error("digest is not stable")
	}
	other := testSpec()
	if spec.Digest() == other.Digest() {
		t.Error("distinct specs share a digest")
	}

	if err := os.WriteFile(path, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Error("LoadSpec accepted a spec with no devices axis")
	}
}

// TestLoadSpecStrict: a misspelt field, top-level or inside a channel's
// adversity object, is an error that names it, and so is data after
// the spec.
func TestLoadSpecStrict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spec.json")
	for body, want := range map[string]string{
		`{"name":"t","devices":[16],"seed":[5],"aps":[2]}`:                                 `"seed"`,
		`{"name":"t","devices":[1],"channels":[{"name":"m","adversity":{"dopler_hz":4}}]}`: `"dopler_hz"`,
		`{"name":"t","devices":[1],"channels":[{"name":"m","adverity":{"doppler_hz":4}}]}`: `"adverity"`,
		`{"name":"t","devices":[1]} {"name":"u","devices":[2]}`:                            "trailing data",
		`{"name":"t","devices":[1]}]`:                                                      "trailing data",
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadSpec(path)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadSpec(%s) = %v, want an error naming %s", body, err, want)
		}
	}
}

// TestSpecGridCap: a grid past maxCells cells is an error, not a
// makeslice panic or a multi-gigabyte allocation, and a grid at the
// cap still expands.
func TestSpecGridCap(t *testing.T) {
	axis := func(n int) []int {
		v := make([]int, n)
		for i := range v {
			v[i] = i + 1
		}
		return v
	}
	seeds := make([]int64, 3000)
	channels := make([]ChannelSpec, 3000)
	for i := range seeds {
		seeds[i] = int64(i)
		channels[i].Name = fmt.Sprint(i)
	}
	huge := &Spec{Name: "huge", Devices: axis(3000), APs: axis(3000), Rounds: axis(3000), Seeds: seeds, Channels: channels}
	if _, err := huge.Cells(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("3000^5-cell grid: %v", err)
	}
	over := &Spec{Name: "over", Devices: axis(257), APs: axis(256)}
	if _, err := over.Cells(); err == nil {
		t.Fatal("257×256-cell grid expanded past the cap")
	}
	at := &Spec{Name: "at", Devices: axis(256), APs: axis(256)}
	cells, err := at.Cells()
	if err != nil || len(cells) != maxCells {
		t.Fatalf("256×256-cell grid: %d cells, %v", len(cells), err)
	}
}

// FuzzLoadSpec feeds arbitrary bytes to the spec parser. It must never
// panic, and a spec it accepts must re-marshal and re-parse to the same
// digest and the same grid.
func FuzzLoadSpec(f *testing.F) {
	office, err := os.ReadFile(filepath.Join("..", "..", "examples", "campaign", "office.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(office)
	f.Add([]byte(`{"name":"t","devices":[16],"seed":[5],"aps":[2]}`))
	f.Add([]byte(`{"name":"t","devices":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17],` +
		`"aps":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],"rounds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16],` +
		`"seeds":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"t","devices":[1]} {}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := parseSpec(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := parseSpec(again)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", again, err)
		}
		if s.Digest() != s2.Digest() {
			t.Fatalf("digest moved across a round trip: %s", again)
		}
		c1, err1 := s.Cells()
		c2, err2 := s2.Cells()
		if err1 != nil || err2 != nil || !reflect.DeepEqual(c1, c2) {
			t.Fatalf("grid moved across a round trip (%v, %v): %s", err1, err2, again)
		}
	})
}
