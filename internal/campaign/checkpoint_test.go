package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"netscatter/internal/sim"
)

// FuzzCheckpointReopen writes arbitrary bytes as a checkpoint journal
// and reopens it for testSpec's 16 cells. openCheckpoint must never
// panic; it resumes only under a header carrying the spec's digest (a
// foreign, malformed or header-less journal is an error and the file
// is left untouched); every cell it returns is in range; it truncates
// the file to a newline-terminated prefix of the input; and recording
// one more cell then reopening returns the union.
func FuzzCheckpointReopen(f *testing.F) {
	spec := testSpec()
	cells, err := spec.Cells()
	if err != nil {
		f.Fatal(err)
	}
	nCells := len(cells)
	header, err := json.Marshal(ckptHeader{Campaign: spec.Name, SpecSHA: spec.Digest(), Cells: nCells})
	if err != nil {
		f.Fatal(err)
	}
	entry := func(i int) string {
		b, err := json.Marshal(ckptEntry{Index: i, Snapshot: sim.Snapshot{Rounds: 2, Devices: 4, FramesOK: 3, SimSeconds: 0.25}})
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	h := string(header) + "\n"
	f.Add([]byte(h + entry(0) + entry(5) + entry(15)))                                    // valid journal
	f.Add([]byte(h + entry(3) + entry(4)[:20]))                                           // torn tail
	f.Add([]byte(`{"campaign":"other","spec_sha256":"00","cells":16}` + "\n" + entry(1))) // foreign header
	f.Add([]byte("\n" + h + entry(2)))                                                    // empty first line
	f.Add([]byte(h))                                                                      // header only
	f.Add([]byte(h + entry(16) + entry(6)))                                               // out-of-range cell
	f.Add([]byte(h[:len(h)-1]))                                                           // header without newline

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "ckpt.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, done, err := openCheckpoint(path, spec, nCells)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("refused journal was modified:\n before %q\n after  %q", data, after)
			}
			return
		}
		defer func() {
			if ck != nil {
				ck.close()
			}
		}()
		for i := range done {
			if i < 0 || i >= nCells {
				t.Fatalf("returned cell %d outside [0, %d)", i, nCells)
			}
		}
		if len(data) == 0 {
			if !bytes.Equal(after, []byte(h)) || len(done) != 0 {
				t.Fatalf("empty journal reopened as %q with %d cells", after, len(done))
			}
		} else {
			if !bytes.HasPrefix(data, after) || len(after) == 0 || after[len(after)-1] != '\n' {
				t.Fatalf("journal truncated to %q, not a newline-terminated prefix of %q", after, data)
			}
			first, _, _ := bytes.Cut(after, []byte("\n"))
			var got ckptHeader
			if json.Unmarshal(first, &got) != nil || got.SpecSHA != spec.Digest() {
				t.Fatalf("resumed under header %q, not the spec's digest", first)
			}
		}

		k := len(data) % nCells
		snap := sim.Snapshot{Rounds: 7, Devices: 9, FramesOK: 5, SimSeconds: 1.5}
		if err := ck.record(k, snap); err != nil {
			t.Fatal(err)
		}
		ck.close()
		ck = nil
		ck2, done2, err := openCheckpoint(path, spec, nCells)
		if err != nil {
			t.Fatalf("reopen after recording cell %d: %v", k, err)
		}
		ck2.close()
		done[k] = snap
		if !reflect.DeepEqual(done, done2) {
			t.Fatalf("reopen returned %v, want the union %v", done2, done)
		}
	})
}
