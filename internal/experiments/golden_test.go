package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"repro/internal/transport"
)

var update = flag.Bool("update", false, "rewrite testdata/all_scale025.golden from this run")

// TestSimulatorGolden holds simulated time still: every registered
// experiment at scale 0.25, seed 42, must print what the golden file
// records, byte for byte. A change to internal/core, sim, simnet,
// timely or carousel that moves one simulated packet by one nanosecond
// shows up here as a diff of the rates and percentiles it moved. A
// change that means to move them regenerates the file with -update and
// says so; a refactor does not.
func TestSimulatorGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment (~15 s)")
	}
	if transport.RaceEnabled {
		t.Skip("too slow under the race detector; the simulator is one goroutine")
	}
	const path = "testdata/all_scale025.golden"
	var got bytes.Buffer
	RunAll(&got, Options{Scale: 0.25, Seed: 42})
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Errorf("got %d lines, want %d", len(gl), len(wl))
	}
}
