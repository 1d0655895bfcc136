//go:build linux && (amd64 || arm64)

package transport

import (
	"slices"
	"testing"
)

// runBurst builds a burst from (peer, size) pairs: frame i goes to node
// peer and carries size bytes.
func runBurst(spec [][2]int) []Frame {
	frames := make([]Frame, len(spec))
	for i, s := range spec {
		frames[i] = Frame{Data: make([]byte, s[1]), Addr: Addr{Node: uint16(s[0])}}
	}
	return frames
}

// runs counts the messages the offloading engine makes of frames sent
// in order: a new one wherever the peer or the size changes (no caps).
func runs(order []int, frames []Frame) int {
	n := 0
	for j, i := range order {
		if j == 0 || frames[i].Addr != frames[order[j-1]].Addr || len(frames[i].Data) != len(frames[order[j-1]].Data) {
			n++
		}
	}
	return n
}

// TestRunOrder pins the engine's run forming on bursts the core sends:
// interleaved peers group while each keeps its own order; a server's
// responses and credit returns to one client, alternating, make two
// runs; and the short last packet of one message never joins the
// equal-size last packet of an earlier one past its own full packet.
func TestRunOrder(t *testing.T) {
	const full, short, cr = 1000, 300, 16
	for _, c := range []struct {
		name  string
		spec  [][2]int
		want  []int
		nruns int
	}{
		{"interleaved peers", [][2]int{{1, 8}, {2, 8}, {1, 8}, {3, 8}, {2, 8}, {1, 8}}, []int{0, 2, 5, 1, 4, 3}, 3},
		{"responses and CRs", [][2]int{{1, 40}, {1, cr}, {1, 40}, {1, cr}, {1, 40}, {1, cr}}, []int{0, 2, 4, 1, 3, 5}, 2},
		{"short last of X, full of Y, short last of Y", [][2]int{{1, short}, {1, full}, {1, short}}, []int{0, 1, 2}, 3},
		{"never past a larger frame to its peer", [][2]int{{1, full}, {1, cr}, {1, full + 1}, {1, full}}, []int{0, 1, 2, 3}, 4},
		{"past a larger frame to another peer", [][2]int{{1, short}, {2, full}, {1, short}}, []int{0, 2, 1}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			frames := runBurst(c.spec)
			got := runOrder(nil, frames)
			if !slices.Equal(got, c.want) {
				t.Fatalf("order %v, want %v", got, c.want)
			}
			if n := runs(got, frames); n != c.nruns {
				t.Fatalf("%d runs, want %d", n, c.nruns)
			}
		})
	}
}

// FuzzRunOrder: over any burst, runOrder is a permutation in which no
// frame precedes an earlier frame to the same peer of equal or larger
// size — so no message's packets, which never grow, are reordered — and
// which forms no more runs than the burst as queued. Each input byte is
// a frame: peer in the top two bits, size in the low three, so equal
// sizes are common.
func FuzzRunOrder(f *testing.F) {
	f.Add([]byte{0x41, 0x81, 0x41, 0xC1, 0x81, 0x41})
	f.Add([]byte{0x47, 0x41, 0x47, 0x41, 0x47, 0x41})
	f.Add([]byte{0x43, 0x47, 0x43, 0x00, 0x03})
	f.Fuzz(func(t *testing.T, b []byte) {
		spec := make([][2]int, len(b))
		for i, v := range b {
			spec[i] = [2]int{int(v >> 6), int(v & 7)}
		}
		frames := runBurst(spec)
		order := runOrder(nil, frames)
		if len(order) != len(frames) {
			t.Fatalf("order %v of %d frames", order, len(frames))
		}
		pos := make([]int, len(frames))
		for j := range pos {
			pos[j] = -1
		}
		for j, i := range order {
			if pos[i] != -1 {
				t.Fatalf("frame %d twice in %v", i, order)
			}
			pos[i] = j
		}
		for a := range frames {
			for c := a + 1; c < len(frames); c++ {
				if frames[a].Addr == frames[c].Addr && len(frames[a].Data) >= len(frames[c].Data) && pos[c] < pos[a] {
					t.Fatalf("%v: frame %d (%d B) sent before earlier same-peer frame %d (%d B): %v",
						spec, c, len(frames[c].Data), a, len(frames[a].Data), order)
				}
			}
		}
		queued := make([]int, len(frames))
		for i := range queued {
			queued[i] = i
		}
		if got, was := runs(order, frames), runs(queued, frames); got > was {
			t.Fatalf("%v: %d runs, %d as queued", spec, got, was)
		}
	})
}

// BenchmarkRunOrder prices the reorder on a full burst to three peers
// with a size each, interleaved: every frame scans back past the other
// two peers' runs.
func BenchmarkRunOrder(b *testing.B) {
	spec := make([][2]int, SocketBurst)
	for i := range spec {
		spec[i] = [2]int{1 + i%3, []int{1000, 16, 300}[i%3]}
	}
	frames := runBurst(spec)
	order := make([]int, 0, len(frames))
	b.ReportAllocs()
	for b.Loop() {
		order = runOrder(order, frames)
	}
}
