//go:build !erpcdebug

package transport

// DebugEnabled reports whether this build carries the erpcdebug
// sanitizer. Release builds compile the hooks in this file — empty
// types and no-op methods the inliner erases — so the datapath pays
// nothing for them. Build with -tags erpcdebug to swap in the checked
// versions (see debug_on.go); tests that assert zero allocations skip
// themselves when this is true, since the sanitizer's bookkeeping
// allocates.
const DebugEnabled = false

// poolDebug is the Pool's sanitizer state: empty in release builds.
type poolDebug struct{}

func (*poolDebug) onGet([]byte)       {}
func (*poolDebug) onPut([]byte, bool) {}

// frameDebug is a Frame's hand-out record and rxDebug the UDP
// transport's count of frames handed out per receive window: empty in
// release builds.
type frameDebug struct{}
type rxDebug struct{}

func (*frameDebug) release()         {}
func (*rxDebug) onStage(*Frame, int) {}
func (*rxDebug) onTake([]Frame)      {}
func (*rxDebug) onRecv(int)          {}
