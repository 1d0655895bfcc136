//go:build linux && (amd64 || arm64)

package transport

import (
	"bytes"
	"encoding/binary"
	"syscall"
	"testing"
)

// cmsg encodes one control message as the kernel lays it out: a
// Cmsghdr whose Len covers header and data, the data, then padding to
// the next 8-byte boundary.
func cmsg(level, typ int32, data []byte) []byte {
	b := make([]byte, syscall.CmsgSpace(len(data)))
	binary.NativeEndian.PutUint64(b[0:8], uint64(syscall.CmsgLen(len(data))))
	binary.NativeEndian.PutUint32(b[8:12], uint32(level))
	binary.NativeEndian.PutUint32(b[12:16], uint32(typ))
	copy(b[syscall.SizeofCmsghdr:], data)
	return b
}

func groCmsg(stride int32) []byte {
	var d [4]byte
	binary.NativeEndian.PutUint32(d[:], uint32(stride))
	return cmsg(solUDP, udpGRO, d[:])
}

func stampCmsg(sec, nsec int64) []byte {
	var d [16]byte
	binary.NativeEndian.PutUint64(d[0:8], uint64(sec))
	binary.NativeEndian.PutUint64(d[8:16], uint64(nsec))
	return cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, d[:])
}

// TestRxCtrlSpace: the RX control stride holds both cmsgs the socket
// can deliver at once (a single cmsg stride of 32 B did not).
func TestRxCtrlSpace(t *testing.T) {
	if want := syscall.CmsgSpace(4) + syscall.CmsgSpace(16); rxCtrlSpace != want {
		t.Fatalf("rxCtrlSpace = %d, want CmsgSpace(4)+CmsgSpace(16) = %d", rxCtrlSpace, want)
	}
	if n := len(groCmsg(1)) + len(stampCmsg(1, 2)); n > rxCtrlSpace {
		t.Fatalf("GRO + timestamp cmsgs take %d bytes, the stride is %d", n, rxCtrlSpace)
	}
}

// TestParseRxCmsgs walks synthetic control buffers: either cmsg alone,
// both in each order, and the malformed shapes that must end the walk
// without reading past Controllen.
func TestParseRxCmsgs(t *testing.T) {
	const sec, nsec = 1_700_000_000, 123_456_789
	const stamp = sec*1_000_000_000 + nsec
	gro, ts := groCmsg(1400), stampCmsg(sec, nsec)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	zeroLen := groCmsg(1400)
	binary.NativeEndian.PutUint64(zeroLen[0:8], 0)
	longLen := stampCmsg(sec, nsec)
	binary.NativeEndian.PutUint64(longLen[0:8], uint64(len(longLen)+1))
	shortGRO := cmsg(solUDP, udpGRO, []byte{1, 2}) // Len too short for an int
	cases := []struct {
		name       string
		ctrl       []byte
		wantStride int
		wantStamp  int64
	}{
		{"empty", nil, 0, 0},
		{"gro only", gro, 1400, 0},
		{"timestamp only", ts, 0, stamp},
		{"gro then timestamp", cat(gro, ts), 1400, stamp},
		{"timestamp then gro", cat(ts, gro), 1400, stamp},
		{"truncated second header", cat(gro, ts[:syscall.SizeofCmsghdr-4]), 1400, 0},
		{"second header without its data", cat(gro, ts[:syscall.SizeofCmsghdr+8]), 1400, 0},
		{"zero Len", cat(zeroLen, ts), 0, 0},
		{"Len past Controllen", cat(gro, longLen), 1400, 0},
		{"short GRO data", cat(shortGRO, ts), 0, stamp},
		{"foreign cmsg skipped", cat(cmsg(syscall.SOL_IP, 8, []byte{1, 2, 3, 4}), ts, gro), 1400, stamp},
		{"no trailing padding", cat(ts, gro[:syscall.CmsgLen(4)]), 1400, stamp},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// An exact-length copy: a read past Controllen panics.
			ctrl := append([]byte(nil), c.ctrl...)
			stride, stamp := parseRxCmsgs(ctrl[:len(ctrl):len(ctrl)])
			if stride != c.wantStride || stamp != c.wantStamp {
				t.Fatalf("parseRxCmsgs = (%d, %d), want (%d, %d)", stride, stamp, c.wantStride, c.wantStamp)
			}
		})
	}
}

// FuzzParseRxCmsgs feeds arbitrary control data to the walk. It must
// not panic, and bytes past Controllen must not change its answer: the
// fuzz input is parsed once as an exact-length slice and once followed
// by well-formed GRO and timestamp cmsgs with sentinel values.
func FuzzParseRxCmsgs(f *testing.F) {
	gro, ts := groCmsg(1400), stampCmsg(1_700_000_000, 5)
	f.Add([]byte(nil))
	f.Add(gro)
	f.Add(ts)
	f.Add(append(append([]byte(nil), gro...), ts...))
	f.Add(append(append([]byte(nil), ts...), gro...))
	f.Add(append(append([]byte(nil), gro...), ts[:20]...))
	f.Add(make([]byte, syscall.SizeofCmsghdr))
	tail := append(groCmsg(7777), stampCmsg(7777, 7777)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		exact := append([]byte(nil), data...)
		stride, stamp := parseRxCmsgs(exact[:len(exact):len(exact)])
		padded := append(append([]byte(nil), data...), tail...)
		s2, st2 := parseRxCmsgs(padded[:len(data)])
		if s2 != stride || st2 != stamp {
			t.Fatalf("bytes past Controllen changed the parse: (%d, %d) vs (%d, %d)", s2, st2, stride, stamp)
		}
	})
}
