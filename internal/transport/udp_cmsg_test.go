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

func ovflCmsg(drops uint32) []byte {
	var d [4]byte
	binary.NativeEndian.PutUint32(d[:], drops)
	return cmsg(syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, d[:])
}

func stampCmsg(sec, nsec int64) []byte {
	var d [16]byte
	binary.NativeEndian.PutUint64(d[0:8], uint64(sec))
	binary.NativeEndian.PutUint64(d[8:16], uint64(nsec))
	return cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, d[:])
}

// TestRxCtrlSpace: the RX control stride holds all three cmsgs the
// socket can deliver at once (a single cmsg stride of 32 B did not).
func TestRxCtrlSpace(t *testing.T) {
	if want := 2*syscall.CmsgSpace(4) + syscall.CmsgSpace(16); rxCtrlSpace != want {
		t.Fatalf("rxCtrlSpace = %d, want 2*CmsgSpace(4)+CmsgSpace(16) = %d", rxCtrlSpace, want)
	}
	if n := len(groCmsg(1)) + len(stampCmsg(1, 2)) + len(ovflCmsg(3)); n > rxCtrlSpace {
		t.Fatalf("GRO + timestamp + overflow cmsgs take %d bytes, the stride is %d", n, rxCtrlSpace)
	}
}

// TestParseRxCmsgs walks synthetic control buffers: each cmsg alone,
// all of them in every order, and the malformed shapes that must end
// the walk without reading past Controllen.
func TestParseRxCmsgs(t *testing.T) {
	const sec, nsec = 1_700_000_000, 123_456_789
	const stamp = sec*1_000_000_000 + nsec
	gro, ts, ov := groCmsg(1400), stampCmsg(sec, nsec), ovflCmsg(77)
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
		wantDrops  uint32
	}{
		{"empty", nil, 0, 0, 0},
		{"gro only", gro, 1400, 0, 0},
		{"timestamp only", ts, 0, stamp, 0},
		{"overflow only", ov, 0, 0, 77},
		{"gro then timestamp", cat(gro, ts), 1400, stamp, 0},
		{"timestamp then gro", cat(ts, gro), 1400, stamp, 0},
		{"gro timestamp overflow", cat(gro, ts, ov), 1400, stamp, 77},
		{"gro overflow timestamp", cat(gro, ov, ts), 1400, stamp, 77},
		{"timestamp gro overflow", cat(ts, gro, ov), 1400, stamp, 77},
		{"timestamp overflow gro", cat(ts, ov, gro), 1400, stamp, 77},
		{"overflow gro timestamp", cat(ov, gro, ts), 1400, stamp, 77},
		{"overflow timestamp gro", cat(ov, ts, gro), 1400, stamp, 77},
		{"truncated second header", cat(gro, ts[:syscall.SizeofCmsghdr-4]), 1400, 0, 0},
		{"second header without its data", cat(gro, ts[:syscall.SizeofCmsghdr+8]), 1400, 0, 0},
		{"zero Len", cat(zeroLen, ts), 0, 0, 0},
		{"Len past Controllen", cat(gro, longLen), 1400, 0, 0},
		{"short GRO data", cat(shortGRO, ts), 0, stamp, 0},
		{"short overflow data", cat(cmsg(syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, []byte{1, 2}), ts), 0, stamp, 0},
		{"foreign cmsg skipped", cat(cmsg(syscall.SOL_IP, 8, []byte{1, 2, 3, 4}), ts, gro), 1400, stamp, 0},
		{"no trailing padding", cat(ts, gro[:syscall.CmsgLen(4)]), 1400, stamp, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// An exact-length copy: a read past Controllen panics.
			ctrl := append([]byte(nil), c.ctrl...)
			stride, stamp, drops := parseRxCmsgs(ctrl[:len(ctrl):len(ctrl)])
			if stride != c.wantStride || stamp != c.wantStamp || drops != c.wantDrops {
				t.Fatalf("parseRxCmsgs = (%d, %d, %d), want (%d, %d, %d)",
					stride, stamp, drops, c.wantStride, c.wantStamp, c.wantDrops)
			}
		})
	}
}

// FuzzParseRxCmsgs feeds arbitrary control data to the walk. It must
// not panic, and bytes past Controllen must not change its answer: the
// fuzz input is parsed once as an exact-length slice and once followed
// by well-formed GRO, timestamp and overflow cmsgs with sentinel
// values.
func FuzzParseRxCmsgs(f *testing.F) {
	gro, ts, ov := groCmsg(1400), stampCmsg(1_700_000_000, 5), ovflCmsg(9)
	f.Add([]byte(nil))
	f.Add(gro)
	f.Add(ts)
	f.Add(append(append([]byte(nil), gro...), ts...))
	f.Add(append(append([]byte(nil), ts...), gro...))
	f.Add(append(append([]byte(nil), gro...), ts[:20]...))
	f.Add(make([]byte, syscall.SizeofCmsghdr))
	f.Add(append(append(append([]byte(nil), ov...), gro...), ts...))
	tail := append(append(groCmsg(7777), stampCmsg(7777, 7777)...), ovflCmsg(7777)...)
	f.Fuzz(func(t *testing.T, data []byte) {
		exact := append([]byte(nil), data...)
		stride, stamp, drops := parseRxCmsgs(exact[:len(exact):len(exact)])
		padded := append(append([]byte(nil), data...), tail...)
		s2, st2, d2 := parseRxCmsgs(padded[:len(data)])
		if s2 != stride || st2 != stamp || d2 != drops {
			t.Fatalf("bytes past Controllen changed the parse: (%d, %d, %d) vs (%d, %d, %d)", s2, st2, d2, stride, stamp, drops)
		}
	})
}
