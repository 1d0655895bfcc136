package wire

import (
	"testing"
	"testing/quick"
)

func TestHeaderRoundtrip(t *testing.T) {
	h := Header{
		PktType:    PktResp,
		ReqType:    42,
		MsgSize:    8 << 20,
		DstSession: 65535,
		PktNum:     8191,
		ReqNum:     MaxReqNum,

		EndpointDelay: MaxEndpointDelay,
	}
	var buf [HeaderSize]byte
	if err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	var got Header
	if err := got.Decode(buf[:]); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, h)
	}
}

func TestHeaderRoundtripProperty(t *testing.T) {
	f := func(pt uint8, reqType uint8, msgSize uint32, sess uint16, pktNum uint16, reqNum uint64) bool {
		h := Header{
			PktType:    PktType(pt % 7),
			ReqType:    reqType,
			MsgSize:    msgSize % (MaxMsgSize + 1),
			DstSession: sess,
			PktNum:     pktNum,
			ReqNum:     reqNum % (MaxReqNum + 1),
		}
		var buf [HeaderSize]byte
		if err := h.Encode(buf[:]); err != nil {
			return false
		}
		var got Header
		if err := got.Decode(buf[:]); err != nil {
			return false
		}
		return got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestHeaderEndpointDelay round-trips the endpoint delay at 0, 1 and
// its maximum on the two packet types that carry it, checks that Encode
// saturates a larger value, that it never disturbs the request number
// sharing word1 with it, and that a packet type without the field
// encodes and decodes it as 0.
func TestHeaderEndpointDelay(t *testing.T) {
	cases := []struct {
		in, want uint16
	}{{0, 0}, {1, 1}, {MaxEndpointDelay, MaxEndpointDelay}, {MaxEndpointDelay + 1, MaxEndpointDelay}, {1<<16 - 1, MaxEndpointDelay}}
	for _, pt := range []PktType{PktCR, PktResp, PktReq, PktRFR, PktReject} {
		for _, c := range cases {
			for _, reqNum := range []uint64{0, 8, MaxReqNum} {
				h := Header{PktType: pt, ReqType: 3, MsgSize: 5000, DstSession: 9, PktNum: 2, ReqNum: reqNum, EndpointDelay: c.in}
				var buf [HeaderSize]byte
				if err := h.Encode(buf[:]); err != nil {
					t.Fatalf("%v delay %d: %v", pt, c.in, err)
				}
				var got Header
				if err := got.Decode(buf[:]); err != nil {
					t.Fatal(err)
				}
				want := h
				want.EndpointDelay = c.want
				if !pt.HasDelay() {
					want.EndpointDelay = 0
				}
				if got != want {
					t.Fatalf("%v delay %d reqNum %d: decoded %+v, want %+v", pt, c.in, reqNum, got, want)
				}
			}
		}
	}
}

// TestPatchEndpointDelay rewrites the delay of encoded headers at 0, 1,
// the maximum and past it (saturating). The patched bytes are what
// Encode writes for the patched header, so no other field moves; a type
// without the field and a short buffer are left untouched.
func TestPatchEndpointDelay(t *testing.T) {
	cases := []struct {
		in, want uint16
	}{{0, 0}, {1, 1}, {MaxEndpointDelay, MaxEndpointDelay}, {MaxEndpointDelay + 1, MaxEndpointDelay}, {1<<16 - 1, MaxEndpointDelay}}
	for _, pt := range []PktType{PktCR, PktResp, PktReq, PktRFR, PktPing, PktReject} {
		for _, c := range cases {
			for _, reqNum := range []uint64{0, 8, MaxReqNum} {
				h := Header{PktType: pt, ReqType: 255, MsgSize: MaxMsgSize, DstSession: 65535, PktNum: MaxPktNum, ReqNum: reqNum, EndpointDelay: 77}
				var buf [HeaderSize + 2]byte
				buf[HeaderSize], buf[HeaderSize+1] = 0xAB, 0xCD
				if err := h.Encode(buf[:]); err != nil {
					t.Fatal(err)
				}
				before := buf
				PatchEndpointDelay(buf[:], c.in)
				want := before
				if pt.HasDelay() {
					h.EndpointDelay = c.in
					if err := h.Encode(want[:]); err != nil {
						t.Fatal(err)
					}
				}
				if buf != want {
					t.Fatalf("%v reqNum %d patched to %d: % x, want % x", pt, reqNum, c.in, buf, want)
				}
				var got Header
				if err := got.Decode(buf[:]); err != nil {
					t.Fatal(err)
				}
				if pt.HasDelay() && got.EndpointDelay != c.want {
					t.Fatalf("%v patched to %d decodes delay %d, want %d", pt, c.in, got.EndpointDelay, c.want)
				}
			}
		}
	}
	short := []byte{Magic, byte(PktCR)}
	PatchEndpointDelay(short, 5)
	if short[0] != Magic || short[1] != byte(PktCR) {
		t.Fatalf("short buffer patched: % x", short)
	}
}

func TestHeaderEncodeRangeChecks(t *testing.T) {
	var buf [HeaderSize]byte
	h := Header{MsgSize: MaxMsgSize + 1}
	if err := h.Encode(buf[:]); err != ErrFieldRange {
		t.Fatalf("oversize MsgSize: err = %v, want ErrFieldRange", err)
	}
	h = Header{ReqNum: MaxReqNum + 1}
	if err := h.Encode(buf[:]); err != ErrFieldRange {
		t.Fatalf("oversize ReqNum: err = %v, want ErrFieldRange", err)
	}
	h = Header{PktType: 7}
	if err := h.Encode(buf[:]); err != ErrFieldRange {
		t.Fatalf("bad PktType: err = %v, want ErrFieldRange", err)
	}
	// PktReject (6) is the highest valid type and must encode.
	h = Header{PktType: PktReject}
	if err := h.Encode(buf[:]); err != nil {
		t.Fatalf("PktReject should encode: %v", err)
	}
}

func TestHeaderShortBuffers(t *testing.T) {
	var h Header
	short := make([]byte, HeaderSize-1)
	if err := h.Encode(short); err != ErrShortPacket {
		t.Fatalf("Encode short: %v", err)
	}
	if err := h.Decode(short); err != ErrShortPacket {
		t.Fatalf("Decode short: %v", err)
	}
}

func TestHeaderBadMagic(t *testing.T) {
	var h Header
	var buf [HeaderSize]byte
	if err := h.Encode(buf[:]); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if err := h.Decode(buf[:]); err != ErrBadMagic {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestPktTypePredicates(t *testing.T) {
	if !PktCR.IsServerToClient() || !PktResp.IsServerToClient() || !PktReject.IsServerToClient() {
		t.Fatal("CR/Resp/Reject should be server-to-client")
	}
	if PktReq.IsServerToClient() || PktRFR.IsServerToClient() {
		t.Fatal("Req/RFR should be client-to-server")
	}
	if PktReject.HasData() {
		t.Fatal("Reject is header-only")
	}
	if !PktReq.HasData() || !PktResp.HasData() {
		t.Fatal("Req/Resp carry data")
	}
	if PktCR.HasData() || PktRFR.HasData() {
		t.Fatal("CR/RFR are header-only")
	}
}

func TestNumPkts(t *testing.T) {
	cases := []struct {
		size uint32
		mtu  int
		want int
	}{
		{0, 1024, 1},
		{1, 1024, 1},
		{1024, 1024, 1},
		{1025, 1024, 2},
		{8 << 20, 1024, 8192},
		{3000, 1000, 3},
	}
	for _, c := range cases {
		if got := NumPkts(c.size, c.mtu); got != c.want {
			t.Errorf("NumPkts(%d,%d) = %d, want %d", c.size, c.mtu, got, c.want)
		}
	}
}

func TestPktDataLen(t *testing.T) {
	// 2500-byte message, 1000-byte packets: 1000, 1000, 500.
	if PktDataLen(2500, 1000, 0) != 1000 || PktDataLen(2500, 1000, 1) != 1000 || PktDataLen(2500, 1000, 2) != 500 {
		t.Fatal("PktDataLen wrong for multi-packet message")
	}
	if PktDataLen(2500, 1000, 3) != 0 || PktDataLen(2500, 1000, -1) != 0 {
		t.Fatal("out-of-range pktNum should yield 0")
	}
	if PktDataLen(0, 1000, 0) != 0 {
		t.Fatal("zero-size message packet 0 carries 0 bytes")
	}
}

// Property: packet data lengths sum to the message size.
func TestPktDataLenSumsProperty(t *testing.T) {
	f := func(sizeRaw uint32, mtuRaw uint16) bool {
		size := sizeRaw % MaxMsgSize
		mtu := int(mtuRaw%4096) + 1
		n := NumPkts(size, mtu)
		var sum int
		for i := 0; i < n; i++ {
			l := PktDataLen(size, mtu, i)
			if l < 0 || l > mtu {
				return false
			}
			sum += l
		}
		return sum == int(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHeaderEncode(b *testing.B) {
	h := Header{PktType: PktReq, ReqType: 1, MsgSize: 32, DstSession: 7, ReqNum: 12345}
	var buf [HeaderSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Encode(buf[:])
	}
}

func BenchmarkHeaderDecode(b *testing.B) {
	h := Header{PktType: PktReq, ReqType: 1, MsgSize: 32, DstSession: 7, ReqNum: 12345}
	var buf [HeaderSize]byte
	_ = h.Encode(buf[:])
	var out Header
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = out.Decode(buf[:])
	}
}
