package wire

import (
	"testing"
)

// seedFrames returns valid encodings of every packet type plus
// interesting boundary values, used as the fuzz seed corpus.
func seedFrames() [][]byte {
	var frames [][]byte
	hdrs := []Header{
		{PktType: PktReq, ReqType: 1, MsgSize: 32, DstSession: 0, PktNum: 0, ReqNum: 8},
		{PktType: PktResp, ReqType: 1, MsgSize: 1024, DstSession: 3, PktNum: 1, ReqNum: 16},
		{PktType: PktCR, ReqType: 7, MsgSize: 5000, DstSession: 65535, PktNum: 2, ReqNum: MaxReqNum},
		{PktType: PktRFR, ReqType: 255, MsgSize: MaxMsgSize, DstSession: 1, PktNum: MaxPktNum, ReqNum: 1},
		{PktType: PktPing},
		{PktType: PktPong},
		{PktType: PktCR, MsgSize: 3000, PktNum: 0, ReqNum: 9, EndpointDelay: 1},
		{PktType: PktResp, MsgSize: 32, ReqNum: MaxReqNum, EndpointDelay: MaxEndpointDelay},
	}
	for _, h := range hdrs {
		buf := make([]byte, HeaderSize)
		if err := h.Encode(buf); err != nil {
			panic(err)
		}
		frames = append(frames, buf)
	}
	frames = append(frames,
		nil,                        // empty
		[]byte{Magic},              // truncated
		make([]byte, HeaderSize-1), // one byte short
		make([]byte, HeaderSize),   // zero (bad magic)
	)
	return frames
}

// FuzzParseHeader feeds arbitrary bytes to Decode. Headers that decode
// must re-encode, and the re-encoded bytes must decode to the same
// header (a canonical round trip: Decode masks reserved bits, so the
// second decode is the fixed point).
func FuzzParseHeader(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var h Header
		if err := h.Decode(data); err != nil {
			return
		}
		var buf [HeaderSize]byte
		if err := h.Encode(buf[:]); err != nil {
			// The only unencodable decoded headers are the packet
			// types above PktPong, which fit the 3-bit wire field but
			// have no meaning.
			if h.PktType > PktPong {
				return
			}
			t.Fatalf("decoded header %+v does not re-encode: %v", h, err)
		}
		var h2 Header
		if err := h2.Decode(buf[:]); err != nil {
			t.Fatalf("re-encoded header does not decode: %v", err)
		}
		if h2 != h {
			t.Fatalf("round trip changed header: %+v -> %+v", h, h2)
		}
	})
}

// FuzzPatchEndpointDelay patches the delay of arbitrary bytes. Where
// they decode, the patched header decodes to the same header except for
// EndpointDelay, which is us saturated on the types that carry it and
// stays 0 on the rest; nothing past the header changes, and bytes that
// do not decode are only ever touched in the delay bits.
func FuzzPatchEndpointDelay(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame, uint16(0))
		f.Add(frame, uint16(MaxEndpointDelay+1))
	}
	f.Fuzz(func(t *testing.T, data []byte, us uint16) {
		patched := append([]byte(nil), data...)
		PatchEndpointDelay(patched, us)
		// The delay bits: word0's top five, word1's top seven.
		var delayBits [HeaderSize]byte
		delayBits[7], delayBits[15] = 0xF8, 0xFE
		for i := range data {
			if diff := data[i] ^ patched[i]; diff != 0 && (i >= HeaderSize || diff&^delayBits[i] != 0) {
				t.Fatalf("patch changed byte %d beyond the delay bits: %#x -> %#x", i, data[i], patched[i])
			}
		}
		var orig, got Header
		if orig.Decode(data) != nil {
			return
		}
		if err := got.Decode(patched); err != nil {
			t.Fatalf("patched header does not decode: %v", err)
		}
		want := orig
		if orig.PktType.HasDelay() {
			want.EndpointDelay = min(us, MaxEndpointDelay)
		}
		if got != want {
			t.Fatalf("patch to %d µs: decoded %+v, want %+v", us, got, want)
		}
	})
}

// FuzzPktMath checks the packetization invariants for arbitrary
// message sizes: per-packet lengths are in (0, dataPerPkt] and sum to
// the message size.
func FuzzPktMath(f *testing.F) {
	f.Add(uint32(0), 1024)
	f.Add(uint32(1), 1024)
	f.Add(uint32(1024), 1024)
	f.Add(uint32(1025), 1024)
	f.Add(uint32(MaxMsgSize), 4096)
	f.Fuzz(func(t *testing.T, msgSize uint32, dataPerPkt int) {
		if msgSize > MaxMsgSize || dataPerPkt <= 0 || dataPerPkt > 1<<16 {
			return
		}
		n := NumPkts(msgSize, dataPerPkt)
		if n < 1 || n > int(msgSize)+1 {
			t.Fatalf("NumPkts(%d, %d) = %d", msgSize, dataPerPkt, n)
		}
		sum := 0
		for k := 0; k < n; k++ {
			l := PktDataLen(msgSize, dataPerPkt, k)
			if l < 0 || l > dataPerPkt {
				t.Fatalf("PktDataLen(%d, %d, %d) = %d out of range", msgSize, dataPerPkt, k, l)
			}
			if msgSize > 0 && l == 0 {
				t.Fatalf("PktDataLen(%d, %d, %d) = 0 for non-empty message", msgSize, dataPerPkt, k)
			}
			sum += l
		}
		if uint32(sum) != msgSize {
			t.Fatalf("packet lengths sum to %d, want %d", sum, msgSize)
		}
		if PktDataLen(msgSize, dataPerPkt, n) != 0 || PktDataLen(msgSize, dataPerPkt, -1) != 0 {
			t.Fatal("out-of-range packet index must carry no data")
		}
	})
}
