// Package wire defines eRPC's on-the-wire packet format.
//
// Every eRPC packet carries a fixed 16-byte header (the paper's §4.2.1
// "transport header and eRPC metadata") followed by up to one MTU of
// application data. Credit-return (CR) and request-for-response (RFR)
// packets are header-only, matching the paper's "tiny 16 B packets".
//
// The header packs into two 64-bit words:
//
//	word0: magic(8) | pktType(3) | reqType(8) | msgSize(24) | dstSession(16) | delayLo(5)
//	word1: pktNum(16) | reqNum(41) | delayHi(7)
//
// delayLo and delayHi are the 12-bit endpoint delay (µs) that CR and
// response packets carry: how long the server held the packet that
// triggered the reply, from its kernel receive stamp to the flush that
// hands the reply to the transport (PatchEndpointDelay writes it into
// the encoded header there). The client subtracts it from its RTT
// sample so Timely sees the fabric, not the server's scheduling
// (Swift's endpoint/fabric split). Its low five bits are word0's
// formerly reserved bits; the
// other seven are the top of what was a 48-bit request number. They
// come from reqNum rather than from the reqType byte, which server→
// client packets echo unread, so that every field keeps one meaning on
// every packet type: a 41-bit request number still lasts a session
// 2.2·10¹² requests (25 days at 1 Mrps). Packets of other types carry
// no delay; their delay bits are zero.
//
// Encoding and decoding are zero-copy in the gopacket DecodingLayer
// style: Decode fills a caller-owned Header from the packet prefix
// without allocating.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderSize is the fixed length of an eRPC packet header in bytes.
const HeaderSize = 16

// Magic identifies eRPC packets; packets with a different first byte
// are dropped by the transport demultiplexer.
const Magic = 0xE5

// Limits imposed by the header field widths.
const (
	MaxMsgSize = 1<<24 - 1 // 24-bit message size: up to 16 MB - 1 (paper supports 8 MB)
	MaxPktNum  = 1<<16 - 1
	MaxReqNum  = 1<<41 - 1

	// MaxEndpointDelay is the largest endpoint delay the header carries,
	// in microseconds; Encode saturates larger values. Under-reporting
	// the delay only makes the client's congestion control more
	// cautious.
	MaxEndpointDelay = 1<<12 - 1
)

// PktType distinguishes the four packet kinds of the client-driven
// protocol (paper §5.1).
type PktType uint8

const (
	// PktReq carries request data, client → server.
	PktReq PktType = iota
	// PktRFR is a request-for-response, client → server, header-only.
	PktRFR
	// PktCR is an explicit credit return, server → client, header-only.
	PktCR
	// PktResp carries response data, server → client.
	PktResp
	// PktPing is a session-management heartbeat used for node failure
	// detection (paper Appendix B), header-only.
	PktPing
	// PktPong answers a PktPing, header-only.
	PktPong
	// PktReject is an explicit overload/drain rejection, server →
	// client, header-only: the server refuses to admit the request
	// identified by ReqNum (bounded backlog or in-flight ceiling
	// exceeded, or the endpoint is draining). The client backs off and
	// retries later instead of hammering the RTO path.
	PktReject
)

func (t PktType) String() string {
	switch t {
	case PktReq:
		return "req"
	case PktRFR:
		return "rfr"
	case PktCR:
		return "cr"
	case PktResp:
		return "resp"
	case PktPing:
		return "ping"
	case PktPong:
		return "pong"
	case PktReject:
		return "reject"
	}
	return fmt.Sprintf("pkttype(%d)", uint8(t))
}

// IsServerToClient reports whether this packet type flows from the
// server endpoint of a session to the client endpoint.
func (t PktType) IsServerToClient() bool { return t == PktCR || t == PktResp || t == PktReject }

// HasData reports whether packets of this type carry payload bytes.
func (t PktType) HasData() bool { return t == PktReq || t == PktResp }

// HasDelay reports whether packets of this type carry the server's
// endpoint delay: the replies a client takes RTT samples from.
func (t PktType) HasDelay() bool { return t == PktCR || t == PktResp }

// Header is the decoded form of an eRPC packet header.
type Header struct {
	PktType    PktType
	ReqType    uint8  // request handler type registered at the Nexus
	MsgSize    uint32 // total message size in bytes (request or response)
	DstSession uint16 // session number at the destination endpoint
	PktNum     uint16 // packet index within the message (or within the response, for RFR)
	ReqNum     uint64 // monotonically increasing per-slot request number
	// EndpointDelay is the time in µs the server held the packet this
	// CR or response answers, from its kernel receive stamp to the
	// reply's flush (0: unknown). Only HasDelay types carry it.
	EndpointDelay uint16
}

// Errors returned by Decode and Encode.
var (
	ErrShortPacket = errors.New("wire: packet shorter than header")
	ErrBadMagic    = errors.New("wire: bad magic byte")
	ErrFieldRange  = errors.New("wire: header field out of range")
)

// Encode writes the header into buf[:HeaderSize]. buf must be at least
// HeaderSize long. It returns ErrFieldRange if any field exceeds its
// wire width.
func (h *Header) Encode(buf []byte) error {
	if len(buf) < HeaderSize {
		return ErrShortPacket
	}
	if h.MsgSize > MaxMsgSize || h.ReqNum > MaxReqNum || h.PktType > PktReject {
		return ErrFieldRange
	}
	var d uint64
	if h.PktType.HasDelay() {
		d = uint64(min(h.EndpointDelay, MaxEndpointDelay))
	}
	w0 := uint64(Magic) |
		uint64(h.PktType)<<8 |
		uint64(h.ReqType)<<11 |
		uint64(h.MsgSize)<<19 |
		uint64(h.DstSession)<<43 |
		(d&0x1f)<<59
	w1 := uint64(h.PktNum) | h.ReqNum<<16 | (d>>5)<<57
	binary.LittleEndian.PutUint64(buf[0:8], w0)
	binary.LittleEndian.PutUint64(buf[8:16], w1)
	return nil
}

// Decode fills h from the first HeaderSize bytes of buf without
// allocating. It validates the magic byte.
func (h *Header) Decode(buf []byte) error {
	if len(buf) < HeaderSize {
		return ErrShortPacket
	}
	w0 := binary.LittleEndian.Uint64(buf[0:8])
	if byte(w0) != Magic {
		return ErrBadMagic
	}
	w1 := binary.LittleEndian.Uint64(buf[8:16])
	h.PktType = PktType(w0 >> 8 & 0x7)
	h.ReqType = uint8(w0 >> 11)
	h.MsgSize = uint32(w0 >> 19 & (1<<24 - 1))
	h.DstSession = uint16(w0 >> 43)
	h.PktNum = uint16(w1)
	h.ReqNum = w1 >> 16 & MaxReqNum
	h.EndpointDelay = 0
	if h.PktType.HasDelay() {
		h.EndpointDelay = uint16(w0>>59 | w1>>57<<5)
	}
	return nil
}

// PatchEndpointDelay rewrites the endpoint delay of the header encoded
// in buf to us µs, saturating at MaxEndpointDelay, and leaves every
// other bit of buf as it was: a server sets the delay when it flushes a
// reply encoded earlier. A buf shorter than a header, or whose packet
// type carries no delay (HasDelay), is left alone.
func PatchEndpointDelay(buf []byte, us uint16) {
	if len(buf) < HeaderSize || !PktType(buf[1]&0x7).HasDelay() {
		return
	}
	d := uint64(min(us, MaxEndpointDelay))
	w0 := binary.LittleEndian.Uint64(buf[0:8])
	w1 := binary.LittleEndian.Uint64(buf[8:16])
	w0 = w0&^(0x1f<<59) | (d&0x1f)<<59
	w1 = w1&^(0x7f<<57) | (d>>5)<<57
	binary.LittleEndian.PutUint64(buf[0:8], w0)
	binary.LittleEndian.PutUint64(buf[8:16], w1)
}

func (h *Header) String() string {
	return fmt.Sprintf("%s req#%d pkt%d type=%d size=%d sess=%d delay=%dus",
		h.PktType, h.ReqNum, h.PktNum, h.ReqType, h.MsgSize, h.DstSession, h.EndpointDelay)
}

// NumPkts returns the number of data packets needed for a message of
// msgSize bytes with the given per-packet data capacity. A zero-size
// message still uses one packet.
func NumPkts(msgSize uint32, dataPerPkt int) int {
	if dataPerPkt <= 0 {
		panic("wire: non-positive dataPerPkt")
	}
	if msgSize == 0 {
		return 1
	}
	return int((msgSize + uint32(dataPerPkt) - 1) / uint32(dataPerPkt))
}

// PktDataLen returns the number of data bytes carried by packet pktNum
// of a message of msgSize bytes.
func PktDataLen(msgSize uint32, dataPerPkt, pktNum int) int {
	n := NumPkts(msgSize, dataPerPkt)
	if pktNum < 0 || pktNum >= n {
		return 0
	}
	if pktNum < n-1 {
		return dataPerPkt
	}
	last := int(msgSize) - (n-1)*dataPerPkt
	return last
}
