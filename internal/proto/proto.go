// Package proto defines the shard service's wire format: a small
// length-prefixed framed binary protocol carrying pipelined KV
// requests and their out-of-order responses (internal/netsvc is the
// server, cmd/msnap-load the reference client).
//
// Framing: every message is a 4-byte big-endian payload length
// followed by the payload. Payloads start with a one-byte frame type
// (request or response) and use fixed-width big-endian integers, so
// encode and decode are straight byte moves: AppendRequest and
// AppendResponse build frames into caller-reused buffers, and
// DecodeRequest returns byte slices aliasing the input frame — zero
// copies on either side of the socket.
//
// The decoder is hostile-input safe by construction: the length
// prefix is validated against MaxFrame before any buffer grows, every
// field read is bounds-checked, trailing garbage is an error, and
// unknown frame types or op kinds fail cleanly (FuzzFrameDecode pins
// this). A malformed frame can therefore cost the peer at most one
// bounded allocation and one closed connection — never a panic.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// MaxFrame bounds one frame's payload. The decoder refuses larger
// length prefixes before allocating, so a hostile peer cannot make
// the server reserve more than this per connection.
const MaxFrame = 64 << 10

// Wire limits. Tenant and keys are length-prefixed with u16 but
// additionally capped well below MaxFrame so the three of them plus
// the fixed header always fit one frame.
const MaxStringLen = 1 << 12

// Frame types (first payload byte).
const (
	frameRequest  = 0x01
	frameResponse = 0x02
)

// Kind is the wire operation code of a request.
type Kind uint8

const (
	// KindPing answers immediately with StatusOK; it never touches the
	// shard service (liveness probes, drain tests).
	KindPing Kind = iota
	// KindGet reads Tenant/Key.
	KindGet
	// KindPut durably sets Tenant/Key to Value.
	KindPut
	// KindAdd durably increments Tenant/Key by Value.
	KindAdd
	// KindDelete durably removes Tenant/Key.
	KindDelete
	// KindTransfer durably moves Value from Key to Key2 (same tenant,
	// same shard).
	KindTransfer
	kindCount
)

// kindTraceFlag is the trace-context bit of the request kind byte.
// When set, an 8-byte big-endian trace id follows the strings at the
// end of the payload; the low 7 bits still carry the Kind. Old
// decoders never saw the bit set (kinds are tiny), and this decoder
// still rejects any kind whose low bits are unknown, so the flag is a
// backward- and forward-compatible extension of the frame: the fuzz
// corpus's untraced frames decode byte-identically.
const kindTraceFlag = 0x80

// traceIDLen is the wire size of the optional trailing trace id.
const traceIDLen = 8

// Status is the response outcome code.
type Status uint8

const (
	// StatusOK: the operation was applied (writes: durably committed).
	// Reads report presence via the Found flag, not the status.
	StatusOK Status = iota
	// StatusRetryAfter: the target shard's queue was full. The request
	// was not applied; the client should wait RetryAfter and resend.
	// This is admission control surfacing on the wire — the connection
	// stays open.
	StatusRetryAfter
	// StatusClosed: the service is shutting down; the request was not
	// applied.
	StatusClosed
	// StatusBadRequest: the request failed wire- or key-validation
	// (oversized strings, unknown kind reported by decode).
	StatusBadRequest
	// StatusKeyTooLong: tenant+key exceed the service's key limit.
	StatusKeyTooLong
	// StatusCrossShard: a transfer's keys route to different shards.
	StatusCrossShard
	// StatusShardFull: the shard's slot table is at capacity.
	StatusShardFull
	// StatusInsufficient: a transfer's source balance is too small.
	StatusInsufficient
	// StatusInternal: any other server-side failure.
	StatusInternal
	statusCount
)

var statusNames = [statusCount]string{
	"ok", "retry_after", "closed", "bad_request", "key_too_long",
	"cross_shard", "shard_full", "insufficient", "internal",
}

// String returns the status's wire name.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Retryable reports whether a client may safely resend the request
// (the server guarantees it was not applied).
func (s Status) Retryable() bool { return s == StatusRetryAfter }

// Request is one decoded client request. After DecodeRequest the
// Tenant/Key/Key2 slices alias the frame buffer: they are valid only
// until the buffer is reused, so consumers that outlive the read loop
// (e.g. ops queued into shard workers) must copy them.
type Request struct {
	// ID is the client-chosen correlation id, echoed verbatim in the
	// response. IDs must be unique among a connection's in-flight
	// requests; reuse after completion is fine.
	ID     uint64
	Kind   Kind
	Tenant []byte
	Key    []byte
	Key2   []byte // transfer destination
	Value  uint64 // put value / add delta / transfer amount
	// Traced marks a sampled request carrying distributed trace
	// context: the frame's kind byte has the trace flag set and TraceID
	// rides at the end of the payload. Untraced requests pay zero extra
	// wire bytes. (Traced with TraceID 0 is representable on the wire
	// but receivers treat id 0 as "untraced".)
	Traced  bool
	TraceID uint64
}

// Response is one decoded server response.
type Response struct {
	// ID echoes the request's correlation id.
	ID     uint64
	Status Status
	// Found reports key presence for get/delete.
	Found bool
	// Value is the read value (get), post-increment value (add),
	// deleted value (delete) or remaining source balance (transfer).
	Value uint64
	// Epoch is the uCheckpoint epoch that made a write durable.
	Epoch uint64
	// RetryAfter is the backoff hint accompanying StatusRetryAfter,
	// with microsecond wire granularity; zero otherwise.
	RetryAfter time.Duration
}

// Decode errors. ErrTruncated covers every "frame shorter than its
// fields claim" shape; ErrTrailingBytes the converse.
var (
	ErrFrameTooLarge = errors.New("proto: frame length exceeds MaxFrame")
	ErrTruncated     = errors.New("proto: truncated frame")
	ErrTrailingBytes = errors.New("proto: trailing bytes after payload")
	ErrUnknownFrame  = errors.New("proto: unknown frame type")
	ErrUnknownKind   = errors.New("proto: unknown op kind")
	ErrUnknownStatus = errors.New("proto: unknown status")
	ErrUnknownFlags  = errors.New("proto: unknown response flag bits")
	ErrStringTooLong = errors.New("proto: tenant/key exceeds MaxStringLen")
)

// Fixed payload sizes: the request header before the variable-length
// strings, and the whole (fixed-size) response payload.
const (
	reqFixedLen  = 1 + 1 + 8 + 2 + 2 + 2 + 8 // type kind id tlen klen k2len value
	respFixedLen = 1 + 1 + 1 + 8 + 8 + 8 + 4 // type status flags id value epoch retry_us
)

// AppendRequest appends q as one complete frame (length prefix
// included) to dst and returns the extended slice. It validates the
// string lengths against MaxStringLen.
func AppendRequest(dst []byte, q *Request) ([]byte, error) {
	if len(q.Tenant) > MaxStringLen || len(q.Key) > MaxStringLen || len(q.Key2) > MaxStringLen {
		return dst, ErrStringTooLong
	}
	if q.Kind >= kindCount {
		return dst, ErrUnknownKind
	}
	kindByte := byte(q.Kind)
	n := reqFixedLen + len(q.Tenant) + len(q.Key) + len(q.Key2)
	if q.Traced {
		kindByte |= kindTraceFlag
		n += traceIDLen
	}
	dst = appendU32(dst, uint32(n))
	dst = append(dst, frameRequest, kindByte)
	dst = appendU64(dst, q.ID)
	dst = appendU16(dst, uint16(len(q.Tenant)))
	dst = appendU16(dst, uint16(len(q.Key)))
	dst = appendU16(dst, uint16(len(q.Key2)))
	dst = appendU64(dst, q.Value)
	dst = append(dst, q.Tenant...)
	dst = append(dst, q.Key...)
	dst = append(dst, q.Key2...)
	if q.Traced {
		dst = appendU64(dst, q.TraceID)
	}
	return dst, nil
}

// AppendResponse appends p as one complete frame (length prefix
// included) to dst and returns the extended slice.
func AppendResponse(dst []byte, p *Response) []byte {
	dst = appendU32(dst, respFixedLen)
	var flags byte
	if p.Found {
		flags |= 1
	}
	dst = append(dst, frameResponse, byte(p.Status), flags)
	dst = appendU64(dst, p.ID)
	dst = appendU64(dst, p.Value)
	dst = appendU64(dst, p.Epoch)
	us := p.RetryAfter / time.Microsecond
	if us < 0 {
		us = 0
	}
	if us > 0xffffffff {
		us = 0xffffffff
	}
	dst = appendU32(dst, uint32(us))
	return dst
}

// DecodeRequest parses one request payload (the bytes after the
// length prefix) into q. Tenant/Key/Key2 alias payload. Every decode
// failure leaves q unspecified and returns a typed error; the
// function never panics on malformed input.
func DecodeRequest(payload []byte, q *Request) error {
	if len(payload) < reqFixedLen {
		return ErrTruncated
	}
	if payload[0] != frameRequest {
		return ErrUnknownFrame
	}
	traced := payload[1]&kindTraceFlag != 0
	kind := Kind(payload[1] &^ kindTraceFlag)
	if kind >= kindCount {
		return ErrUnknownKind
	}
	id := binary.BigEndian.Uint64(payload[2:])
	tlen := int(binary.BigEndian.Uint16(payload[10:]))
	klen := int(binary.BigEndian.Uint16(payload[12:]))
	k2len := int(binary.BigEndian.Uint16(payload[14:]))
	value := binary.BigEndian.Uint64(payload[16:])
	if tlen > MaxStringLen || klen > MaxStringLen || k2len > MaxStringLen {
		return ErrStringTooLong
	}
	want := reqFixedLen + tlen + klen + k2len
	if traced {
		want += traceIDLen
	}
	if len(payload) < want {
		return ErrTruncated
	}
	if len(payload) > want {
		return ErrTrailingBytes
	}
	rest := payload[reqFixedLen:]
	q.ID = id
	q.Kind = kind
	q.Tenant = rest[:tlen:tlen]
	q.Key = rest[tlen : tlen+klen : tlen+klen]
	q.Key2 = rest[tlen+klen : tlen+klen+k2len : tlen+klen+k2len]
	q.Value = value
	q.Traced = traced
	q.TraceID = 0
	if traced {
		q.TraceID = binary.BigEndian.Uint64(payload[want-traceIDLen:])
	}
	return nil
}

// DecodeResponse parses one response payload into p. It never panics
// on malformed input.
func DecodeResponse(payload []byte, p *Response) error {
	if len(payload) < respFixedLen {
		return ErrTruncated
	}
	if payload[0] != frameResponse {
		return ErrUnknownFrame
	}
	if len(payload) > respFixedLen {
		return ErrTrailingBytes
	}
	st := Status(payload[1])
	if st >= statusCount {
		return ErrUnknownStatus
	}
	if payload[2]&^1 != 0 {
		return ErrUnknownFlags
	}
	p.Status = st
	p.Found = payload[2]&1 != 0
	p.ID = binary.BigEndian.Uint64(payload[3:])
	p.Value = binary.BigEndian.Uint64(payload[11:])
	p.Epoch = binary.BigEndian.Uint64(payload[19:])
	p.RetryAfter = time.Duration(binary.BigEndian.Uint32(payload[27:])) * time.Microsecond
	return nil
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
