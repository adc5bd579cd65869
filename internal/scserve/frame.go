package scserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"scverify/internal/checker"
	"scverify/internal/descriptor"
	"scverify/internal/spectrum"
	"scverify/internal/trace"
)

// The scserve session protocol is length-framed on top of the descriptor
// binary wire format. A frame is
//
//	[1-byte type] [uvarint payload length] [payload]
//
// and a session is
//
//	client: hello(version, k, p, b, v, flags)
//	client: symbols* (payloads concatenate into one descriptor byte stream;
//	        frames may split the stream anywhere, even mid-symbol)
//	client: end
//	server: one verdict frame per session — in response to end, or, once
//	        the checker stops early (rejection, undecodable input), to the
//	        next symbols frame (an empty one included) or end
//
// A connection carries any number of sessions sequentially; stats frames
// may be sent between sessions (and are answered mid-session too). Inside
// a session the server writes only in answer to a client frame. All
// uvarints are unsigned varints in encoding/binary's format.
const (
	frameHello       byte = 0x01 // open a session: header payload
	frameSymbols     byte = 0x02 // descriptor wire bytes
	frameEnd         byte = 0x03 // end of symbol stream; request final verdict
	frameStatsReq    byte = 0x04 // request a stats frame
	frameDrain       byte = 0x05 // admin: set drain mode (uvarint 1=drain, 0=undrain)
	frameExplore     byte = 0x06 // explore session: item batch, coordinator → backend
	frameVerdict     byte = 0x81 // server → client: session verdict
	frameStatsReply  byte = 0x82 // server → client: JSON-encoded Stats
	frameAck         byte = 0x83 // server → client: checkpointed progress ack
	frameExploreFwd  byte = 0x84 // explore session: item batch, backend → coordinator
	frameExploreRep  byte = 0x85 // explore session: credit/progress report
	frameExploreViol byte = 0x86 // explore session: violation path + rejection message
)

// protocolVersion is the hello version this package speaks.
const protocolVersion = 1

// Hello flag bits are allocated in the central wire-flag registry
// (internal/descriptor/flags.go) and aliased here; the scvet wireflag
// analyzer rejects flag bits invented outside the registry, so the next
// wire-compatible extension cannot silently collide with one in flight.
//
// helloFlagNoValues asks the server to skip the value-equality side of
// constraint 4 (the Section 4.4 optimization); the client is expected to
// run its own valuecheck pass.
const helloFlagNoValues = descriptor.HelloFlagNoValues

// helloFlagToken marks a session the server should checkpoint for later
// resumption: the payload continues with a length-prefixed client-chosen
// token, and the server emits ack frames as checkpoints are taken. Hellos
// without the flag encode byte-identically to the pre-resume format.
const helloFlagToken = descriptor.HelloFlagToken

// helloFlagResume (requires helloFlagToken) asks the server to resume the
// token's checkpointed session instead of starting fresh: the payload
// continues with the client's last-acked symbol index and byte offset.
// The server answers with an ack naming the checkpoint it actually
// resumed from (always at or past the client's position), and the client
// replays its buffered tail from there.
const helloFlagResume = descriptor.HelloFlagResume

// helloFlagTiered opts the session into tiered verdicts: rejections are
// re-adjudicated against the weaker-model ladder and the verdict carries
// the tier extension (verdictFlagTier). The hello payload is otherwise
// unchanged, so non-tiered hellos encode byte-identically to before.
const helloFlagTiered = descriptor.HelloFlagTiered

// helloFlagTenant marks a hello carrying a tenant identity: the payload
// continues with a length-prefixed tenant ID after the token/resume
// fields. Tenant-free hellos encode byte-identically to the pre-tenant
// format; the tenant never participates in resume-header equality.
const helloFlagTenant = descriptor.HelloFlagTenant

// helloFlagExplore switches the session into distributed-exploration mode:
// the payload continues (after the tenant field, were one present) with
// the explore extension, and the session exchanges explore item frames
// instead of symbol frames. Mutually exclusive with NoValues, Token,
// Resume, and Tiered — an explore session has no symbol stream to
// checkpoint and builds its own product checker per state. Explore-free
// hellos encode byte-identically to the pre-explore format.
const helloFlagExplore = descriptor.HelloFlagExplore

// maxTokenLen bounds the resume token a client may choose.
const maxTokenLen = 64

// maxTenantLen bounds the tenant ID a client may claim.
const maxTenantLen = 64

// Header opens a session: the bandwidth bound the checker is built for,
// optional protocol parameters (zero Params disables the label range
// check), and NoValues to request a value-blind checker.
//
// A non-empty Token opts the session into checkpoint/resume: the server
// clones the checker at symbol boundaries, retains the newest clone under
// the token, and acks the checkpointed position. Resume reopens the
// token's session from AckSymbol/AckOffset (the position of the last ack
// the client received). Tokens are client-chosen; RetryClient draws 16
// random bytes.
type Header struct {
	K        int
	Params   trace.Params
	NoValues bool

	// Tiered opts the session into tiered verdicts: on rejection the
	// server re-adjudicates the witness core against the weaker-model
	// ladder and annotates the verdict with the strongest tier satisfied.
	Tiered bool

	Token     string
	Resume    bool
	AckSymbol int
	AckOffset int64

	// Tenant identifies who the session is accounted to for fair-share
	// admission, quotas, and per-tenant stats. Empty means the default
	// (unidentified) tenant; the field rides behind helloFlagTenant and
	// never participates in resume-header equality.
	Tenant string

	// Explore, when non-nil, switches the session into distributed
	// exploration: this backend becomes one shard of an scmc grid. The
	// extension rides behind helloFlagExplore after the tenant field.
	Explore *ExploreHeader
}

func appendHello(dst []byte, h Header) []byte {
	dst = binary.AppendUvarint(dst, protocolVersion)
	dst = binary.AppendUvarint(dst, uint64(h.K))
	dst = binary.AppendUvarint(dst, uint64(h.Params.Procs))
	dst = binary.AppendUvarint(dst, uint64(h.Params.Blocks))
	dst = binary.AppendUvarint(dst, uint64(h.Params.Values))
	var flags uint64
	if h.NoValues {
		flags |= helloFlagNoValues
	}
	if h.Tiered {
		flags |= helloFlagTiered
	}
	if h.Token != "" {
		flags |= helloFlagToken
		if h.Resume {
			flags |= helloFlagResume
		}
	}
	if h.Tenant != "" {
		flags |= helloFlagTenant
	}
	if h.Explore != nil {
		flags |= helloFlagExplore
	}
	dst = binary.AppendUvarint(dst, flags)
	if h.Token != "" {
		dst = binary.AppendUvarint(dst, uint64(len(h.Token)))
		dst = append(dst, h.Token...)
		if h.Resume {
			dst = binary.AppendUvarint(dst, uint64(h.AckSymbol))
			dst = binary.AppendUvarint(dst, uint64(h.AckOffset))
		}
	}
	if h.Tenant != "" {
		dst = binary.AppendUvarint(dst, uint64(len(h.Tenant)))
		dst = append(dst, h.Tenant...)
	}
	if h.Explore != nil {
		dst = appendExploreHeader(dst, h.Explore)
	}
	return dst
}

func parseHello(payload []byte) (Header, error) {
	var h Header
	fields := []struct {
		name string
		dst  *int
	}{
		{"version", nil},
		{"k", &h.K},
		{"p", &h.Params.Procs},
		{"b", &h.Params.Blocks},
		{"v", &h.Params.Values},
		{"flags", nil},
	}
	pos := 0
	var resume bool
	for i, f := range fields {
		v, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return Header{}, fmt.Errorf("hello: truncated %s field", f.name)
		}
		pos += n
		switch {
		case i == 0:
			if v != protocolVersion {
				return Header{}, fmt.Errorf("hello: protocol version %d, want %d", v, protocolVersion)
			}
		case f.dst != nil:
			if v > 1<<31 {
				return Header{}, fmt.Errorf("hello: %s field %d out of range", f.name, v)
			}
			*f.dst = int(v)
		default: // flags
			h.NoValues = v&helloFlagNoValues != 0
			h.Tiered = v&helloFlagTiered != 0
			resume = v&helloFlagResume != 0
			if resume && v&helloFlagToken == 0 {
				return Header{}, fmt.Errorf("hello: resume flag without a session token")
			}
			if v&helloFlagToken != 0 {
				tl, n := binary.Uvarint(payload[pos:])
				if n <= 0 {
					return Header{}, fmt.Errorf("hello: truncated token length")
				}
				pos += n
				if tl < 1 || tl > maxTokenLen {
					return Header{}, fmt.Errorf("hello: token length %d outside 1..%d", tl, maxTokenLen)
				}
				if uint64(len(payload)-pos) < tl {
					return Header{}, fmt.Errorf("hello: truncated token")
				}
				h.Token = string(payload[pos : pos+int(tl)])
				pos += int(tl)
			}
			if resume {
				h.Resume = true
				for _, rf := range []struct {
					name string
					max  uint64
					set  func(uint64)
				}{
					{"ack symbol", 1 << 40, func(v uint64) { h.AckSymbol = int(v) }},
					{"ack offset", 1 << 60, func(v uint64) { h.AckOffset = int64(v) }},
				} {
					v, n := binary.Uvarint(payload[pos:])
					if n <= 0 {
						return Header{}, fmt.Errorf("hello: truncated %s field", rf.name)
					}
					pos += n
					if v > rf.max {
						return Header{}, fmt.Errorf("hello: %s %d out of range", rf.name, v)
					}
					rf.set(v)
				}
			}
			if v&helloFlagTenant != 0 {
				tl, n := binary.Uvarint(payload[pos:])
				if n <= 0 {
					return Header{}, fmt.Errorf("hello: truncated tenant length")
				}
				pos += n
				if tl < 1 || tl > maxTenantLen {
					return Header{}, fmt.Errorf("hello: tenant length %d outside 1..%d", tl, maxTenantLen)
				}
				if uint64(len(payload)-pos) < tl {
					return Header{}, fmt.Errorf("hello: truncated tenant")
				}
				h.Tenant = string(payload[pos : pos+int(tl)])
				pos += int(tl)
			}
			if v&helloFlagExplore != 0 {
				if v&(helloFlagNoValues|helloFlagToken|helloFlagResume|helloFlagTiered) != 0 {
					return Header{}, fmt.Errorf("hello: explore flag combined with symbol-session flags %#x", v)
				}
				eh, n, err := parseExploreHeader(payload[pos:])
				if err != nil {
					return Header{}, err
				}
				pos += n
				h.Explore = eh
			}
			if v &^= helloFlagNoValues | helloFlagToken | helloFlagResume | helloFlagTiered | helloFlagTenant | helloFlagExplore; v != 0 {
				return Header{}, fmt.Errorf("hello: unknown flags %#x", v)
			}
		}
	}
	if pos != len(payload) {
		return Header{}, fmt.Errorf("hello: %d trailing bytes", len(payload)-pos)
	}
	return h, nil
}

// bare strips the session-management fields, leaving only the parts of a
// header that shape the checker — the equality a resume must preserve.
func (h Header) bare() Header {
	return Header{K: h.K, Params: h.Params, NoValues: h.NoValues}
}

// Ack frames carry the highest fully-checked position the server holds a
// checkpoint for: everything before (symbol, byte offset) is durable, and
// a client may discard its local copy of those bytes.
func appendAck(dst []byte, sym int, off int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(sym))
	return binary.AppendUvarint(dst, uint64(off))
}

func parseAck(payload []byte) (sym int, off int64, err error) {
	s, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, 0, fmt.Errorf("ack: truncated symbol field")
	}
	o, m := binary.Uvarint(payload[n:])
	if m <= 0 {
		return 0, 0, fmt.Errorf("ack: truncated offset field")
	}
	if s > 1<<40 || o > 1<<60 {
		return 0, 0, fmt.Errorf("ack: position out of range")
	}
	if n+m != len(payload) {
		return 0, 0, fmt.Errorf("ack: %d trailing bytes", len(payload)-n-m)
	}
	return int(s), int64(o), nil
}

// VerdictCode classifies a session outcome.
type VerdictCode uint8

const (
	// VerdictAccept: the stream describes an acyclic, well-annotated
	// constraint graph — the run is SC under the chosen annotation.
	VerdictAccept VerdictCode = iota
	// VerdictReject: the checker rejected; Symbol/Offset locate the
	// rejecting symbol (or the end of stream for Finish-time rejections).
	VerdictReject
	// VerdictProtocolError: the session itself was malformed — bad frame,
	// undecodable symbol bytes (positioned), bad hello, or server limits.
	VerdictProtocolError
)

// verdictFlagWitness is OR'd into the verdict code varint when the
// payload carries the witness extension: two extra uvarints (constraint
// code + 1, cycle length) between the offset field and the message. The
// bit sits above the code value space, so pre-extension payloads parse
// unchanged (Constraint = 0, CycleLen = 0) and pre-extension parsers
// reject extended payloads as an unknown code rather than misreading
// witness bytes as part of the message. Allocated in the descriptor
// wire-flag registry, like the hello bits.
const verdictFlagWitness = descriptor.VerdictFlagWitness

// verdictFlagTier is OR'd into the verdict code varint when the payload
// carries the tier extension: three extra uvarints (tier code, reorder
// store position + 1, reorder past position + 1) after the witness fields
// and before the message. Sent only on sessions that opted in via
// helloFlagTiered, so legacy sessions' payloads stay byte-identical.
const verdictFlagTier = descriptor.VerdictFlagTier

// maxTierCode bounds the tier codes a parser accepts. Codes above the
// tiers this build knows are tolerated (a newer peer may have grown the
// ladder) and render as "tier(N)"; the bound only rejects garbage.
const maxTierCode = 64

func (c VerdictCode) String() string {
	switch c {
	case VerdictAccept:
		return "accept"
	case VerdictReject:
		return "reject"
	case VerdictProtocolError:
		return "protocol-error"
	default:
		return fmt.Sprintf("VerdictCode(%d)", uint8(c))
	}
}

// Verdict is the server's adjudication of one session. Symbol is the
// zero-based index of the offending symbol in the session's stream and
// Offset the byte offset of its first byte; both are -1 when not
// applicable (accepts, pre-stream protocol errors).
type Verdict struct {
	Code   VerdictCode
	Symbol int
	Offset int64
	// Constraint is the checker.Constraint code of a rejection (the
	// witness extension), 0 when unclassified or from a pre-extension
	// peer. CycleLen is the number of operations on the offending cycle
	// when Constraint is the acyclicity requirement, 0 otherwise.
	Constraint int
	CycleLen   int
	// Tiered marks a verdict carrying the tier extension: Tier is the
	// spectrum.Tier code of the strongest weaker model the rejected core
	// satisfies (possibly unknown to this build when the peer is newer),
	// and ReorderStore/ReorderPast are the trace positions, within the
	// minimized core, of the store-buffer reordering licensing a TSO/PSO
	// tier (-1 when not applicable).
	Tiered       bool
	Tier         int
	ReorderStore int
	ReorderPast  int
	Msg          string
}

// String renders the verdict on one line.
func (v Verdict) String() string {
	s := v.Code.String()
	if v.Symbol >= 0 {
		s += fmt.Sprintf(" at symbol %d (byte %d)", v.Symbol, v.Offset)
	}
	if v.Constraint > 0 {
		s += fmt.Sprintf(" [%s", checker.Constraint(v.Constraint))
		if v.CycleLen > 0 {
			s += fmt.Sprintf(", cycle of %d", v.CycleLen)
		}
		s += "]"
	}
	if v.Tiered {
		s += fmt.Sprintf(" [tier: %s", spectrum.Tier(v.Tier))
		if v.ReorderStore >= 0 && v.ReorderPast >= 0 {
			s += fmt.Sprintf(", store op %d drained after op %d", v.ReorderStore, v.ReorderPast)
		}
		s += "]"
	}
	return s + ": " + v.Msg
}

// busyPrefix marks the server's clean capacity rejection; see Busy.
const busyPrefix = "busy: "

// drainingPrefix marks the busy-family verdict a draining backend
// answers fresh hellos with; see Draining. Nesting inside busyPrefix is
// deliberate: a peer that predates draining sees an ordinary busy and
// backs off — safe, just slower than a redirect.
const drainingPrefix = busyPrefix + "draining: "

// quotaPrefix marks the busy-family verdict a tenant over its session or
// byte quota receives; see Quota. Nested inside busyPrefix for the same
// forward-compatibility reason as drainingPrefix.
const quotaPrefix = busyPrefix + "quota: "

// resumeMissPrefix marks the server's answer to a resume whose token is
// unknown or expired; see ResumeMiss.
const resumeMissPrefix = "resume: "

// Busy reports whether the verdict is the server's session-capacity
// rejection — a clean, retryable condition (the connection stays usable;
// back off and reopen the session) as opposed to a genuine protocol
// error.
func (v Verdict) Busy() bool {
	return v.Code == VerdictProtocolError && strings.HasPrefix(v.Msg, busyPrefix)
}

// BusyVerdict builds the clean capacity-rejection verdict (Verdict.Busy
// reports true for it). The server uses it when at session capacity; the
// scgrid admission layer sheds over-deadline sessions with the same
// verdict so clients see one retryable vocabulary either way.
func BusyVerdict(msg string) Verdict {
	return Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1, Msg: busyPrefix + msg}
}

// Draining reports whether the verdict is a draining backend declining a
// fresh hello. Draining implies Busy (the message nests the prefixes), so
// a drain-unaware client degrades to ordinary backoff; a drain-aware
// client treats it as redirect-not-failure — re-place immediately on
// another backend, no backoff, no retry attempt consumed.
func (v Verdict) Draining() bool {
	return v.Code == VerdictProtocolError && strings.HasPrefix(v.Msg, drainingPrefix)
}

// DrainingVerdict builds the verdict a draining backend answers fresh
// hellos with (Draining and Busy both report true for it). In-flight and
// resuming sessions are unaffected: drain refuses new work while the
// token/checkpoint machinery hands the old work off.
func DrainingVerdict(msg string) Verdict {
	return Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1, Msg: drainingPrefix + msg}
}

// Quota reports whether the verdict is a per-tenant quota rejection —
// the tenant is over its concurrent-session or byte budget. Quota implies
// Busy, so legacy clients back off; the overload is the tenant's own, and
// redirecting to another backend would not help.
func (v Verdict) Quota() bool {
	return v.Code == VerdictProtocolError && strings.HasPrefix(v.Msg, quotaPrefix)
}

// QuotaVerdict builds the per-tenant quota rejection (Quota and Busy both
// report true for it).
func QuotaVerdict(msg string) Verdict {
	return Verdict{Code: VerdictProtocolError, Symbol: -1, Offset: -1, Msg: quotaPrefix + msg}
}

// ResumeMiss reports whether the verdict is the server declining a resume
// because the token is unknown, expired, or evicted. Unlike other
// protocol errors this one is recoverable without operator attention: the
// client still holds the full stream (or can regenerate it), so the right
// response is a fresh session replaying from byte zero — which is exactly
// what the scgrid fabric does when a backend restarts and loses its
// checkpoint store.
func (v Verdict) ResumeMiss() bool {
	return v.Code == VerdictProtocolError && strings.HasPrefix(v.Msg, resumeMissPrefix)
}

// VerdictError wraps a non-accept verdict as an error, so callers
// adjudicating through the service can distinguish a delivered verdict
// (errors.As) from a transport failure that produced no verdict at all.
type VerdictError struct {
	Verdict Verdict
}

func (e *VerdictError) Error() string { return "scserve: " + e.Verdict.String() }

// Err returns nil for an accept and a *VerdictError describing the
// verdict otherwise, for callers adjudicating runs through the service.
func (v Verdict) Err() error {
	if v.Code == VerdictAccept {
		return nil
	}
	return &VerdictError{Verdict: v}
}

// Verdict payloads encode Symbol and Offset shifted by one so that 0
// means "not applicable" (-1) and varints stay unsigned. Witness fields
// (Constraint, CycleLen) ride behind the verdictFlagWitness bit; a
// verdict without them is encoded exactly as before the extension.
func appendVerdict(dst []byte, v Verdict) []byte {
	code := uint64(v.Code)
	witness := v.Constraint > 0 || v.CycleLen > 0
	if witness {
		code |= verdictFlagWitness
	}
	if v.Tiered {
		code |= verdictFlagTier
	}
	dst = binary.AppendUvarint(dst, code)
	dst = binary.AppendUvarint(dst, uint64(v.Symbol+1))
	dst = binary.AppendUvarint(dst, uint64(v.Offset+1))
	if witness {
		dst = binary.AppendUvarint(dst, uint64(v.Constraint+1))
		dst = binary.AppendUvarint(dst, uint64(v.CycleLen))
	}
	if v.Tiered {
		dst = binary.AppendUvarint(dst, uint64(v.Tier))
		dst = binary.AppendUvarint(dst, uint64(v.ReorderStore+1))
		dst = binary.AppendUvarint(dst, uint64(v.ReorderPast+1))
	}
	return append(dst, v.Msg...)
}

func parseVerdict(payload []byte) (Verdict, error) {
	var v Verdict
	pos := 0
	uv := func(name string) (uint64, error) {
		x, n := binary.Uvarint(payload[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("verdict: truncated %s field", name)
		}
		pos += n
		return x, nil
	}
	code, err := uv("code")
	if err != nil {
		return Verdict{}, err
	}
	witness := code&verdictFlagWitness != 0
	tiered := code&verdictFlagTier != 0
	code &^= verdictFlagWitness | verdictFlagTier
	if code > uint64(VerdictProtocolError) {
		return Verdict{}, fmt.Errorf("verdict: unknown code %d", code)
	}
	v.Code = VerdictCode(code)
	sym, err := uv("symbol")
	if err != nil {
		return Verdict{}, err
	}
	off, err := uv("offset")
	if err != nil {
		return Verdict{}, err
	}
	if sym > 1<<40 || off > 1<<60 {
		return Verdict{}, fmt.Errorf("verdict: position out of range")
	}
	v.Symbol = int(sym) - 1
	v.Offset = int64(off) - 1
	if witness {
		con, err := uv("constraint")
		if err != nil {
			return Verdict{}, err
		}
		cl, err := uv("cyclelen")
		if err != nil {
			return Verdict{}, err
		}
		if con < 1 || !checker.ValidConstraintCode(int(con-1)) {
			return Verdict{}, fmt.Errorf("verdict: unknown constraint code %d", con)
		}
		if cl > 1<<32 {
			return Verdict{}, fmt.Errorf("verdict: cycle length out of range")
		}
		v.Constraint = int(con) - 1
		v.CycleLen = int(cl)
		if v.Constraint == 0 && v.CycleLen == 0 {
			return Verdict{}, fmt.Errorf("verdict: empty witness extension")
		}
	}
	if tiered {
		tier, err := uv("tier")
		if err != nil {
			return Verdict{}, err
		}
		if tier >= maxTierCode {
			return Verdict{}, fmt.Errorf("verdict: tier code %d out of range", tier)
		}
		rstore, err := uv("reorder store")
		if err != nil {
			return Verdict{}, err
		}
		rpast, err := uv("reorder past")
		if err != nil {
			return Verdict{}, err
		}
		if rstore > 1<<40 || rpast > 1<<40 {
			return Verdict{}, fmt.Errorf("verdict: reorder position out of range")
		}
		v.Tiered = true
		v.Tier = int(tier)
		v.ReorderStore = int(rstore) - 1
		v.ReorderPast = int(rpast) - 1
	}
	v.Msg = string(payload[pos:])
	return v, nil
}

// writeFrame writes one frame. The caller flushes.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, enforcing maxPayload. A clean EOF before the
// type byte is io.EOF; an EOF anywhere inside the frame is
// io.ErrUnexpectedEOF.
func readFrame(br *bufio.Reader, maxPayload int) (byte, []byte, error) {
	typ, err := br.ReadByte()
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	if size > uint64(maxPayload) {
		return 0, nil, fmt.Errorf("frame type %#x: payload %d bytes exceeds limit %d", typ, size, maxPayload)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	return typ, payload, nil
}
