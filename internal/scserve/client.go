package scserve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"scverify/internal/descriptor"
)

// maxChunk is the largest symbols-frame payload the client emits; the
// server's default MaxFrame is far above it.
const maxChunk = 32 << 10

// Client speaks the scserve session protocol over one connection. It is
// not goroutine-safe: a connection carries one session at a time (open
// several Clients for concurrency). The zero value is not usable;
// construct with Dial or NewClient.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	timeout time.Duration
	open    *Session
}

// Dial connects to an scserve server.
func Dial(addr string) (*Client, error) { return DialTimeout(addr, 0) }

// DialTimeout connects with a dial deadline; the same duration then bounds
// every subsequent read and write operation on the connection (0
// disables). The deadline is per operation, not per connection: a session
// may run arbitrarily long as long as each individual frame read or write
// makes progress within the timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("scserve: dial %s: %w", addr, err)
	}
	return NewClient(conn, timeout), nil
}

// NewClient wraps an established connection (used by tests over in-memory
// pipes and by Dial).
func NewClient(conn net.Conn, timeout time.Duration) *Client {
	return &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 8<<10),
		bw:      bufio.NewWriterSize(conn, maxChunk+64),
		timeout: timeout,
	}
}

// Close closes the connection. An open session is abandoned (the server
// counts it as aborted).
func (c *Client) Close() error { return c.conn.Close() }

// armRead refreshes the read deadline before a blocking read. Deadlines
// are refreshed per operation — setting one whole-connection deadline
// would make long multi-frame sessions time out spuriously no matter how
// much progress they were making.
func (c *Client) armRead() {
	if c.timeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.timeout))
	}
}

func (c *Client) armWrite() {
	if c.timeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.timeout))
	}
}

// Stats fetches the server's counters. Not available while a session is
// open on this connection.
func (c *Client) Stats() (Stats, error) {
	if c.open != nil {
		return Stats{}, fmt.Errorf("scserve: stats request inside an open session")
	}
	c.armWrite()
	if err := writeFrame(c.bw, frameStatsReq, nil); err != nil {
		return Stats{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Stats{}, err
	}
	c.armRead()
	typ, payload, err := readFrame(c.br, 1<<20)
	if err != nil {
		return Stats{}, fmt.Errorf("scserve: stats read: %w", err)
	}
	if typ != frameStatsReply {
		return Stats{}, fmt.Errorf("scserve: stats request answered by frame type %#x", typ)
	}
	var st Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return Stats{}, fmt.Errorf("scserve: stats payload: %w", err)
	}
	return st, nil
}

// Drain sends the drain admin frame, flipping the server into draining
// mode (it refuses fresh hellos with the draining verdict but keeps
// serving in-flight and resuming sessions). The server answers with a
// stats snapshot whose Draining bit reflects the new mode.
func (c *Client) Drain() (Stats, error) { return c.drain(1) }

// Undrain lifts the server's drain mode.
func (c *Client) Undrain() (Stats, error) { return c.drain(0) }

func (c *Client) drain(mode uint64) (Stats, error) {
	if c.open != nil {
		return Stats{}, fmt.Errorf("scserve: drain request inside an open session")
	}
	c.armWrite()
	if err := writeFrame(c.bw, frameDrain, binary.AppendUvarint(nil, mode)); err != nil {
		return Stats{}, err
	}
	if err := c.bw.Flush(); err != nil {
		return Stats{}, err
	}
	c.armRead()
	typ, payload, err := readFrame(c.br, 1<<20)
	if err != nil {
		return Stats{}, fmt.Errorf("scserve: drain read: %w", err)
	}
	if typ != frameStatsReply {
		return Stats{}, fmt.Errorf("scserve: drain request answered by frame type %#x", typ)
	}
	var st Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return Stats{}, fmt.Errorf("scserve: drain stats payload: %w", err)
	}
	return st, nil
}

// Session opens a checking session with the given header. Only one session
// may be open per Client; it must be concluded with Finish (or the
// connection closed) before the next.
//
// If h.Resume is set, Session performs the resume handshake: it blocks for
// the server's answer, which is either an ack naming the checkpoint the
// session resumed from (see Acked — the caller replays its stream from
// that offset) or an immediate verdict (recorded and returned by Finish;
// e.g. an unknown token).
func (c *Client) Session(h Header) (*Session, error) {
	if c.open != nil {
		return nil, fmt.Errorf("scserve: previous session still open")
	}
	c.armWrite()
	if err := writeFrame(c.bw, frameHello, appendHello(nil, h)); err != nil {
		return nil, fmt.Errorf("scserve: hello: %w", err)
	}
	s := &Session{c: c, ackSym: -1, ackOff: -1}
	c.open = s
	if h.Resume {
		if err := c.resumeHandshake(s); err != nil {
			c.open = nil
			return nil, err
		}
	}
	return s, nil
}

// resumeHandshake blocks for the server's answer to a resume hello: an
// ack naming the checkpoint, or an immediate verdict.
func (c *Client) resumeHandshake(s *Session) error {
	if err := c.bw.Flush(); err != nil {
		return fmt.Errorf("scserve: hello: %w", err)
	}
	c.armRead()
	typ, payload, err := readFrame(c.br, 1<<20)
	if err != nil {
		return fmt.Errorf("scserve: resume: %w", err)
	}
	if err := s.handleFrame(typ, payload); err != nil {
		return fmt.Errorf("scserve: resume: %w", err)
	}
	return nil
}

// Session is one open checking session: a sequence of Send/SendBytes calls
// concluded by Finish.
type Session struct {
	c       *Client
	symbols int
	bytes   int64
	scratch []byte
	done    bool

	ackSym int      // highest server-acked symbol index, -1 before any ack
	ackOff int64    // highest server-acked byte offset, -1 before any ack
	early  *Verdict // verdict received before Finish (early rejection, busy)
}

// Symbols returns the number of symbols sent so far via Send (SendBytes
// payloads are counted as raw bytes only).
func (s *Session) Symbols() int { return s.symbols }

// Bytes returns the number of stream bytes sent so far.
func (s *Session) Bytes() int64 { return s.bytes }

// Early returns the verdict the server delivered before Finish — an
// early rejection, a busy verdict, or a resume handshake answered by a
// stored verdict — and ok when one has arrived. Like Acked, it only
// advances as Poll, Finish, or the resume handshake read frames. Callers
// that see an early verdict should stop streaming and call Finish, which
// returns it.
func (s *Session) Early() (v Verdict, ok bool) {
	if s.early == nil {
		return Verdict{}, false
	}
	return *s.early, true
}

// Acked returns the highest checkpoint position the server has acked on
// this session: everything before byte offset off is durable server-side
// and need not be replayed after a reconnect. Before any ack it returns
// (-1, -1). Acks arrive only on sessions opened with a Header.Token, and
// only as Poll, Finish, or a resume handshake reads them.
func (s *Session) Acked() (sym int, off int64) { return s.ackSym, s.ackOff }

// handleFrame folds one server frame into the session's state.
func (s *Session) handleFrame(typ byte, payload []byte) error {
	switch typ {
	case frameAck:
		sym, off, err := parseAck(payload)
		if err != nil {
			return err
		}
		if off > s.ackOff {
			s.ackSym, s.ackOff = sym, off
		}
		return nil
	case frameVerdict:
		v, err := parseVerdict(payload)
		if err != nil {
			return err
		}
		s.early = &v
		return nil
	default:
		return fmt.Errorf("unexpected frame type %#x inside session", typ)
	}
}

// Send encodes and streams the given symbols.
func (s *Session) Send(syms ...descriptor.Symbol) error {
	s.scratch = s.scratch[:0]
	for _, sym := range syms {
		s.scratch = descriptor.AppendBinary(s.scratch, sym)
	}
	if err := s.SendBytes(s.scratch); err != nil {
		return err
	}
	s.symbols += len(syms)
	return nil
}

// SendBytes streams raw descriptor wire bytes, split into frames of at
// most maxChunk. The bytes need not align with symbol boundaries. An
// empty raw sends one empty symbols frame — a keepalive that gives the
// server a turn to write what is pending, progress acks or an early
// verdict (inside a session the server writes only in answer to a client
// frame).
func (s *Session) SendBytes(raw []byte) error {
	if s.done {
		return fmt.Errorf("scserve: send after Finish")
	}
	s.c.armWrite()
	if len(raw) == 0 {
		if err := writeFrame(s.c.bw, frameSymbols, nil); err != nil {
			return fmt.Errorf("scserve: send: %w", err)
		}
		return nil
	}
	for len(raw) > 0 {
		n := len(raw)
		if n > maxChunk {
			n = maxChunk
		}
		if err := writeFrame(s.c.bw, frameSymbols, raw[:n]); err != nil {
			return fmt.Errorf("scserve: send: %w", err)
		}
		s.bytes += int64(n)
		raw = raw[n:]
	}
	return nil
}

// Flush pushes buffered frames to the server immediately; Send and
// SendBytes otherwise buffer until the client-side writer fills or Finish
// is called.
func (s *Session) Flush() error {
	s.c.armWrite()
	return s.c.bw.Flush()
}

// tryParseFrame parses one complete frame from buffered bytes. ok is
// false when buf holds only a frame prefix (more bytes needed).
func tryParseFrame(buf []byte, maxPayload int) (typ byte, payload []byte, size int, ok bool, err error) {
	if len(buf) < 2 {
		return 0, nil, 0, false, nil
	}
	n, w := binary.Uvarint(buf[1:])
	if w == 0 {
		if len(buf) >= 1+binary.MaxVarintLen64 {
			return 0, nil, 0, false, fmt.Errorf("frame type %#x: malformed length varint", buf[0])
		}
		return 0, nil, 0, false, nil
	}
	if w < 0 || n > uint64(maxPayload) {
		return 0, nil, 0, false, fmt.Errorf("frame type %#x: payload %d bytes exceeds limit %d", buf[0], n, maxPayload)
	}
	total := 1 + w + int(n)
	if len(buf) < total {
		return 0, nil, 0, false, nil
	}
	return buf[0], buf[1+w : total], total, true, nil
}

// pollWindow is how long Poll waits for bytes the server has already
// sent to arrive. It bounds Poll's cost when nothing is pending.
const pollWindow = time.Millisecond

// Poll drains any server frames already delivered — progress acks and an
// early verdict, if one arrived — without blocking beyond a small grace
// window. It lets a long-running producer observe acks (see Acked) and
// notice an early rejection mid-stream. Frames the server has only
// partially delivered are left buffered for the next Poll or Finish.
func (s *Session) Poll() error {
	if s.done {
		return fmt.Errorf("scserve: poll after Finish")
	}
	for {
		// Parse complete frames out of what is already buffered.
		if n := s.c.br.Buffered(); n > 0 {
			buf, _ := s.c.br.Peek(n)
			typ, payload, size, ok, err := tryParseFrame(buf, 1<<20)
			if err != nil {
				return fmt.Errorf("scserve: poll: %w", err)
			}
			if ok {
				if err := s.handleFrame(typ, payload); err != nil {
					return fmt.Errorf("scserve: poll: %w", err)
				}
				s.c.br.Discard(size)
				continue
			}
		}
		// Only a frame prefix (or nothing) is buffered: attempt one short
		// bounded read for more. A deadline already in the past would fail
		// without attempting the read at all, so the window must be
		// positive; a timeout just means nothing more is pending.
		s.c.conn.SetReadDeadline(time.Now().Add(pollWindow))
		_, perr := s.c.br.Peek(s.c.br.Buffered() + 1)
		s.c.conn.SetReadDeadline(time.Time{})
		if perr != nil {
			if nerr, ok := perr.(net.Error); ok && nerr.Timeout() {
				return nil
			}
			if perr == bufio.ErrBufferFull {
				// A frame larger than the read buffer; leave it for the
				// next blocking read.
				return nil
			}
			return fmt.Errorf("scserve: poll: %w", perr)
		}
	}
}

// Finish ends the stream and returns the server's verdict. The connection
// remains usable for further sessions.
func (s *Session) Finish() (Verdict, error) {
	if s.done {
		return Verdict{}, fmt.Errorf("scserve: session already finished")
	}
	s.done = true
	s.c.open = nil
	s.c.armWrite()
	if err := writeFrame(s.c.bw, frameEnd, nil); err != nil {
		return Verdict{}, fmt.Errorf("scserve: end: %w", err)
	}
	if err := s.c.bw.Flush(); err != nil {
		return Verdict{}, fmt.Errorf("scserve: flush: %w", err)
	}
	for s.early == nil {
		s.c.armRead()
		typ, payload, err := readFrame(s.c.br, 1<<20)
		if err != nil {
			return Verdict{}, fmt.Errorf("scserve: verdict read: %w", err)
		}
		if err := s.handleFrame(typ, payload); err != nil {
			return Verdict{}, fmt.Errorf("scserve: %w", err)
		}
	}
	return *s.early, nil
}

// Check is the one-shot convenience: it opens a session with h, streams
// the whole stream, and returns the verdict.
func (c *Client) Check(h Header, stream descriptor.Stream) (Verdict, error) {
	s, err := c.Session(h)
	if err != nil {
		return Verdict{}, err
	}
	if err := s.Send(stream...); err != nil {
		return Verdict{}, err
	}
	return s.Finish()
}
