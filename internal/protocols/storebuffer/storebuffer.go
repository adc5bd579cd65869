// Package storebuffer implements a TSO-style memory system: each processor
// has a FIFO store buffer; stores enter the buffer and drain to memory
// asynchronously, and loads forward from the youngest buffered store to
// the same block before falling back to memory. This protocol is NOT
// sequentially consistent — the classic store-buffering litmus outcome
// (both processors read the other's stale value) is reachable — and it is
// the repository's canonical negative case: the observer/checker method
// must reject some run.
//
// Location layout: locations 1..b are memory; buffer slot i (0-based) of
// processor P is b + (P-1)·cap + i + 1.
package storebuffer

import (
	"encoding/binary"

	"scverify/internal/protocol"
	"scverify/internal/trace"
)

// Drain names the internal action that writes processor P's oldest
// buffered store to memory, Drain(P): the point where a fenced buffer's
// stores serialize.
const Drain = "Drain"

// Protocol is the store-buffer machine.
type Protocol struct {
	P   trace.Params
	Cap int // store buffer capacity per processor
	// Fenced gates every load on an empty own buffer — the effect of a
	// full fence before each load. With fencing the machine is
	// sequentially consistent again: every operation serializes at its
	// memory-access instant (drain time for stores, read time for loads)
	// in an order consistent with each processor's program order.
	Fenced bool
}

// New returns a store-buffer protocol with per-processor capacity cap.
func New(p trace.Params, cap int) *Protocol {
	if cap < 1 {
		cap = 1
	}
	return &Protocol{P: p, Cap: cap}
}

// NewFenced returns the fenced (sequentially consistent) variant.
func NewFenced(p trace.Params, cap int) *Protocol {
	m := New(p, cap)
	m.Fenced = true
	return m
}

// Name implements protocol.Protocol.
func (m *Protocol) Name() string {
	if m.Fenced {
		return "store-buffer-fenced"
	}
	return "store-buffer"
}

// Params implements protocol.Protocol.
func (m *Protocol) Params() trace.Params { return m.P }

// Locations implements protocol.Protocol.
func (m *Protocol) Locations() int { return m.P.Blocks + m.P.Procs*m.Cap }

// MemLoc returns block b's memory location.
func (m *Protocol) MemLoc(b trace.BlockID) int { return int(b) }

// SlotLoc returns the location of processor p's buffer slot i (0-based).
func (m *Protocol) SlotLoc(p trace.ProcID, i int) int {
	return m.P.Blocks + (int(p)-1)*m.Cap + i + 1
}

type bufEntry struct {
	block trace.BlockID
	val   trace.Value
}

type state struct {
	mem  []trace.Value
	bufs [][]bufEntry // FIFO per processor, head at index 0
}

func (s state) clone() state {
	n := state{mem: make([]trace.Value, len(s.mem)), bufs: make([][]bufEntry, len(s.bufs))}
	copy(n.mem, s.mem)
	for i, b := range s.bufs {
		n.bufs[i] = append([]bufEntry(nil), b...)
	}
	return n
}

// Key implements protocol.State.
func (s state) Key() string {
	buf := make([]byte, 0, 64)
	for _, v := range s.mem[1:] {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for _, q := range s.bufs[1:] {
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, e := range q {
			buf = binary.AppendUvarint(buf, uint64(e.block))
			buf = binary.AppendUvarint(buf, uint64(e.val))
		}
	}
	return string(buf)
}

// Initial implements protocol.Protocol.
func (m *Protocol) Initial() protocol.State {
	return state{
		mem:  make([]trace.Value, m.P.Blocks+1),
		bufs: make([][]bufEntry, m.P.Procs+1),
	}
}

// Transitions implements protocol.Protocol.
func (m *Protocol) Transitions(ps protocol.State) []protocol.Transition {
	s := ps.(state)
	var out []protocol.Transition
	for p := trace.ProcID(1); int(p) <= m.P.Procs; p++ {
		buf := s.bufs[p]
		// Stores append to the buffer while there is room. The new entry
		// occupies slot len(buf).
		if len(buf) < m.Cap {
			for v := trace.Value(1); int(v) <= m.P.Values; v++ {
				for b := trace.BlockID(1); int(b) <= m.P.Blocks; b++ {
					next := s.clone()
					next.bufs[p] = append(next.bufs[p], bufEntry{block: b, val: v})
					out = append(out, protocol.Transition{
						Action: protocol.MemOp(trace.ST(p, b, v)),
						Next:   next,
						Loc:    m.SlotLoc(p, len(buf)),
					})
				}
			}
		}
		// Drain: the head entry writes to memory; remaining entries shift
		// down one slot (each shift is a location copy).
		if len(buf) > 0 {
			next := s.clone()
			head := next.bufs[p][0]
			next.bufs[p] = next.bufs[p][1:]
			next.mem[head.block] = head.val
			copies := []protocol.Copy{{Dst: m.MemLoc(head.block), Src: m.SlotLoc(p, 0)}}
			for i := 1; i < len(buf); i++ {
				copies = append(copies, protocol.Copy{Dst: m.SlotLoc(p, i-1), Src: m.SlotLoc(p, i)})
			}
			copies = append(copies, protocol.Copy{Dst: m.SlotLoc(p, len(buf)-1), Src: 0})
			out = append(out, protocol.Transition{
				Action: protocol.Internal(Drain, int(p)),
				Next:   next,
				Copies: copies,
			})
		}
		// Loads: forward from the youngest buffered store to the block, or
		// read memory. The fenced variant stalls loads until the buffer
		// has drained.
		if !m.Fenced || len(buf) == 0 {
			for b := trace.BlockID(1); int(b) <= m.P.Blocks; b++ {
				loc := m.MemLoc(b)
				val := s.mem[b]
				for i := len(buf) - 1; i >= 0; i-- {
					if buf[i].block == b {
						loc = m.SlotLoc(p, i)
						val = buf[i].val
						break
					}
				}
				out = append(out, protocol.Transition{
					Action: protocol.MemOp(trace.LD(p, b, val)),
					Next:   s,
					Loc:    loc,
				})
			}
		}
	}
	return out
}
