// Package lazycache implements the Lazy Caching protocol of Afek, Brown &
// Merritt (TOPLAS 1993), the paper's running example of a sequentially
// consistent protocol WITHOUT the real-time ST reordering property: a
// store enters its processor's out-queue immediately but serializes only
// when a later memory-write event pops it into memory, so the per-block
// store order is the memory-write order, not the trace order. Verifying
// it therefore needs the non-trivial ST-order generator of Section 4.2: the
// observer's generator serializing on MemoryWrite.
//
// Structure per processor: a cache (one value per block), a FIFO out-queue
// of pending own stores, and a FIFO in-queue of pending memory updates
// (entries are marked when they originate from the processor's own
// stores). A load returns the cache value and is enabled only when the
// processor's out-queue is empty and its in-queue holds no marked entry —
// the Afek–Brown–Merritt condition that makes the protocol SC.
//
// Location layout: memory 1..b; cache of P: b + (P-1)·b + B; out-slot i
// (0-based) of P: b + p·b + (P-1)·OutCap + i + 1; in-slot i of P:
// b + p·b + p·OutCap + (P-1)·InCap + i + 1.
package lazycache

import (
	"encoding/binary"

	"scverify/internal/protocol"
	"scverify/internal/trace"
)

// MemoryWrite names the internal action that pops processor P's oldest
// pending store into memory, memory-write(P,B): the point where lazy
// caching's stores serialize. Stores still queued at the end of a run can
// have no inheritors — a processor cannot read its own pending stores and
// no other processor can see them — so any completion order is legal.
const MemoryWrite = "memory-write"

// Protocol is the lazy caching machine.
type Protocol struct {
	P      trace.Params
	OutCap int // out-queue capacity per processor
	InCap  int // in-queue capacity per processor
}

// New returns a lazy caching protocol with the given queue capacities.
func New(p trace.Params, outCap, inCap int) *Protocol {
	if outCap < 1 {
		outCap = 1
	}
	if inCap < 1 {
		inCap = 1
	}
	return &Protocol{P: p, OutCap: outCap, InCap: inCap}
}

// Name implements protocol.Protocol.
func (m *Protocol) Name() string { return "lazy-caching" }

// Params implements protocol.Protocol.
func (m *Protocol) Params() trace.Params { return m.P }

// Locations implements protocol.Protocol.
func (m *Protocol) Locations() int {
	return m.P.Blocks + m.P.Procs*m.P.Blocks + m.P.Procs*m.OutCap + m.P.Procs*m.InCap
}

// MemLoc returns block b's memory location.
func (m *Protocol) MemLoc(b trace.BlockID) int { return int(b) }

// CacheLoc returns processor p's cache location for block b.
func (m *Protocol) CacheLoc(p trace.ProcID, b trace.BlockID) int {
	return m.P.Blocks + (int(p)-1)*m.P.Blocks + int(b)
}

// OutLoc returns processor p's out-queue slot i (0-based).
func (m *Protocol) OutLoc(p trace.ProcID, i int) int {
	return m.P.Blocks + m.P.Procs*m.P.Blocks + (int(p)-1)*m.OutCap + i + 1
}

// InLoc returns processor p's in-queue slot i (0-based).
func (m *Protocol) InLoc(p trace.ProcID, i int) int {
	return m.P.Blocks + m.P.Procs*m.P.Blocks + m.P.Procs*m.OutCap + (int(p)-1)*m.InCap + i + 1
}

type entry struct {
	block  trace.BlockID
	val    trace.Value
	marked bool // in-queue only: update originates from this processor
}

type state struct {
	mem   []trace.Value
	cache [][]trace.Value // [proc][block], 1-based both
	out   [][]entry
	in    [][]entry
}

func (s state) clone() state {
	n := state{
		mem:   append([]trace.Value(nil), s.mem...),
		cache: make([][]trace.Value, len(s.cache)),
		out:   make([][]entry, len(s.out)),
		in:    make([][]entry, len(s.in)),
	}
	for i := 1; i < len(s.cache); i++ {
		n.cache[i] = append([]trace.Value(nil), s.cache[i]...)
	}
	for i := 1; i < len(s.out); i++ {
		n.out[i] = append([]entry(nil), s.out[i]...)
	}
	for i := 1; i < len(s.in); i++ {
		n.in[i] = append([]entry(nil), s.in[i]...)
	}
	return n
}

// Key implements protocol.State.
func (s state) Key() string {
	buf := make([]byte, 0, 128)
	for _, v := range s.mem[1:] {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	for _, c := range s.cache[1:] {
		for _, v := range c[1:] {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	putQ := func(q []entry) {
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, e := range q {
			m := uint64(0)
			if e.marked {
				m = 1
			}
			buf = binary.AppendUvarint(buf, uint64(e.block))
			buf = binary.AppendUvarint(buf, uint64(e.val))
			buf = binary.AppendUvarint(buf, m)
		}
	}
	for _, q := range s.out[1:] {
		putQ(q)
	}
	for _, q := range s.in[1:] {
		putQ(q)
	}
	return string(buf)
}

// Initial implements protocol.Protocol.
func (m *Protocol) Initial() protocol.State {
	s := state{
		mem:   make([]trace.Value, m.P.Blocks+1),
		cache: make([][]trace.Value, m.P.Procs+1),
		out:   make([][]entry, m.P.Procs+1),
		in:    make([][]entry, m.P.Procs+1),
	}
	for p := 1; p <= m.P.Procs; p++ {
		s.cache[p] = make([]trace.Value, m.P.Blocks+1)
	}
	return s
}

// Transitions implements protocol.Protocol.
func (m *Protocol) Transitions(ps protocol.State) []protocol.Transition {
	s := ps.(state)
	var out []protocol.Transition
	for p := trace.ProcID(1); int(p) <= m.P.Procs; p++ {
		// Stores append to the out-queue.
		if len(s.out[p]) < m.OutCap {
			for b := trace.BlockID(1); int(b) <= m.P.Blocks; b++ {
				for v := trace.Value(1); int(v) <= m.P.Values; v++ {
					next := s.clone()
					next.out[p] = append(next.out[p], entry{block: b, val: v})
					out = append(out, protocol.Transition{
						Action: protocol.MemOp(trace.ST(p, b, v)),
						Next:   next,
						Loc:    m.OutLoc(p, len(s.out[p])),
					})
				}
			}
		}
		// Loads read the cache, gated by the Afek–Brown–Merritt condition.
		if len(s.out[p]) == 0 && !hasMarked(s.in[p]) {
			for b := trace.BlockID(1); int(b) <= m.P.Blocks; b++ {
				out = append(out, protocol.Transition{
					Action: protocol.MemOp(trace.LD(p, b, s.cache[p][b])),
					Next:   s,
					Loc:    m.CacheLoc(p, b),
				})
			}
		}
		// Memory-write: serialize the oldest pending store.
		if len(s.out[p]) > 0 && m.allInHaveRoom(s) {
			out = append(out, m.memoryWrite(s, p))
		}
		// Cache-update: apply the oldest pending update.
		if len(s.in[p]) > 0 {
			out = append(out, m.cacheUpdate(s, p))
		}
	}
	return out
}

func hasMarked(q []entry) bool {
	for _, e := range q {
		if e.marked {
			return true
		}
	}
	return false
}

func (m *Protocol) allInHaveRoom(s state) bool {
	for p := 1; p <= m.P.Procs; p++ {
		if len(s.in[p]) >= m.InCap {
			return false
		}
	}
	return true
}

// memoryWrite pops processor p's oldest store into memory and broadcasts
// the update to every in-queue, marked in p's own.
func (m *Protocol) memoryWrite(s state, p trace.ProcID) protocol.Transition {
	next := s.clone()
	head := next.out[p][0]
	next.out[p] = next.out[p][1:]
	next.mem[head.block] = head.val
	copies := []protocol.Copy{{Dst: m.MemLoc(head.block), Src: m.OutLoc(p, 0)}}
	for q := trace.ProcID(1); int(q) <= m.P.Procs; q++ {
		next.in[q] = append(next.in[q], entry{block: head.block, val: head.val, marked: q == p})
		copies = append(copies, protocol.Copy{Dst: m.InLoc(q, len(s.in[q])), Src: m.OutLoc(p, 0)})
	}
	// Shift the out-queue down one slot.
	for i := 1; i < len(s.out[p]); i++ {
		copies = append(copies, protocol.Copy{Dst: m.OutLoc(p, i-1), Src: m.OutLoc(p, i)})
	}
	copies = append(copies, protocol.Copy{Dst: m.OutLoc(p, len(s.out[p])-1), Src: 0})
	return protocol.Transition{
		Action: protocol.Internal(MemoryWrite, int(p), int(head.block)),
		Next:   next,
		Copies: copies,
	}
}

// cacheUpdate pops processor p's oldest pending update into its cache.
func (m *Protocol) cacheUpdate(s state, p trace.ProcID) protocol.Transition {
	next := s.clone()
	head := next.in[p][0]
	next.in[p] = next.in[p][1:]
	next.cache[p][head.block] = head.val
	copies := []protocol.Copy{{Dst: m.CacheLoc(p, head.block), Src: m.InLoc(p, 0)}}
	for i := 1; i < len(s.in[p]); i++ {
		copies = append(copies, protocol.Copy{Dst: m.InLoc(p, i-1), Src: m.InLoc(p, i)})
	}
	copies = append(copies, protocol.Copy{Dst: m.InLoc(p, len(s.in[p])-1), Src: 0})
	return protocol.Transition{
		Action: protocol.Internal("cache-update", int(p), int(head.block)),
		Next:   next,
		Copies: copies,
	}
}

// RecommendedPoolSize sizes the observer ID pool for lazy caching: the
// Section 4.4 baseline plus one un-serialized store per out-queue slot.
func (m *Protocol) RecommendedPoolSize() int {
	return m.Locations() + m.P.Procs*m.P.Blocks + m.P.Procs + 2*m.P.Blocks + 2 + m.P.Procs*m.OutCap
}
