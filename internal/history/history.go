// Package history ingests black-box operation histories — per-process
// invoke/return records of reads and writes over a key-value register
// space, the input shape of Jepsen-style distributed-systems tests — and
// lowers them onto the paper's memory-operation traces so the Condon–Hu
// observer/checker pipeline can adjudicate them.
//
// A history is a flat event sequence. Each event names a process, an
// event kind (invoke, ok, fail, info), an operation function (read or
// write), a key, and optionally a value. Processes are logically
// single-threaded: a process must not invoke a new operation while one is
// pending, and every return must match the pending invocation. Histories
// arrive in a JSONL format (one JSON event per line) or a Jepsen-style
// EDN subset; both parse into the same Event representation and render
// back out losslessly.
//
// Checking requires the value-uniqueness discipline of Jepsen register
// workloads: every effective write to a key carries a value no other
// write to that key uses. Under that discipline the §4.4 value-matching
// decomposition synthesizes the tracking labels the checker needs — each
// read's inheritance edge points at the unique write of the value it
// returned — and the history becomes an ordinary k-graph descriptor
// stream (see Lower).
package history

import (
	"fmt"
)

// Func is the operation function of an event: a register read or write.
type Func uint8

const (
	// Read is a register read; its invocation carries no value and its ok
	// return carries the value read (absent value = the initial state ⊥).
	Read Func = iota
	// Write is a register write; its invocation carries the written value.
	Write
)

// String returns the canonical spelling used by both serializations.
func (f Func) String() string {
	switch f {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Func(%d)", uint8(f))
	}
}

// Kind is the event kind of the Jepsen event model.
type Kind uint8

const (
	// Invoke starts an operation on a process.
	Invoke Kind = iota
	// OK completes an operation successfully.
	OK
	// Fail completes an operation that definitely did not take effect.
	Fail
	// Info ends an operation indeterminately (timeout, crash): the
	// operation may or may not have taken effect.
	Info
)

// String returns the canonical spelling used by both serializations.
func (k Kind) String() string {
	switch k {
	case Invoke:
		return "invoke"
	case OK:
		return "ok"
	case Fail:
		return "fail"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one history record.
type Event struct {
	// Process identifies the logically single-threaded client; any
	// non-negative integer (processes are interned during lowering).
	Process int
	// Kind is invoke/ok/fail/info.
	Kind Kind
	// F is the operation function.
	F Func
	// Key names the register.
	Key string
	// Value is the operation value; meaningful only when HasValue is set.
	// Write invocations must carry one; a read's ok return carries the
	// value read, with HasValue=false meaning the read observed the
	// initial state (⊥ — the key was never written).
	Value int64
	// HasValue distinguishes a present Value from an absent one.
	HasValue bool
}

// String renders the event in a compact human-readable form.
func (e Event) String() string {
	v := "_"
	if e.HasValue {
		v = fmt.Sprintf("%d", e.Value)
	}
	return fmt.Sprintf("{p%d %s %s %q %s}", e.Process, e.Kind, e.F, e.Key, v)
}

// History is a parsed operation history: the raw event sequence.
type History struct {
	Events []Event
}

// FormatError reports a malformed history: a parse failure or a
// well-formedness violation, positioned at the offending event (or line).
type FormatError struct {
	// Event is the 0-based index of the offending event, or -1 when the
	// error is positioned by Line instead (parse errors).
	Event int
	// Line is the 1-based input line of a parse error, 0 otherwise.
	Line int
	// Msg describes the problem.
	Msg string
}

// Error renders the positioned message.
func (e *FormatError) Error() string {
	switch {
	case e.Line > 0:
		return fmt.Sprintf("history: line %d: %s", e.Line, e.Msg)
	case e.Event >= 0:
		return fmt.Sprintf("history: event %d: %s", e.Event, e.Msg)
	default:
		return "history: " + e.Msg
	}
}

func errAt(event int, format string, args ...any) *FormatError {
	return &FormatError{Event: event, Line: 0, Msg: fmt.Sprintf(format, args...)}
}

func errLine(line int, format string, args ...any) *FormatError {
	return &FormatError{Event: -1, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Op is one completed logical operation: an invoke event paired with its
// return (or left dangling at end of history, which counts as Info — the
// Jepsen convention for operations still in flight when the test stopped).
type Op struct {
	// Process is the external process identifier.
	Process int
	// F is the operation function.
	F Func
	// Key names the register.
	Key string
	// Value is the write's value, or the read's returned value (only
	// meaningful for OK reads); HasValue=false on an OK read means the
	// read observed ⊥.
	Value    int64
	HasValue bool
	// Outcome is OK, Fail, or Info (never Invoke).
	Outcome Kind
	// Invoke and Return are event indices; Return is -1 for operations
	// dangling at end of history.
	Invoke, Return int
	// Pos is the operation's 1-based position within its process.
	Pos int
}

// String renders the operation in history vocabulary.
func (o Op) String() string {
	switch {
	case o.F == Write:
		s := fmt.Sprintf("process %d op %d: write %s := %d", o.Process, o.Pos, o.Key, o.Value)
		if o.Outcome != OK {
			s += " (" + o.Outcome.String() + ")"
		}
		return s
	case o.Outcome == OK && o.HasValue:
		return fmt.Sprintf("process %d op %d: read %s = %d", o.Process, o.Pos, o.Key, o.Value)
	case o.Outcome == OK:
		return fmt.Sprintf("process %d op %d: read %s = ⊥", o.Process, o.Pos, o.Key)
	default:
		return fmt.Sprintf("process %d op %d: read %s (%s)", o.Process, o.Pos, o.Key, o.Outcome)
	}
}

// Ops validates well-formedness and pairs each invocation with its
// return, in invocation order. The rules:
//
//   - every ok/fail/info must match a pending invoke of the same process,
//     with the same function and key (and, for writes, the same value);
//   - a process may not invoke while an operation is pending (processes
//     are logically single-threaded — concurrent ops within one process
//     make the session order ill-defined and are rejected);
//   - invocations still pending at end of history become Info operations
//     (indeterminate), unless strict is set, in which case they are
//     rejected.
func (h *History) Ops(strict bool) ([]Op, error) {
	type pend struct {
		op int // index into ops
		ev int // invoke event index
	}
	pending := make(map[int]pend)
	perProc := make(map[int]int)
	var ops []Op
	for i, e := range h.Events {
		if e.Process < 0 {
			return nil, errAt(i, "negative process %d", e.Process)
		}
		switch e.Kind {
		case Invoke:
			if p, busy := pending[e.Process]; busy {
				return nil, errAt(i, "process %d invokes %s %q while its %s (event %d) is pending: processes are single-threaded",
					e.Process, e.F, e.Key, ops[p.op].F, p.ev)
			}
			if e.F == Write && !e.HasValue {
				return nil, errAt(i, "write invocation on process %d has no value", e.Process)
			}
			perProc[e.Process]++
			ops = append(ops, Op{
				Process: e.Process, F: e.F, Key: e.Key,
				Value: e.Value, HasValue: e.HasValue,
				Outcome: Info, Invoke: i, Return: -1,
				Pos: perProc[e.Process],
			})
			pending[e.Process] = pend{op: len(ops) - 1, ev: i}
		case OK, Fail, Info:
			p, busy := pending[e.Process]
			if !busy {
				return nil, errAt(i, "%s on process %d with no pending invocation", e.Kind, e.Process)
			}
			op := &ops[p.op]
			if op.F != e.F {
				return nil, errAt(i, "%s %s on process %d does not match pending %s (event %d)",
					e.Kind, e.F, e.Process, op.F, p.ev)
			}
			if e.Key != op.Key {
				return nil, errAt(i, "%s on process %d names key %q but the pending invocation (event %d) names %q",
					e.Kind, e.Process, e.Key, p.ev, op.Key)
			}
			if op.F == Write && e.HasValue && e.Value != op.Value {
				return nil, errAt(i, "write return on process %d carries value %d but the invocation (event %d) wrote %d",
					e.Process, e.Value, p.ev, op.Value)
			}
			op.Outcome = e.Kind
			op.Return = i
			if op.F == Read {
				// The return is where a read's result lives; fail/info
				// reads return nothing observable.
				op.Value, op.HasValue = 0, false
				if e.Kind == OK && e.HasValue {
					op.Value, op.HasValue = e.Value, true
				}
			}
			delete(pending, e.Process)
		default:
			return nil, errAt(i, "unknown event kind %d", e.Kind)
		}
	}
	if strict && len(pending) > 0 {
		for p, pd := range pending {
			return nil, errAt(pd.ev, "process %d operation never returned (strict mode)", p)
		}
	}
	// Dangling invocations keep their zero-value Outcome=Info, Return=-1:
	// indeterminate, exactly like an explicit info return.
	return ops, nil
}
