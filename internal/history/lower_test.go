package history

import (
	"errors"
	"testing"

	"scverify/internal/checker"
	"scverify/internal/trace"
)

// histOf builds a History from sequential (non-overlapping) ops described
// compactly: each entry emits its invoke and return back to back.
type seqOp struct {
	p       int
	f       Func
	key     string
	val     int64
	hasVal  bool
	outcome Kind
}

func histOf(ops ...seqOp) *History {
	h := &History{}
	for _, o := range ops {
		ie := Event{Process: o.p, Kind: Invoke, F: o.f, Key: o.key}
		if o.f == Write {
			ie.Value, ie.HasValue = o.val, true
		}
		re := Event{Process: o.p, Kind: o.outcome, F: o.f, Key: o.key}
		if o.f == Write || (o.outcome == OK && o.hasVal) {
			re.Value, re.HasValue = o.val, true
		}
		h.Events = append(h.Events, ie, re)
	}
	return h
}

func wOK(p int, key string, v int64) seqOp   { return seqOp{p, Write, key, v, true, OK} }
func wFail(p int, key string, v int64) seqOp { return seqOp{p, Write, key, v, true, Fail} }
func wInfo(p int, key string, v int64) seqOp { return seqOp{p, Write, key, v, true, Info} }
func rOK(p int, key string, v int64) seqOp   { return seqOp{p, Read, key, v, true, OK} }
func rBot(p int, key string) seqOp           { return seqOp{p, Read, key, 0, false, OK} }

func TestLowerRules(t *testing.T) {
	h := histOf(
		wOK(0, "x", 1),                      // ST
		wFail(0, "x", 2),                    // dropped: definite no-op
		wInfo(1, "x", 3),                    // ST: observed by the read below
		wInfo(1, "y", 4),                    // dropped: unobserved indeterminate write
		rOK(2, "x", 3),                      // LD, inherits from the info write
		rBot(2, "y"),                        // LD ⊥ (y's only write was dropped as unobserved)
		seqOp{0, Read, "x", 0, false, Fail}, // dropped
		seqOp{0, Read, "x", 0, false, Info}, // dropped
	)
	l, err := Lower(h)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(l.Trace), 4; got != want {
		t.Fatalf("lowered %d ops, want %d: %v", got, want, l.Trace)
	}
	wantKinds := []trace.OpKind{trace.Store, trace.Store, trace.Load, trace.Load}
	for i, k := range wantKinds {
		if l.Trace[i].Kind != k {
			t.Errorf("trace[%d] = %v, want kind %v", i, l.Trace[i], k)
		}
	}
	if l.Trace[3].Value != trace.Bottom {
		t.Errorf("dropped-write read should lower to a ⊥ load, got %v", l.Trace[3])
	}
	d := l.Dropped
	if d.FailedWrites != 1 || d.UnobservedWrites != 1 || d.FailedReads != 1 || d.InfoReads != 1 {
		t.Errorf("drops = %+v", d)
	}
	if err := l.Check(); err != nil {
		t.Errorf("well-behaved history rejected: %v", err)
	}
}

func TestLowerRejectsDuplicateWriteValues(t *testing.T) {
	h := histOf(wOK(0, "x", 1), wOK(1, "x", 1))
	_, err := Lower(h)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FormatError about duplicate write values", err)
	}
	// Same value on different keys is fine.
	h = histOf(wOK(0, "x", 1), wOK(1, "y", 1))
	if _, err := Lower(h); err != nil {
		t.Errorf("distinct keys with equal values rejected: %v", err)
	}
}

func TestLowerAnomalies(t *testing.T) {
	cases := []struct {
		name string
		h    *History
		want checker.Constraint
	}{
		{"stale read (monotonic-reads violation)",
			histOf(wOK(0, "x", 1), wOK(0, "x", 2), rOK(1, "x", 2), rOK(1, "x", 1)),
			checker.ConstraintCycle},
		{"read-your-writes violation",
			histOf(wOK(0, "x", 1), wOK(1, "x", 2), rOK(1, "x", 1)),
			checker.ConstraintCycle},
		{"partition bottom read",
			histOf(wOK(0, "x", 1), rOK(1, "x", 1), rBot(1, "x")),
			checker.ConstraintCycle},
		{"phantom read",
			histOf(wOK(0, "x", 1), rOK(1, "x", 99)),
			checker.Constraint4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Check(tc.h)
			var re *checker.RejectError
			if !errors.As(err, &re) {
				t.Fatalf("got %v, want a rejection", err)
			}
			if re.Constraint != tc.want {
				t.Errorf("constraint = %v, want %v", re.Constraint, tc.want)
			}
		})
	}
}

func TestLowerAcceptsConcurrentOverlap(t *testing.T) {
	// Two processes with overlapping invocations; SC (reads see the final
	// write once it lands).
	h := &History{Events: []Event{
		inv(0, Write, "x", 1),
		inv(1, Read, "x"),
		ret(0, OK, Write, "x", 1),
		ret(1, OK, Read, "x", 1),
		inv(1, Read, "x"),
		inv(0, Read, "x"),
		ret(1, OK, Read, "x", 1),
		ret(0, OK, Read, "x", 1),
	}}
	if err := Check(h); err != nil {
		t.Errorf("overlapping SC history rejected: %v", err)
	}
}

func TestLowerEmptyHistory(t *testing.T) {
	l, err := Lower(&History{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Check(); err != nil {
		t.Errorf("empty history rejected: %v", err)
	}
}

func TestDescribeAndSummary(t *testing.T) {
	h := histOf(wOK(0, "x", 1), rOK(1, "x", 1))
	l, err := Lower(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Describe(0); !contains(got, "write x := 1") {
		t.Errorf("Describe(0) = %q", got)
	}
	if got := l.Describe(1); !contains(got, "read x = 1") {
		t.Errorf("Describe(1) = %q", got)
	}
	if l.Describe(-1) != "" || l.Describe(99) != "" {
		t.Error("out-of-range Describe should return empty")
	}
	if s := l.Summary(); !contains(s, "4 events") {
		t.Errorf("Summary = %q", s)
	}
}
