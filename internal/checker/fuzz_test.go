package checker

import (
	"testing"

	"scverify/internal/cycle"
	"scverify/internal/descriptor"
	"scverify/internal/trace"
)

// FuzzCheckerAgainstOffline drives the streaming checker with arbitrary
// well-typed symbol streams and cross-checks its verdict against the
// offline reference (whole-graph decode + constraint check + acyclicity).
// The two must agree on every input, and neither may panic.
func FuzzCheckerAgainstOffline(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 3, 4})
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2})
	f.Add([]byte{1, 0, 0, 1, 5, 5, 4, 4, 3, 2})

	const k = 4
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzStream(data, k)

		streaming := Check(s, k) == nil

		g, err := descriptor.Decode(s).ToConstraintGraph()
		offline := false
		if err == nil {
			offline = g.CheckConstraints() == nil && g.IsAcyclic()
		}
		if streaming != offline {
			t.Fatalf("verdict mismatch: streaming=%v offline=%v\nstream: %s",
				streaming, offline, s.Text())
		}

		// The cycle checker alone must agree with plain acyclicity.
		cycOK := cycle.CheckStream(s, k) == nil
		decOK := descriptor.Decode(s).IsAcyclic()
		if cycOK != decOK {
			t.Fatalf("cycle verdict mismatch: streaming=%v offline=%v\nstream: %s",
				cycOK, decOK, s.Text())
		}
	})
}

// fuzzStream decodes fuzzer bytes into a well-typed k-graph symbol stream
// of at most 48 symbols, three bytes per symbol.
func fuzzStream(data []byte, k int) descriptor.Stream {
	var s descriptor.Stream
	for i := 0; i+2 < len(data) && len(s) < 48; i += 3 {
		id := int(data[i]%byte(k+1)) + 1
		id2 := int(data[i+1]%byte(k+1)) + 1
		switch data[i+2] % 4 {
		case 0:
			op := trace.ST(trace.ProcID(data[i]%2+1), trace.BlockID(data[i+1]%2+1), trace.Value(data[i+2]%2+1))
			s = append(s, descriptor.Node{ID: id, Op: &op})
		case 1:
			op := trace.LD(trace.ProcID(data[i]%2+1), trace.BlockID(data[i+1]%2+1), trace.Value(data[i+2]%3))
			s = append(s, descriptor.Node{ID: id, Op: &op})
		case 2:
			s = append(s, descriptor.Edge{From: id, To: id2, Label: descriptor.EdgeLabel(data[i+2] % 8)})
		default:
			s = append(s, descriptor.AddID{Existing: id, New: id2})
		}
	}
	return s
}
