package history

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scverify/internal/spectrum"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixture loads an example history by extension-dispatched format.
func fixture(t testing.TB, name string) *History {
	t.Helper()
	path := filepath.Join("..", "..", "examples", "histories", name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var h *History
	if strings.HasSuffix(name, ".edn") {
		h, err = ParseEDN(bytes.NewReader(data))
	} else {
		h, err = ParseJSONL(bytes.NewReader(data))
	}
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return h
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (re-run with -update to generate)", err)
	}
	if got != string(want) {
		t.Errorf("golden %s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenWitnessNarratives pins the history-vocabulary witness
// renderings for the two anomalous example fixtures: every line of the
// happens-before loop must name the concrete history operations, and both
// witnesses must be certified non-SC by the exact search.
func TestGoldenWitnessNarratives(t *testing.T) {
	for _, name := range []string{"stale-read.jsonl", "partition.edn"} {
		t.Run(name, func(t *testing.T) {
			l, err := Lower(fixture(t, name))
			if err != nil {
				t.Fatal(err)
			}
			w := l.Explain()
			if w == nil {
				t.Fatal("anomalous fixture accepted")
			}
			if !w.Certified {
				t.Errorf("fixture witness not certified non-SC: %s", w.Summary())
			}
			got := w.Render()
			if !strings.Contains(got, "process") {
				t.Errorf("witness narrative lacks history vocabulary:\n%s", got)
			}
			base := strings.TrimSuffix(name, filepath.Ext(name))
			checkGolden(t, base+".witness.golden", got)
		})
	}
}

// TestGoldenTierNarratives pins the tier-adjudicated witness renderings of
// the anomalous fixtures: the ladder verdict, its narrative, and the
// history-vocabulary labels must all stay stable, and both fixtures must
// land below every rung (their single-process misreads defeat even PRAM).
func TestGoldenTierNarratives(t *testing.T) {
	for _, name := range []string{"stale-read.jsonl", "partition.edn"} {
		t.Run(name, func(t *testing.T) {
			l, err := Lower(fixture(t, name))
			if err != nil {
				t.Fatal(err)
			}
			w := l.ExplainTier()
			if w == nil {
				t.Fatal("anomalous fixture accepted")
			}
			if w.Spectrum == nil || !w.Spectrum.Checked {
				t.Fatalf("fixture core not adjudicated: %+v", w.Spectrum)
			}
			if w.Spectrum.Tier != spectrum.TierNone {
				t.Errorf("fixture adjudicated to tier %s, want none", w.Spectrum.Tier)
			}
			base := strings.TrimSuffix(name, filepath.Ext(name))
			checkGolden(t, base+".tier.golden", w.Render())
		})
	}
}

// TestGoldenLowering pins the full lowering of each example fixture — the
// op pairing, the lowered trace with per-position history descriptions,
// the drop accounting, and the canonical re-rendering — so any change to
// the lowering rules or the serializations shows up as a diff.
func TestGoldenLowering(t *testing.T) {
	for _, name := range []string{"clean.jsonl", "stale-read.jsonl", "partition.edn"} {
		t.Run(name, func(t *testing.T) {
			h := fixture(t, name)
			l, err := Lower(h)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "fixture: %s\n", name)
			fmt.Fprintf(&sb, "summary: %s\n", l.Summary())
			fmt.Fprintf(&sb, "dropped: %+v\n", l.Dropped)
			verdict := "accept"
			if err := l.Check(); err != nil {
				verdict = "reject: " + err.Error()
			}
			fmt.Fprintf(&sb, "verdict: %s\n", verdict)
			sb.WriteString("trace:\n")
			for i, op := range l.Trace {
				fmt.Fprintf(&sb, "  %-16s %s\n", op.String(), l.Describe(i))
			}
			sb.WriteString("canonical jsonl:\n")
			var buf bytes.Buffer
			if err := h.WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
				sb.WriteString("  " + line + "\n")
			}
			base := strings.TrimSuffix(name, filepath.Ext(name))
			checkGolden(t, base+".lower.golden", sb.String())

			// Round trip: the canonical JSONL reparses to the same lowering.
			h2, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			l2, err := Lower(h2)
			if err != nil {
				t.Fatal(err)
			}
			if l2.Trace.String() != l.Trace.String() || l2.K != l.K {
				t.Errorf("round-tripped lowering differs: %s (k=%d) vs %s (k=%d)",
					l2.Trace, l2.K, l.Trace, l.K)
			}
		})
	}
}

// TestGoldenCleanAccepts pins the clean fixture to acceptance.
func TestGoldenCleanAccepts(t *testing.T) {
	if err := Check(fixture(t, "clean.jsonl")); err != nil {
		t.Errorf("clean fixture rejected: %v", err)
	}
}
