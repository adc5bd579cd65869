package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func runExp(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(id, &buf); err != nil {
		t.Fatalf("%s: %v\noutput so far:\n%s", id, err, buf.String())
	}
	return buf.String()
}

func TestFig1Report(t *testing.T) {
	out := runExp(t, "fig1")
	for _, frag := range []string{"r1=1 r2=2", "r1=0 r2=0", "r1=0 r2=2"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig1 report missing %q:\n%s", frag, out)
		}
	}
}

func TestFig3Report(t *testing.T) {
	out := runExp(t, "fig3")
	for _, frag := range []string{"bandwidth: 3", "accept=true", "po-STo"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig3 report missing %q:\n%s", frag, out)
		}
	}
}

func TestFig4Report(t *testing.T) {
	out := runExp(t, "fig4")
	for _, frag := range []string{"want 3,0,1,2", "loc1=3 loc2=0 loc3=1 loc4=2", "add-ID(1,3)"} {
		if !strings.Contains(out, frag) {
			t.Errorf("fig4 report missing %q:\n%s", frag, out)
		}
	}
}

func TestBoundedReorderReport(t *testing.T) {
	out := runExp(t, "boundedreorder")
	if !strings.Contains(out, "accept=true") {
		t.Errorf("boundedreorder report:\n%s", out)
	}
}

func TestLazyReport(t *testing.T) {
	out := runExp(t, "lazy")
	if !strings.Contains(out, "lazy-realtime") {
		t.Errorf("lazy report:\n%s", out)
	}
}

func TestUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("nope", &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsCovered(t *testing.T) {
	if len(IDs()) < 8 {
		t.Errorf("experiment list shrank: %v", IDs())
	}
}

func TestTestingScenarioReport(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign in short mode")
	}
	out := runExp(t, "testing")
	for _, frag := range []string{"storebuffer", "confirmed non-SC"} {
		if !strings.Contains(out, frag) {
			t.Errorf("testing report missing %q:\n%s", frag, out)
		}
	}
}

// TestVerifyReport runs E6 and requires the exact search's classification
// on every counterexample: lazy-realtime's traces are SC by construction,
// so its counterexample must read as an annotation inadequacy.
func TestVerifyReport(t *testing.T) {
	if testing.Short() {
		t.Skip("model checking in short mode")
	}
	out := runExp(t, "verify")
	lines := strings.Split(out, "\n")
	rows := 0
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) < 3 || f[2] != "violated" {
			continue
		}
		rows++
		if i+1 == len(lines) || !strings.Contains(lines[i+1], "counterexample") {
			t.Errorf("violated row without a counterexample: %q", line)
			continue
		}
		cex := lines[i+1]
		certified := strings.Contains(cex, "counterexample, certified non-SC:")
		inadequate := strings.Contains(cex, "counterexample, annotation inadequacy (trace is SC):")
		if certified == inadequate {
			t.Errorf("%s: counterexample not classified: %q", f[0], cex)
		}
		if f[0] == "lazy-realtime" && !inadequate {
			t.Errorf("lazy-realtime's counterexample is not an annotation inadequacy: %q", cex)
		}
	}
	if rows == 0 {
		t.Fatalf("no violated rows in:\n%s", out)
	}
}
