package scvet_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"scverify/internal/scvet"
)

// The fixture tests follow the analysistest contract without x/tools:
// each testdata package carries `// want "regex"` comments on the lines
// where its analyzer must report, and the runner checks both directions
// — every want must be matched by a finding at that file and line, and
// every finding must be claimed by a want. Lines without wants are the
// allowed cases: the idioms the analyzer must stay quiet about.

// fixtureWant is one expectation parsed from a fixture source line.
type fixtureWant struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var (
	wantTailRE  = regexp.MustCompile(`\bwant\s+(".+)$`)
	wantQuoteRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

func loadWants(t *testing.T, dir string) []*fixtureWant {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*fixtureWant
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if !strings.Contains(line, "//") {
				continue
			}
			m := wantTailRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			qs := wantQuoteRE.FindAllStringSubmatch(m[1], -1)
			if len(qs) == 0 {
				t.Fatalf("%s:%d: want comment with no quoted regex", e.Name(), i+1)
			}
			for _, q := range qs {
				re, err := regexp.Compile(q[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", e.Name(), i+1, q[1], err)
				}
				wants = append(wants, &fixtureWant{file: e.Name(), line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runFixture analyzes one testdata package with one analyzer and checks
// the findings against the package's want comments in both directions.
func runFixture(t *testing.T, dir, analyzer string) {
	t.Helper()
	as, err := scvet.SelectAnalyzers(analyzer)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := scvet.RunAnalyzers([]string{dir}, as)
	if err != nil {
		t.Fatal(err)
	}
	wants := loadWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != filepath.Base(f.Pos.Filename) || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Msg) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.re)
		}
	}
}

// TestCloneFixture checks SV002/SV003 on badpkg's Clone and CopyFrom
// cases, including the CopyFrom source-read rule.
func TestCloneFixture(t *testing.T) { runFixture(t, "testdata/badpkg", "clone") }

func TestGuardedByFixture(t *testing.T) { runFixture(t, "testdata/guardedbypkg", "guardedby") }

func TestWireFlagFixture(t *testing.T) { runFixture(t, "testdata/wireflagpkg", "wireflag") }

func TestVerdictPurityFixture(t *testing.T) {
	runFixture(t, "testdata/verdictpuritypkg", "verdictpurity")
}

func TestAtomicMixFixture(t *testing.T) { runFixture(t, "testdata/atomicmixpkg", "atomicmix") }

// TestVerdictTransparencyIsEnforced is the acceptance check for SV006's
// reason to exist: the shipped scgrid proxy splice path is clean (the
// repository self-application test covers that), and injecting a single
// verdict-constructing call into it must produce a finding — the "proxy
// structurally cannot alter a verdict" claim fails the build, not a code
// review, when violated. The test copies the real package source, splices
// the call in textually, and analyzes the copy.
func TestVerdictTransparencyIsEnforced(t *testing.T) {
	const anchor = "conn.SetReadDeadline(time.Time{})"
	const inject = `deliver(bw, protoVerdict("injected"))`

	srcDir := filepath.Join("..", "scgrid")
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	injected := false
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		text := string(src)
		if name == "proxy.go" {
			if strings.Count(text, anchor) != 1 {
				t.Fatalf("proxy.go no longer has exactly one %q; update the injection anchor", anchor)
			}
			text = strings.Replace(text, anchor, anchor+"\n\t"+inject, 1)
			injected = true
		}
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !injected {
		t.Fatal("proxy.go not found in ../scgrid")
	}

	as, err := scvet.SelectAnalyzers("verdictpurity")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := scvet.RunAnalyzers([]string{tmp}, as)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range findings {
		if f.Rule == scvet.RuleVerdictPurity && strings.Contains(f.Msg, "splice") {
			found = true
		}
	}
	if !found {
		t.Errorf("no SV006 finding after injecting %q into the proxy splice path; findings: %v", inject, findings)
	}
}

// TestFindingsJSONGolden pins the machine-readable finding shape that
// `scvet -json` and `sccheck lint -json` emit, so downstream tooling can
// rely on the field names surviving refactors.
func TestFindingsJSONGolden(t *testing.T) {
	findings, err := scvet.Run([]string{"testdata/badpkg"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(findings, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	const golden = "testdata/badpkg.json"
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("JSON findings differ from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
