package history

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// jsonlQuirks are inputs at the edges of the JSONL grammar, with the
// events they parse to or the line they fail on: what the encoding/json
// oracle makes of them, which the scanner must match.
var jsonlQuirks = []struct {
	name    string
	in      string
	want    []Event
	errLine int // 1-based line of the expected error; 0 for none
}{
	{name: "null line skipped",
		in:   "null\n" + `{"process":0,"type":"invoke","f":"read","key":"x"}`,
		want: []Event{inv(0, Read, "x")}},
	{name: "integers as strings",
		in:   `{"process":"3","type":"invoke","f":"write","key":"x","value":"12"}`,
		want: []Event{inv(3, Write, "x", 12)}},
	{name: "escaped integer string",
		in:   `{"process":"\u0031","type":"invoke","f":"write","key":"x","value":"-\u0037"}`,
		want: []Event{inv(1, Write, "x", -7)}},
	{name: "integer key kept as written",
		in:   `{"process":0,"type":"invoke","f":"read","key":-0}`,
		want: []Event{inv(0, Read, "-0")}},
	{name: "upper-case field names",
		in:   `{"PROCESS":1,"Type":"invoke","F":"read","KEY":"x"}`,
		want: []Event{inv(1, Read, "x")}},
	{name: "field names under case folding",
		in:   "{\"proceſſ\":2,\"type\":\"invoke\",\"f\":\"read\",\"\u212aey\":\"x\"}",
		want: []Event{inv(2, Read, "x")}},
	{name: "escaped field name",
		in:   `{"proc\u0065ss":0,"type":"invoke","f":"read","key":"x"}`,
		want: []Event{inv(0, Read, "x")}},
	{name: "last repeated field wins",
		in:   `{"process":0,"type":"ok","type":"invoke","f":"read","key":"x","key":"y","PROCESS":4}`,
		want: []Event{inv(4, Read, "y")}},
	{name: "null does not clear type or f",
		in:   `{"process":0,"type":"invoke","type":null,"f":"write","f":null,"key":"x","value":1}`,
		want: []Event{inv(0, Write, "x", 1)}},
	{name: "null clears a value",
		in:   `{"process":0,"type":"ok","f":"read","key":"x","value":3,"value":null}`,
		want: []Event{ret(0, OK, Read, "x")}},
	{name: "lone surrogate decodes to U+FFFD",
		in:   `{"process":0,"type":"invoke","f":"read","key":"a\ud800b\udc00\ud800\u0041"}`,
		want: []Event{inv(0, Read, "a\uFFFDb\uFFFD\uFFFDA")}},
	{name: "surrogate pair",
		in:   `{"process":0,"type":"invoke","f":"read","key":"\ud83d\ude00"}`,
		want: []Event{inv(0, Read, "\U0001F600")}},
	{name: "invalid UTF-8 decodes to U+FFFD",
		in:   "{\"process\":0,\"type\":\"invoke\",\"f\":\"read\",\"key\":\"\xff\xed\xa0\x80\",\"\xffprocess\":9}",
		want: []Event{inv(0, Read, "\uFFFD\uFFFD\uFFFD\uFFFD")}},
	{name: "unknown field with nested values",
		in:   `{"process":0,"type":"invoke","f":"read","key":"x","extra":{"a":[1,{"b":null}],"c":[true,false,-1.5e+3,"\n"]}}`,
		want: []Event{inv(0, Read, "x")}},
	{name: "whitespace between tokens and keyword prefixes",
		in:   "{ \"process\" :\t0 ,\r\"type\": \":invoke\" , \"f\" : \":r\", \"key\" : 7 }",
		want: []Event{inv(0, Read, "7")}},
	{name: "non-integer process skipped",
		in: strings.Join([]string{
			`{"process":1.5,"type":"invoke","f":"read","key":"x"}`,
			`{"process":"nemesis","type":"info","f":"start"}`,
			`{"process":"1e2","type":"invoke","f":"read","key":"x"}`,
			`{"process":"07","type":"invoke","f":"read","key":"x"}`,
			`{"process":9223372036854775808,"type":"invoke","f":"read","key":"x"}`,
			`{"process":{"id":1},"type":"invoke","f":"read","key":"x"}`,
			`{"process":true}`,
			`{"process":null,"type":"invoke","f":"read","key":"x"}`,
			`{}`,
		}, "\n")},
	{name: "syntax error on a skipped line",
		in:      `{"process":0,"type":"invoke","f":"read","key":"x"}` + "\n" + `{"process":"nemesis","type":"info","f":"start",}`,
		errLine: 2},
	{name: "raw control character in a string",
		in:      "{\"process\":0,\"type\":\"invoke\",\"f\":\"read\",\"key\":\"a\tb\"}",
		errLine: 1},
	{name: "non-string type on a skipped line",
		in:      `{"process":"nemesis","type":1}`,
		errLine: 1},
	{name: "non-string f on a skipped line",
		in:      `{"f":["start"]}`,
		errLine: 1},
	{name: "trailing brace",
		in:      `{"process":0,"type":"invoke","f":"read","key":"x"}}`,
		errLine: 1},
	{name: "trailing bracket",
		in:      `{"process":0,"type":"invoke","f":"read","key":"x"}]`,
		errLine: 1},
	{name: "trailing bracket after null",
		in:      "null]",
		errLine: 1},
}

// sameParse parses data with the scanner and with the encoding/json
// oracle, fails the test unless both return the same events or both fail
// on the same line, and returns the scanner's result.
func sameParse(t *testing.T, data []byte) (*History, error) {
	t.Helper()
	h, err := ParseJSONL(bytes.NewReader(data))
	oh, oerr := parseJSONLOracle(bytes.NewReader(data))
	switch {
	case err == nil && oerr == nil:
		if !reflect.DeepEqual(h.Events, oh.Events) {
			t.Fatalf("scanner and oracle disagree on %q:\nscanner: %v\n oracle: %v", data, h.Events, oh.Events)
		}
	case err != nil && oerr != nil:
		var fe, ofe *FormatError
		if !errors.As(err, &fe) || !errors.As(oerr, &ofe) || fe.Line != ofe.Line {
			t.Fatalf("scanner and oracle fail differently on %q:\nscanner: %v\n oracle: %v", data, err, oerr)
		}
	default:
		t.Fatalf("scanner and oracle disagree on %q:\nscanner: %v\n oracle: %v", data, err, oerr)
	}
	return h, err
}

func TestJSONLQuirks(t *testing.T) {
	for _, tc := range jsonlQuirks {
		t.Run(tc.name, func(t *testing.T) {
			h, err := sameParse(t, []byte(tc.in))
			if tc.errLine > 0 {
				var fe *FormatError
				if !errors.As(err, &fe) || fe.Line != tc.errLine {
					t.Fatalf("got %v, want an error on line %d", err, tc.errLine)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(h.Events, tc.want) {
				t.Errorf("got %v, want %v", h.Events, tc.want)
			}
		})
	}
}

// TestJSONLNestingDepth pins encoding/json's nesting limit: 10,000 open
// objects and arrays, the event object included.
func TestJSONLNestingDepth(t *testing.T) {
	line := func(depth int) []byte {
		n := depth - 1 // the event object is one level
		return []byte(`{"process":0,"type":"invoke","f":"read","key":"x","extra":` +
			strings.Repeat("[", n) + strings.Repeat("]", n) + "}")
	}
	if _, err := sameParse(t, line(10000)); err != nil {
		t.Errorf("depth 10000 rejected: %v", err)
	}
	if _, err := sameParse(t, line(10001)); err == nil {
		t.Error("depth 10001 accepted")
	}
}

// FuzzJSONLMatchesOracle checks the scanner against the encoding/json
// parser it replaced: on every input both return the same events, or
// both fail on the same line.
func FuzzJSONLMatchesOracle(f *testing.F) {
	for _, s := range fuzzSeedJSONL {
		f.Add([]byte(s))
	}
	for _, tc := range jsonlQuirks {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = sameParse(t, data)
	})
}

// generatedJSONL renders a generated 4-process, 3-key, 200-operation
// history, the size the benchmark's history workload parses.
func generatedJSONL(t testing.TB) (data []byte, events int) {
	g, err := Generate(GenConfig{Seed: 1, Processes: 4, Keys: 3, Ops: 200})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.History.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(g.History.Events)
}

// TestParseJSONLAllocs caps the scanner's allocations: beyond its fixed
// set-up, a parse allocates only to grow the event slice and to intern
// each distinct string once.
func TestParseJSONLAllocs(t *testing.T) {
	data, events := generatedJSONL(t)
	var err error
	allocs := testing.AllocsPerRun(20, func() {
		_, err = ParseJSONL(bytes.NewReader(data))
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%.0f allocations for %d events", allocs, events)
	if perEvent := allocs / float64(events); perEvent > 2 {
		t.Errorf("ParseJSONL makes %.0f allocations for %d events, %.2f per event; want at most 2", allocs, events, perEvent)
	}
}

// BenchmarkParseJSONL times the scanner and the encoding/json oracle on
// the same generated history.
func BenchmarkParseJSONL(b *testing.B) {
	data, _ := generatedJSONL(b)
	for _, bc := range []struct {
		name  string
		parse func(io.Reader) (*History, error)
	}{
		{"scanner", ParseJSONL},
		{"oracle", parseJSONLOracle},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.parse(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
