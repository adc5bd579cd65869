package history

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func inv(p int, f Func, key string, v ...int64) Event {
	e := Event{Process: p, Kind: Invoke, F: f, Key: key}
	if len(v) > 0 {
		e.Value, e.HasValue = v[0], true
	}
	return e
}

func ret(p int, k Kind, f Func, key string, v ...int64) Event {
	e := Event{Process: p, Kind: k, F: f, Key: key}
	if len(v) > 0 {
		e.Value, e.HasValue = v[0], true
	}
	return e
}

func TestOpsPairing(t *testing.T) {
	h := &History{Events: []Event{
		inv(0, Write, "x", 1),
		inv(1, Read, "x"),
		ret(0, OK, Write, "x", 1),
		ret(1, OK, Read, "x", 1),
		inv(1, Read, "y"),
		ret(1, OK, Read, "y"), // ⊥ read
		inv(0, Write, "x", 2),
		ret(0, Fail, Write, "x", 2),
		inv(1, Write, "y", 3),
		ret(1, Info, Write, "y", 3),
		inv(0, Read, "x"), // dangling at EOF
	}}
	ops, err := h.Ops(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 6 {
		t.Fatalf("got %d ops, want 6: %v", len(ops), ops)
	}
	want := []struct {
		proc    int
		f       Func
		outcome Kind
		hasVal  bool
		ret     int
	}{
		{0, Write, OK, true, 2},
		{1, Read, OK, true, 3},
		{1, Read, OK, false, 5},
		{0, Write, Fail, true, 7},
		{1, Write, Info, true, 9},
		{0, Read, Info, false, -1},
	}
	for i, w := range want {
		op := ops[i]
		if op.Process != w.proc || op.F != w.f || op.Outcome != w.outcome ||
			op.HasValue != w.hasVal || op.Return != w.ret {
			t.Errorf("op %d = %+v, want %+v", i, op, w)
		}
	}
	// Strict mode rejects the dangling read.
	if _, err := h.Ops(true); err == nil {
		t.Error("strict Ops accepted a dangling invocation")
	}
}

func TestOpsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{"concurrent ops in one process",
			[]Event{inv(0, Read, "x"), inv(0, Read, "y")},
			"single-threaded"},
		{"return with no invoke",
			[]Event{ret(0, OK, Read, "x", 1)},
			"no pending invocation"},
		{"function mismatch",
			[]Event{inv(0, Read, "x"), ret(0, OK, Write, "x", 1)},
			"does not match"},
		{"key mismatch",
			[]Event{inv(0, Read, "x"), ret(0, OK, Read, "y", 1)},
			"names key"},
		{"write value mismatch",
			[]Event{inv(0, Write, "x", 1), ret(0, OK, Write, "x", 2)},
			"wrote"},
		{"write invoke without value",
			[]Event{{Process: 0, Kind: Invoke, F: Write, Key: "x"}},
			"no value"},
		{"negative process",
			[]Event{inv(-1, Read, "x")},
			"negative process"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &History{Events: tc.events}
			_, err := h.Ops(false)
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want a *FormatError", err)
			}
			if !strings.Contains(fe.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", fe, tc.want)
			}
		})
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := strings.Join([]string{
		`{"process":0,"type":"invoke","f":"write","key":"x","value":3}`,
		`{"process":0,"type":"ok","f":"write","key":"x","value":3}`,
		``,
		`{"process":1,"type":"invoke","f":"r","key":7}`,
		`{"index":12,"process":1,"type":"ok","f":"read","key":7,"value":null,"time":991}`,
		`{"process":"nemesis","type":"info","f":"start","key":"net"}`,
		`{"process":2,"type":"invoke","f":"read","key":"x"}`,
		`{"process":2,"type":"ok","f":"read","key":"x","value":3}`,
	}, "\n")
	h, err := ParseJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Events) != 6 {
		t.Fatalf("got %d events, want 6 (nemesis and blank skipped): %v", len(h.Events), h.Events)
	}
	if h.Events[2].Key != "7" {
		t.Errorf("integer key not canonicalized: %v", h.Events[2])
	}
	var buf bytes.Buffer
	if err := h.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(h.Events, h2.Events) {
		t.Errorf("round trip changed events:\n%v\n%v", h.Events, h2.Events)
	}
}

func TestJSONLRejects(t *testing.T) {
	cases := []string{
		`not json`,
		`{"process":0,"type":"invoke","f":"write","key":"x"} extra`,
		`{"process":0,"type":"frob","f":"write","key":"x"}`,
		`{"process":0,"type":"invoke","f":"cas","key":"x"}`,
		`{"process":0,"type":"invoke","f":"read"}`,
		`{"process":0,"type":"invoke","f":"read","key":"x","value":1.5}`,
		`{"process":0,"type":"invoke","f":"read","key":"x"}}`,
		`{"process":0,"type":"invoke","f":"read","key":"x"}]`,
	}
	for _, in := range cases {
		if _, err := ParseJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("ParseJSONL accepted %q", in)
		}
	}
}

func TestEDNRoundTrip(t *testing.T) {
	in := `
; a Jepsen-ish history
[{:process 0, :type :invoke, :f :write, :key "x", :value 3}
 {:process 0, :type :ok,     :f :write, :key "x", :value 3}
 {:process :nemesis, :type :info, :f :start, :value nil}
 {:process 1, :type :invoke, :f :read, :key :x, :value nil}
 {:process 1, :type :ok, :f :read, :key :x, :value 3}
 {:process 2, :type :invoke, :f :read, :value ["x" nil]}
 {:process 2, :type :ok, :f :read, :value ["x" 3]}]`
	h, err := ParseEDN(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Events) != 6 {
		t.Fatalf("got %d events, want 6: %v", len(h.Events), h.Events)
	}
	if h.Events[2].Key != "x" || h.Events[4].Key != "x" {
		t.Errorf("keyword/pair keys not canonicalized: %v", h.Events)
	}
	var buf bytes.Buffer
	if err := h.WriteEDN(&buf); err != nil {
		t.Fatal(err)
	}
	h2, err := ParseEDN(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(h.Events, h2.Events) {
		t.Errorf("round trip changed events:\n%v\n%v", h.Events, h2.Events)
	}
	// The independent-register pair form parses identically to the flat form.
	if h.Events[3].Value != h.Events[5].Value {
		t.Errorf("pair-form value differs: %v vs %v", h.Events[3], h.Events[5])
	}
}

func TestEDNBareSequence(t *testing.T) {
	in := `{:process 0, :type :invoke, :f :write, :key "x", :value 1}
{:process 0, :type :ok, :f :write, :key "x", :value 1}`
	h, err := ParseEDN(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Events) != 2 {
		t.Fatalf("got %d events, want 2", len(h.Events))
	}
}

func TestEDNRejects(t *testing.T) {
	cases := []string{
		`[{:process 0, :type :invoke, :f :read, :key "x", :value 1.5}]`,
		`[{:process 0, :type :invoke, :f :read, :key "x"} 42]`,
		`[{:process 0}]`,
		`[{"str-key" 1}]`,
		`[#{1 2}]`,
		`[{:process 0, :type :invoke, :f :read, :key "x"`,
		`[{:process 0, :type :invoke, :f :read, :key "x"}] trailing`,
	}
	for _, in := range cases {
		if _, err := ParseEDN(strings.NewReader(in)); err == nil {
			t.Errorf("ParseEDN accepted %q", in)
		}
	}
}
