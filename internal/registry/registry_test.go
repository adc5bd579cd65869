package registry

import (
	"testing"

	"scverify/internal/trace"
)

func TestNamesStable(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("only %d protocols registered: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatal("names not sorted")
		}
	}
}

func TestBuildAll(t *testing.T) {
	params := trace.Params{Procs: 2, Blocks: 2, Values: 2}
	for _, name := range Names() {
		tgt, err := Build(name, Options{Params: params, QueueCap: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tgt.Protocol == nil {
			t.Fatalf("%s: incomplete target", name)
		}
		if tgt.Protocol.Params() != params {
			t.Errorf("%s: params %v", name, tgt.Protocol.Params())
		}
		if tgt.Note == "" {
			t.Errorf("%s: empty note", name)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build("nonsense", Options{Params: trace.Params{Procs: 1, Blocks: 1, Values: 1}}); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := Build("serial", Options{}); err == nil {
		t.Error("zero params accepted")
	}
}

func TestDescribe(t *testing.T) {
	if _, err := Describe("msi"); err != nil {
		t.Error(err)
	}
	if _, err := Describe("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestExpectations(t *testing.T) {
	params := trace.Params{Procs: 2, Blocks: 1, Values: 1}
	expect := map[string]bool{
		"serial": true, "msi": true, "mesi": true, "moesi": true, "dragon": true, "directory": true, "lazy": true,
		"msi-lost-writeback": false, "msi-no-invalidate": false,
		"storebuffer": false, "lazy-realtime": false,
		"storebuffer-fenced": true, "writethrough": true,
		"writethrough-no-invalidate": false,
	}
	for name, want := range expect {
		tgt, err := Build(name, Options{Params: params})
		if err != nil {
			t.Fatal(err)
		}
		if tgt.ExpectSC != want {
			t.Errorf("%s: ExpectSC = %v, want %v", name, tgt.ExpectSC, want)
		}
	}
}
