package checker_test

import (
	"testing"

	"scverify/internal/checker"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/trace"
	"scverify/internal/witness"
)

// BenchmarkCloneCheckpoint times Checker.Clone on the states a checker
// session holds at its 1024-symbol checkpoints: 8 random directory p4b2v2
// runs of 10,000 steps (k=40), stepped in witness mode as scserve does.
func BenchmarkCloneCheckpoint(b *testing.B) {
	params := trace.Params{Procs: 4, Blocks: 2, Values: 2}
	tgt, err := registry.Build("directory", registry.Options{Params: params})
	if err != nil {
		b.Fatal(err)
	}
	var snaps []*checker.Checker
	for i := 0; i < 8; i++ {
		run := protocol.RandomRun(tgt.Protocol, 10000, 1000+int64(i))
		stream, k, err := witness.Record(run, tgt)
		if err != nil {
			b.Fatal(err)
		}
		chk := checker.New(k).EnableWitness()
		chk.SetParams(params)
		for j, sym := range stream {
			if err := chk.Step(sym); err != nil {
				b.Fatal(err)
			}
			if (j+1)%1024 == 0 {
				snaps = append(snaps, chk.Clone())
			}
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = snaps[i%len(snaps)].Clone()
	}
}
