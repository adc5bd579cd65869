package mc

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"scverify/internal/checker"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/trace"
)

var probeLong = flag.Bool("probe.long", false,
	"collision probe: explore 30,000 product states per target and parameter set and compare futures at every second collision, as changes to the product key should")

// probeParams are the parameter sets the collision probe explores.
var probeParams = []trace.Params{
	{Procs: 2, Blocks: 1, Values: 1},
	{Procs: 2, Blocks: 2, Values: 1},
	{Procs: 2, Blocks: 1, Values: 2},
}

// futureOutcome is how one random future of a product state ends: the
// step that ended it (the walk's length for the finish check, -1 when
// the run finished cleanly) and why, as the rejection's constraint code,
// -2 for a rejection that is not the checker's, or -3 when the protocol
// had no transition to take.
type futureOutcome struct{ step, code int }

func rejectionCode(err error) int {
	var re *checker.RejectError
	if errors.As(err, &re) {
		return int(re.Constraint)
	}
	return -2
}

// walkFuture steps a copy of e, in the scratch s, through the transitions
// that draws picks, one draw per step, and finishes the run at the end of
// the walk.
func walkFuture(p protocol.Protocol, s *scratch, e *Product, draws []int) futureOutcome {
	s.load(e)
	for i, d := range draws {
		trs := p.Transitions(s.prod.PState)
		if len(trs) == 0 {
			return futureOutcome{step: i, code: -3}
		}
		if err := s.prod.advance(trs[d%len(trs)]); err != nil {
			return futureOutcome{step: i, code: rejectionCode(err)}
		}
	}
	if err := s.prod.finish(); err != nil {
		return futureOutcome{step: len(draws), code: rejectionCode(err)}
	}
	return futureOutcome{step: -1}
}

// partingWalk steps a and b through the same 12 random walks of 14 steps
// and returns the first walk's draws on which their futures part, with
// both outcomes, or nil draws when they never do.
func partingWalk(p protocol.Protocol, s *scratch, a, b *Product, rng *rand.Rand) ([]int, futureOutcome, futureOutcome) {
	for w := 0; w < 12; w++ {
		draws := make([]int, 14)
		for j := range draws {
			draws[j] = rng.Int()
		}
		if x, y := walkFuture(p, s, a, draws), walkFuture(p, s, b, draws); x != y {
			return draws, x, y
		}
	}
	return nil, futureOutcome{}, futureOutcome{}
}

// TestKeyCollisionsHaveEqualFutures is the collision probe: equal product
// keys must mean equal futures, which is what a verified verdict rests on.
// It explores every registry target breadth-first with exact keys, up to
// a budget of states, and at a sample of key collisions steps the
// first-seen product and the colliding one through the same random
// futures (partingWalk). Both must reject at the same step with the same
// constraint code, or both accept. Codes are compared rather than error
// text, which names raw IDs that differ between collided states. The
// default budget takes a few seconds; -probe.long is the run for changes
// to the key. Subtests are named target/params, e.g. storebuffer/p2b2v1.
func TestKeyCollisionsHaveEqualFutures(t *testing.T) {
	budget, every, perTarget := 1500, 4, 60
	if *probeLong {
		budget, every, perTarget = 30000, 2, 1<<30
	}
	if testing.Short() {
		budget, perTarget = 300, 10
	}
	total := 0
	for _, name := range registry.Names() {
		for _, params := range probeParams {
			t.Run(fmt.Sprintf("%s/p%db%dv%d", name, params.Procs, params.Blocks, params.Values), func(t *testing.T) {
				tgt, err := registry.Build(name, registry.Options{Params: params})
				if err != nil {
					t.Fatal(err)
				}
				p := tgt.Protocol
				po := ProductOptions{PoolSize: tgt.PoolSize, Generator: tgt.Generator}
				rng := rand.New(rand.NewSource(int64(len(name))*31 + int64(params.Blocks*3+params.Values)))
				root, s := NewProduct(p, po), newScratch(p, po)
				first := map[string]*Product{root.Key: root}
				queue := []*Product{root}
				collisions, sampled := 0, 0
				defer func() {
					total += sampled
					t.Logf("%d states, %d collisions, %d sampled", len(first), collisions, sampled)
				}()
				for i := 0; i < len(queue) && sampled < perTarget; i++ {
					for idx, tr := range p.Transitions(queue[i].PState) {
						ne, err := queue[i].Step(tr, idx)
						if err != nil {
							continue
						}
						seen, dup := first[ne.Key]
						if !dup {
							if len(first) < budget {
								first[ne.Key] = ne
								queue = append(queue, ne)
							}
							continue
						}
						if collisions++; collisions%every != 0 || sampled >= perTarget {
							continue
						}
						sampled++
						if draws, a, b := partingWalk(p, s, seen, ne, rng); draws != nil {
							t.Fatalf("paths %v and %v share a key, but the walk %v ends %+v and %+v",
								seen.Path(), ne.Path(), draws, a, b)
						}
					}
				}
			})
		}
	}
	if total == 0 && !t.Failed() {
		t.Error("no key collision sampled")
	}
}
