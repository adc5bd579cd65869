package descriptor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scverify/internal/graph"
	"scverify/internal/trace"
)

// encodeOracle is the graph encoder that the Adjacency encoder replaced,
// kept as the reference its streams are checked against: it sizes the pool
// from graph.Bandwidth, buckets the sorted edges per node, and recycles
// IDs from a stack of k+1.
func encodeOracle(g *graph.Graph) (Stream, int) {
	k := max(g.Bandwidth(), 1)
	n := g.Len()
	reach := make([]int, n)
	for i := range reach {
		reach[i] = -1
	}
	type adj struct {
		other int
		kind  graph.EdgeKind
		out   bool
	}
	back := make([][]adj, n)
	for _, e := range g.Edges() {
		reach[e.From] = max(reach[e.From], e.To)
		reach[e.To] = max(reach[e.To], e.From)
		if e.From < e.To {
			back[e.To] = append(back[e.To], adj{other: e.From, kind: e.Kind})
		} else {
			back[e.From] = append(back[e.From], adj{other: e.To, kind: e.Kind, out: true})
		}
	}
	releaseAt := make([][]int, n)
	for j, r := range reach {
		if r > j {
			releaseAt[r] = append(releaseAt[r], j)
		}
	}
	free := make([]int, 0, k+1)
	for id := k + 1; id >= 1; id-- {
		free = append(free, id)
	}
	idOf := make([]int, n)
	var out Stream
	for i := 0; i < n; i++ {
		if len(free) == 0 {
			panic(fmt.Sprintf("encodeOracle: pool of %d exhausted at node %d", k+1, i))
		}
		id := free[len(free)-1]
		free = free[:len(free)-1]
		idOf[i] = id
		op := g.Trace[i]
		out = append(out, Node{ID: id, Op: &op})
		for _, a := range back[i] {
			from, to := idOf[a.other], id
			if a.out {
				from, to = id, idOf[a.other]
			}
			for _, lbl := range LabelsForKind(a.kind) {
				out = append(out, Edge{From: from, To: to, Label: lbl})
			}
		}
		if reach[i] <= i {
			free = append(free, idOf[i])
			idOf[i] = 0
		}
		for _, j := range releaseAt[i] {
			if idOf[j] != 0 {
				free = append(free, idOf[j])
				idOf[j] = 0
			}
		}
	}
	return out, k
}

// TestEncodeMatchesOracle checks EncodeAuto against encodeOracle on random
// graphs with edges in both directions, two-cycles and combined
// annotations: the same symbols in the same order and the same k.
func TestEncodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		n := 1 + rng.Intn(24)
		g := graph.New(make(trace.Trace, n))
		for j := range g.Trace {
			g.Trace[j] = trace.ST(1, 1, trace.Value(j+1))
		}
		density := rng.Float64() * 0.4
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b && rng.Float64() < density {
					g.AddEdge(a, b, graph.EdgeKind(rng.Intn(16)))
				}
			}
		}
		want, wantK := encodeOracle(g)
		got, k := EncodeAuto(g)
		if k != wantK || !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d: %s\nk=%d %s\nwant k=%d %s", i, g, k, got.Text(), wantK, want.Text())
		}
		bw := g.Bandwidth()
		if s, err := Encode(g, bw); err != nil || !reflect.DeepEqual(s, want) {
			t.Fatalf("graph %d: Encode at its bandwidth %d: err=%v %s", i, bw, err, s.Text())
		}
		if _, err := Encode(g, bw-1); err == nil {
			t.Fatalf("graph %d: Encode below its bandwidth %d succeeded", i, bw)
		}
	}
}
