package checker

import (
	"math/rand"
	"slices"
	"testing"

	"scverify/internal/observer"
	"scverify/internal/protocol"
	"scverify/internal/registry"
	"scverify/internal/trace"
)

// checkRecords verifies the arenas of a checker that has not rejected:
// every record reference is counted exactly once in the target's refs,
// every allocated record is reachable from the active records, the ⊥-load
// obligations and the block orphans, every obligation and list cell in use
// is reachable and indexed (cells, slots, the armed list), and free slots
// are zero and not in use.
func checkRecords(t *testing.T, c *Checker) {
	t.Helper()
	if c.Err() != nil {
		return
	}
	refs := make([]int32, len(c.recs.items))
	seen := make([]bool, len(c.recs.items))
	obSeen := make([]bool, len(c.obligs.items))
	linkSeen := make([]bool, len(c.links.items))
	var queue []int32
	mark := func(i int32) {
		if i != 0 && !seen[i] {
			seen[i] = true
			queue = append(queue, i)
		}
	}
	ref := func(i int32) {
		if i != 0 {
			refs[i]++
			mark(i)
		}
	}
	cells, slots, armed := 0, 0, 0
	list := func(owner, head int32) {
		prev := int32(0)
		for l := head; l != 0; l = c.links.items[l].next {
			cell := c.links.items[l]
			if linkSeen[l] || cell.prev != prev || c.index[indexKey(owner, int(cell.rec))] != l {
				t.Fatalf("list cell %d of record %d: reached twice, or prev %d not %d, or not indexed", l, owner, cell.prev, prev)
			}
			linkSeen[l] = true
			cells++
			prev = l
			ref(cell.rec)
		}
	}
	for id, i := range c.owner {
		if i != 0 && !c.rec(i).active {
			t.Fatalf("ID %d names retired record %d", id, i)
		}
		mark(i)
	}
	for _, bo := range c.bottoms {
		ref(bo.load)
		list(bo.load, bo.targets)
	}
	for _, bs := range c.blocks {
		ref(bs.orphan)
	}
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		r := c.rec(i)
		ref(r.inhFrom)
		ref(r.stSucc)
		list(i, r.forced)
		prev := int32(0)
		for o := r.pending; o != 0; o = c.obligs.items[o].next {
			ob := c.obligs.items[o]
			if obSeen[o] || ob.store != i || c.slot(i, ob.proc) != o || ob.prev != prev {
				t.Fatalf("obligation %d: reached twice, held by %d not its store %d, not indexed, or prev %d not %d", o, i, ob.store, ob.prev, prev)
			}
			prev = o
			obSeen[o] = true
			slots++
			if ob.armed() {
				armed++
			}
			ref(ob.load)
			ref(ob.target)
		}
	}
	if len(c.index) != cells+slots {
		t.Fatalf("%d index entries, %d cells and %d slots in use", len(c.index), cells, slots)
	}
	prev := int32(0)
	for o := c.armed; o != 0; o = c.obligs.items[o].nextArmed {
		if ob := c.obligs.items[o]; !obSeen[o] || !ob.armed() || ob.prevArmed != prev {
			t.Fatalf("armed list: obligation %d unreachable, unarmed, or prev %d not %d", o, ob.prevArmed, prev)
		}
		prev = o
		armed--
	}
	if armed != 0 {
		t.Fatalf("%d armed obligations off the armed list", armed)
	}
	for i := 1; i < len(c.recs.items); i++ {
		free := slices.Contains(c.recs.free, int32(i))
		r := c.rec(int32(i))
		switch {
		case free && (seen[i] || *r != rec{}):
			t.Fatalf("free record %d is in use or not zero: %+v", i, *r)
		case !free && !seen[i]:
			t.Fatalf("record %d (%s, active %v, refs %d) is unreachable but not reclaimed", i, r.op, r.active, r.refs)
		case !free && r.refs != refs[i]:
			t.Fatalf("record %d (%s) counts %d references, holds %d", i, r.op, r.refs, refs[i])
		}
	}
	for o := 1; o < len(c.obligs.items); o++ {
		if free := slices.Contains(c.obligs.free, int32(o)); free == obSeen[o] {
			t.Fatalf("obligation %d: free %v, reachable %v", o, free, obSeen[o])
		}
	}
	for l := 1; l < len(c.links.items); l++ {
		if free := slices.Contains(c.links.free, int32(l)); free == linkSeen[l] {
			t.Fatalf("list cell %d: free %v, reachable %v", l, free, linkSeen[l])
		}
	}
}

// TestRecordsReclaimed steps observed and adversarial streams, and long
// runs of every registered protocol, checking the arenas after every
// symbol (see checkRecords): a checker holds exactly the records that the
// roots reach, so its copies carry no dead ones.
func TestRecordsReclaimed(t *testing.T) {
	streams, ks := observedStreams(t)
	for _, name := range registry.Names() {
		tgt, err := registry.Build(name, registry.Options{Params: trace.Params{Procs: 2, Blocks: 2, Values: 2}})
		if err != nil {
			t.Fatal(err)
		}
		run := protocol.RandomRun(tgt.Protocol, 1500, 3)
		s, obs, _ := observer.ObserveRun(run, tgt.Generator, observer.Config{PoolSize: tgt.PoolSize})
		streams, ks = append(streams, s), append(ks, obs.K())
	}
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 500; n++ {
		data := make([]byte, 3*(8+rng.Intn(40)))
		rng.Read(data)
		streams, ks = append(streams, fuzzStream(data, 4)), append(ks, 4)
	}
	reclaimed := 0
	for si, s := range streams {
		c := New(ks[si])
		for _, sym := range s {
			_ = c.Step(sym)
			checkRecords(t, c)
		}
		reclaimed += len(c.recs.free)
	}
	if reclaimed == 0 {
		t.Fatal("no stream left a reclaimed record slot")
	}
}
