package mc

import (
	"sync"
	"sync/atomic"
)

// The visited set deduplicates product states. Two implementations share
// one interface: the default fingerprint table keys on the 64-bit state
// fingerprint (8 bytes per state instead of the full canonical key, the
// memory-headroom mode), and the exact table keys on the canonical key
// bytes (the fallback that cannot alias). Fingerprinting is sound for
// rejection — a violation is always re-validated by concrete replay — but
// a fingerprint collision can silently merge two distinct states and hide
// part of the space from a "verified" claim; the audit mode retains exact
// keys alongside fingerprints purely to count genuine collisions, so a
// run can quantify that risk without giving up the compact table.
//
// The size counter is an atomic.Int64. The previous implementation
// guarded a plain int64 with its own mutex, which serialized every claim
// from all 64 shards through one lock; see BenchmarkVisitedClaim for the
// regression guard (the atomic version scales with shards, the mutex
// version flatlined).
//
// Depth-bounded runs additionally track the best (smallest) known depth
// per state and re-admit a state whose depth improves: without the old
// level barrier, a state can be discovered first via a long path, and
// pruning at MaxDepth from that depth would nondeterministically truncate
// the bounded state space. Min-depth relaxation restores exactly the
// BFS-bounded set. The counted bit makes the transition counter
// deterministic too: a state's fan-out is charged the first time it is
// expanded, no matter how many depth improvements re-expand it.
type visitedSet interface {
	// claim records key (fingerprint fp) discovered at depth. fresh is
	// true on first sighting (the state counts toward size); expand is
	// true when the caller should (re-)expand: on first sighting, or when
	// the depth improved on a bounded run.
	claim(key []byte, fp uint64, depth int) (fresh, expand bool)
	// countExpand consumes the state's once-only transition-count grant;
	// true if this caller should charge the fan-out.
	countExpand(key []byte, fp uint64) bool
	size() int64
	collisions() int64
}

const visitedShards = 64

// visit packs the per-state record: best known depth in the low 31 bits,
// the expansion-counted grant in bit 31.
type visit uint32

const visitCounted visit = 1 << 31

func (v visit) depth() int32  { return int32(v &^ visitCounted) }
func (v visit) counted() bool { return v&visitCounted != 0 }
func mkVisit(depth int) visit { return visit(depth) &^ visitCounted }

// exactVisited is the exact-key fallback: canonical key bytes, no
// aliasing possible.
type exactVisited struct {
	bounded bool
	count   atomic.Int64
	shards  [visitedShards]struct {
		mu sync.Mutex
		m  map[string]visit
	}
}

func newExactVisited(bounded bool) *exactVisited {
	v := &exactVisited{bounded: bounded}
	for i := range v.shards {
		v.shards[i].m = make(map[string]visit)
	}
	return v
}

func (v *exactVisited) claim(key []byte, fp uint64, depth int) (fresh, expand bool) {
	s := &v.shards[fp%visitedShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[string(key)]
	if !ok {
		s.m[string(key)] = mkVisit(depth)
		v.count.Add(1)
		return true, true
	}
	if v.bounded && int32(depth) < cur.depth() {
		s.m[string(key)] = mkVisit(depth) | (cur & visitCounted)
		return false, true
	}
	return false, false
}

func (v *exactVisited) countExpand(key []byte, fp uint64) bool {
	s := &v.shards[fp%visitedShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[string(key)]
	if !ok || cur.counted() {
		return false
	}
	s.m[string(key)] = cur | visitCounted
	return true
}

func (v *exactVisited) size() int64       { return v.count.Load() }
func (v *exactVisited) collisions() int64 { return 0 }

// fpVisited is the default 64-bit fingerprint table. In audit mode it
// additionally retains the first exact key seen per fingerprint and
// counts claims whose fingerprint was already taken by a different key —
// a genuine collision that would merge distinct states.
type fpVisited struct {
	bounded bool
	audit   bool
	count   atomic.Int64
	colls   atomic.Int64
	shards  [visitedShards]struct {
		mu   sync.Mutex
		m    map[uint64]visit
		keys map[uint64]string // audit mode only
	}
}

func newFPVisited(bounded, audit bool) *fpVisited {
	v := &fpVisited{bounded: bounded, audit: audit}
	for i := range v.shards {
		v.shards[i].m = make(map[uint64]visit)
		if audit {
			v.shards[i].keys = make(map[uint64]string)
		}
	}
	return v
}

func (v *fpVisited) claim(key []byte, fp uint64, depth int) (fresh, expand bool) {
	s := &v.shards[fp%visitedShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[fp]
	if !ok {
		s.m[fp] = mkVisit(depth)
		if v.audit {
			s.keys[fp] = string(key)
		}
		v.count.Add(1)
		return true, true
	}
	if v.audit && s.keys[fp] != string(key) {
		v.colls.Add(1)
	}
	if v.bounded && int32(depth) < cur.depth() {
		s.m[fp] = mkVisit(depth) | (cur & visitCounted)
		return false, true
	}
	return false, false
}

func (v *fpVisited) countExpand(key []byte, fp uint64) bool {
	s := &v.shards[fp%visitedShards]
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.m[fp]
	if !ok || cur.counted() {
		return false
	}
	s.m[fp] = cur | visitCounted
	return true
}

func (v *fpVisited) size() int64       { return v.count.Load() }
func (v *fpVisited) collisions() int64 { return v.colls.Load() }

// newVisitedSet picks the implementation for the requested mode.
func newVisitedSet(exact, audit, bounded bool) visitedSet {
	if exact {
		return newExactVisited(bounded)
	}
	return newFPVisited(bounded, audit)
}
