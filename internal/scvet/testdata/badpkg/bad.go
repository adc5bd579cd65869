// Package badpkg seeds one violation per scvet rule, next to clean
// variants of the same patterns; scvet_test.go locks the expected findings
// in badpkg.golden. It lives under testdata so the repo build (and scvet's
// own recursive runs) never see it.
package badpkg

import "sort"

type state struct {
	vals map[int]int
}

// Key feeds a map range straight into the encoding. [SV001]
func (s state) Key() string {
	out := ""
	for k, v := range s.vals {
		out += string(rune(k)) + string(rune(v))
	}
	return out
}

// StateKey collects map keys into a slice but never sorts it. [SV001]
func (s state) StateKey() string {
	out := ""
	var ks []int
	for k := range s.vals {
		ks = append(ks, k)
	}
	for _, k := range ks {
		out += string(rune(s.vals[k]))
	}
	return out
}

// SortedKey uses the sorted-keys idiom correctly; must stay clean.
func (s state) SortedKey() string {
	out := ""
	var ks []int
	for k := range s.vals {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		out += string(rune(s.vals[k]))
	}
	return out
}

// Transition and machine mimic a protocol whose enumeration order leaks
// map randomness.
type Transition struct {
	label int
}

type machine struct {
	edges map[int]int
}

// Transitions emits the transition list in map order. [SV001]
func (m *machine) Transitions() []Transition {
	var out []Transition
	for k := range m.edges {
		out = append(out, Transition{label: k})
	}
	return out
}

// Roles calls the visitor in map order. [SV001]
func (m *machine) Roles(visit func(int)) {
	for k := range m.edges {
		visit(k)
	}
}

type pair struct {
	a, b int
}

// clone copies a pair but forgets field b. [SV002]
func clone(p pair) *pair {
	return &pair{a: p.a} // want "pair literal in clone leaves field\(s\) b"
}

type tracker struct {
	owner map[int]int
	ids   []int
	count int
}

// Clone covers owner in the literal and ids by later assignment, but count
// is neither in the literal nor ever read from the receiver. [SV002 SV003]
func (t *tracker) Clone() *tracker { // want "Clone method on tracker never mentions field\(s\) count"
	out := &tracker{owner: make(map[int]int, len(t.owner))} // want "tracker literal in Clone leaves field\(s\) count"
	for k, v := range t.owner {
		out.owner[k] = v
	}
	out.ids = append([]int(nil), t.ids...)
	return out
}

type meta struct {
	tag  string
	seen bool
}

// Clone writes every field of the copy, so the literal is complete, but
// seen is invented rather than read from the receiver. [SV003]
func (m *meta) Clone() *meta { // want "Clone method on meta never mentions field\(s\) seen"
	out := new(meta)
	out.tag = m.tag
	out.seen = false
	return out
}

type rnode struct {
	val  int
	next *rnode
}

// Clone deep-copies via a memoized helper — the repo's own clone idiom:
// a partial literal completed by later assignments inside the closure, and
// the receiver handed to the helper wholesale. Must stay clean.
func (r *rnode) Clone() *rnode {
	seen := map[*rnode]*rnode{}
	var cp func(*rnode) *rnode
	cp = func(n *rnode) *rnode {
		if n == nil {
			return nil
		}
		if c, ok := seen[n]; ok {
			return c
		}
		out := &rnode{val: n.val}
		seen[n] = out
		out.next = cp(n.next)
		return out
	}
	return cp(r)
}

// Clone via whole-struct copy; must stay clean.
func (p *pair) Clone() *pair {
	cp := *p
	return &cp
}

type buffer struct {
	data []int
	sink func(int) // not copied: destination-owned
	gen  int
}

// CopyFrom overwrites b with src's contents, reusing b's storage; the sink
// is declared to stay with the destination, but gen is never read, so the
// copy keeps b's stale generation. [SV003]
func (b *buffer) CopyFrom(src *buffer) { // want "CopyFrom method on buffer never reads field\(s\) gen of its source"
	b.data = append(b.data[:0], src.data...)
}

// source is an interface a CopyFrom may take in place of its own type.
type source interface{ Len() int }

type ring struct {
	items []int
	head  int
}

func (r *ring) Len() int { return len(r.items) }

// CopyFrom takes an interface in place of its own type, so which source
// fields it reads cannot be checked. [SV003]
func (r *ring) CopyFrom(src source) { // want "CopyFrom method on ring takes a source, not its own type"
	s := src.(*ring)
	r.items = append(r.items[:0], s.items...)
}

type span struct {
	lo, hi int
}

// CopyFrom via whole-struct copy; must stay clean.
func (s *span) CopyFrom(src *span) {
	*s = *src
}
