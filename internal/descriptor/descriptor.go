// Package descriptor implements the k-graph descriptor notation of
// Section 3.2 of Condon & Hu: a string representation of node-bandwidth-
// bounded graphs in which nodes are referred to by recyclable IDs from the
// range 1..k+1 rather than by absolute node numbers. A descriptor is a
// sequence of node descriptors (ID plus optional operation label), edge
// descriptors (ID pair plus optional edge label), and add-ID symbols that
// alias an additional ID to an existing node — modelling a stored value
// being copied into another protocol location.
//
// The package provides the ID-set semantics of the paper (Tracker), a
// decoder that reconstructs the full graph (the unbounded-memory reference
// against which the finite-state checkers are differentially tested), a
// constructive encoder implementing Lemma 3.2, and compact binary and
// human-readable text serializations of symbol streams.
package descriptor

import (
	"fmt"
	"strings"

	"scverify/internal/graph"
	"scverify/internal/trace"
)

// EdgeLabel is a symbol from the edge label alphabet E of Section 3.4:
// {inh, po, forced, STo, po-STo, po-inh, po-forced}, plus None for
// unlabeled edges.
type EdgeLabel uint8

const (
	// None marks an edge descriptor with no label symbol following it.
	None EdgeLabel = iota
	// Inh labels an inheritance edge.
	Inh
	// PO labels a program-order edge.
	PO
	// Forced labels a forced edge.
	Forced
	// STo labels a store-order edge.
	STo
	// POSTo labels an edge that is both program-order and store-order.
	POSTo
	// POInh labels an edge that is both program-order and inheritance.
	POInh
	// POForced labels an edge that is both program-order and forced.
	POForced

	numEdgeLabels
)

var edgeLabelNames = [...]string{
	None: "", Inh: "inh", PO: "po", Forced: "forced", STo: "STo",
	POSTo: "po-STo", POInh: "po-inh", POForced: "po-forced",
}

// String returns the paper's notation for the label; None renders empty.
func (l EdgeLabel) String() string {
	if int(l) < len(edgeLabelNames) {
		return edgeLabelNames[l]
	}
	return fmt.Sprintf("EdgeLabel(%d)", uint8(l))
}

// Kind converts the label to the annotation bitmask it denotes.
func (l EdgeLabel) Kind() graph.EdgeKind {
	switch l {
	case Inh:
		return graph.Inheritance
	case PO:
		return graph.ProgramOrder
	case Forced:
		return graph.Forced
	case STo:
		return graph.StoreOrder
	case POSTo:
		return graph.ProgramOrder | graph.StoreOrder
	case POInh:
		return graph.ProgramOrder | graph.Inheritance
	case POForced:
		return graph.ProgramOrder | graph.Forced
	default:
		return 0
	}
}

// LabelsForKind decomposes an annotation bitmask into the minimal sequence
// of edge labels denoting it, preferring the combined po-X labels of the
// observer alphabet. A zero kind yields a single None label.
func LabelsForKind(k graph.EdgeKind) []EdgeLabel {
	return appendLabels(nil, k)
}

// appendLabels appends LabelsForKind(k) to dst.
func appendLabels(dst []EdgeLabel, k graph.EdgeKind) []EdgeLabel {
	if k == 0 {
		return append(dst, None)
	}
	po := k&graph.ProgramOrder != 0
	for _, c := range [...]struct {
		bit              graph.EdgeKind
		single, combined EdgeLabel
	}{
		{graph.StoreOrder, STo, POSTo},
		{graph.Inheritance, Inh, POInh},
		{graph.Forced, Forced, POForced},
	} {
		switch {
		case k&c.bit == 0:
		case po:
			dst, po = append(dst, c.combined), false
		default:
			dst = append(dst, c.single)
		}
	}
	if po {
		dst = append(dst, PO)
	}
	return dst
}

// Symbol is one element of a k-graph descriptor string.
type Symbol interface {
	isSymbol()
	// Text renders the symbol in the paper's notation.
	Text() string
}

// Node is a node descriptor: a fresh node with the given ID, optionally
// labeled with a memory operation.
type Node struct {
	ID int
	// Op is the node's operation label; nil for an unlabeled node.
	Op *trace.Op
}

// Edge is an edge descriptor between the nodes currently holding IDs From
// and To, optionally labeled.
type Edge struct {
	From, To int
	Label    EdgeLabel
}

// AddID is the add-ID(Existing, New) symbol: the node holding ID Existing
// (if any) gains the alias New, and New ceases to identify any other node.
type AddID struct {
	Existing, New int
}

func (Node) isSymbol()  {}
func (Edge) isSymbol()  {}
func (AddID) isSymbol() {}

// Text renders the node descriptor, e.g. "3" or "3,ST(P1,B1,1)".
func (n Node) Text() string {
	if n.Op == nil {
		return fmt.Sprintf("%d", n.ID)
	}
	return fmt.Sprintf("%d,%s", n.ID, n.Op)
}

// Text renders the edge descriptor, e.g. "(1,2),inh".
func (e Edge) Text() string {
	if e.Label == None {
		return fmt.Sprintf("(%d,%d)", e.From, e.To)
	}
	return fmt.Sprintf("(%d,%d),%s", e.From, e.To, e.Label)
}

// Text renders the add-ID symbol, e.g. "add-ID(1,4)".
func (a AddID) Text() string { return fmt.Sprintf("add-ID(%d,%d)", a.Existing, a.New) }

// Stream is a sequence of descriptor symbols.
type Stream []Symbol

// Text renders the whole stream in the paper's comma-separated notation.
func (s Stream) Text() string {
	parts := make([]string, len(s))
	for i, sym := range s {
		parts[i] = sym.Text()
	}
	return strings.Join(parts, ", ")
}

// Validate reports the first structural problem in the stream for the given
// bandwidth bound k: IDs outside 1..k+1, or (in strict mode) edge or add-ID
// symbols referring to IDs not currently identifying any node. A nil error
// means the stream is a proper k-graph descriptor.
func (s Stream) Validate(k int, strict bool) error {
	tr := NewTracker()
	for idx, sym := range s {
		switch v := sym.(type) {
		case Node:
			if v.ID < 1 || v.ID > k+1 {
				return fmt.Errorf("descriptor: symbol %d: node ID %d outside 1..%d", idx, v.ID, k+1)
			}
		case Edge:
			if v.From < 1 || v.From > k+1 || v.To < 1 || v.To > k+1 {
				return fmt.Errorf("descriptor: symbol %d: edge (%d,%d) outside 1..%d", idx, v.From, v.To, k+1)
			}
			if v.Label >= numEdgeLabels {
				return fmt.Errorf("descriptor: symbol %d: unknown edge label %d", idx, v.Label)
			}
			if strict {
				if _, ok := tr.Owner(v.From); !ok {
					return fmt.Errorf("descriptor: symbol %d: edge source ID %d unbound", idx, v.From)
				}
				if _, ok := tr.Owner(v.To); !ok {
					return fmt.Errorf("descriptor: symbol %d: edge target ID %d unbound", idx, v.To)
				}
			}
		case AddID:
			if v.Existing < 1 || v.Existing > k+1 || v.New < 1 || v.New > k+1 {
				return fmt.Errorf("descriptor: symbol %d: add-ID(%d,%d) outside 1..%d", idx, v.Existing, v.New, k+1)
			}
			if strict {
				// An add-ID with an unbound source is the release idiom
				// (it unbinds New); it is only suspicious when New is
				// unbound too, making the symbol a complete no-op.
				_, srcOK := tr.Owner(v.Existing)
				_, dstOK := tr.Owner(v.New)
				if !srcOK && !dstOK {
					return fmt.Errorf("descriptor: symbol %d: add-ID(%d,%d) with both IDs unbound", idx, v.Existing, v.New)
				}
			}
		default:
			return fmt.Errorf("descriptor: symbol %d: unknown symbol type %T", idx, sym)
		}
		tr.Apply(sym)
	}
	return nil
}

// MaxID returns the largest ID mentioned anywhere in the stream, i.e. the
// smallest k+1 for which the stream is within ID range.
func (s Stream) MaxID() int {
	max := 0
	upd := func(ids ...int) {
		for _, id := range ids {
			if id > max {
				max = id
			}
		}
	}
	for _, sym := range s {
		switch v := sym.(type) {
		case Node:
			upd(v.ID)
		case Edge:
			upd(v.From, v.To)
		case AddID:
			upd(v.Existing, v.New)
		}
	}
	return max
}
