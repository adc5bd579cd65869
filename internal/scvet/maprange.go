package scvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// isEncodingFunc reports whether a function's name marks it as producing a
// canonical encoding or a transition list — the contexts in which map
// iteration order leaks into verification results.
func isEncodingFunc(name string) bool {
	switch name {
	case "CanonicalRename", "Transitions", "Roles":
		return true
	}
	return strings.Contains(strings.ToLower(name), "key")
}

// analyzeMapRange implements SV001: map iteration feeding canonical
// encodings or transition lists.
func analyzeMapRange(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isEncodingFunc(fd.Name.Name) {
				continue
			}
			out = append(out, lintEncodingFunc(p, fd)...)
		}
	}
	return out
}

// funcCtx is the per-function symbol table the syntactic analysis builds:
// which variables have known struct types, which are maps, which
// identifiers are the function's output, and which local callables emit
// into that output.
type funcCtx struct {
	p         *Package
	fd        *ast.FuncDecl
	varStruct map[string]string // var name -> struct type name
	mapVars   map[string]bool   // var name -> declared as a map
	sinks     map[string]bool   // idents the function's output flows through
	sinkCalls map[string]bool   // local funcs/params whose call emits output
}

func newFuncCtx(p *Package, fd *ast.FuncDecl) *funcCtx {
	c := &funcCtx{
		p:         p,
		fd:        fd,
		varStruct: make(map[string]string),
		mapVars:   make(map[string]bool),
		sinks:     make(map[string]bool),
		sinkCalls: make(map[string]bool),
	}
	c.collectBindings()
	c.collectSinks()
	c.collectEmittingClosures()
	return c
}

func (c *funcCtx) bindVar(name string, typ ast.Expr) {
	if name == "" || name == "_" || typ == nil {
		return
	}
	if isMapType(typ) {
		c.mapVars[name] = true
		return
	}
	if id := baseTypeIdent(typ); id != "" {
		if _, ok := c.p.Structs[id]; ok {
			c.varStruct[name] = id
		}
	}
}

func (c *funcCtx) collectBindings() {
	if c.fd.Recv != nil && len(c.fd.Recv.List) == 1 && len(c.fd.Recv.List[0].Names) == 1 {
		c.bindVar(c.fd.Recv.List[0].Names[0].Name, c.fd.Recv.List[0].Type)
	}
	for _, fl := range c.fd.Type.Params.List {
		for _, nm := range fl.Names {
			c.bindVar(nm.Name, fl.Type)
			if _, ok := fl.Type.(*ast.FuncType); ok {
				// A func-typed parameter (emit callbacks, Roles' visit) is an
				// output channel: calling it emits.
				c.sinkCalls[nm.Name] = true
			}
		}
	}
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				c.bindVar(id.Name, exprType(v.Rhs[i]))
			}
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, nm := range vs.Names {
					if vs.Type != nil {
						c.bindVar(nm.Name, vs.Type)
					} else if i < len(vs.Values) {
						c.bindVar(nm.Name, exprType(vs.Values[i]))
					}
				}
			}
		}
		return true
	})
}

// exprType syntactically recovers a type expression from a value
// expression, for the few forms the analysis needs: composite literals,
// &composite literals, make(...), map literals and type assertions.
func exprType(e ast.Expr) ast.Expr {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return v.Type
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return exprType(v.X)
		}
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			return v.Args[0]
		}
	case *ast.TypeAssertExpr:
		return v.Type
	}
	return nil
}

func (c *funcCtx) collectSinks() {
	if res := c.fd.Type.Results; res != nil {
		for _, fl := range res.List {
			for _, nm := range fl.Names {
				c.sinks[nm.Name] = true
			}
		}
	}
	// Only returns of the function itself define its output; descending into
	// nested closures (sort comparators, helpers) would make nearly every
	// local a sink.
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					c.sinks[id.Name] = true
				}
				return true
			})
		}
		return true
	})
}

// collectEmittingClosures finds local `name := func(...) {...}` bindings
// whose bodies emit (directly or through other emitting closures) and adds
// them to sinkCalls, iterating to a fixpoint.
func (c *funcCtx) collectEmittingClosures() {
	type closure struct {
		name string
		body *ast.BlockStmt
	}
	var closures []closure
	ast.Inspect(c.fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		fl, ok := as.Rhs[0].(*ast.FuncLit)
		if !ok {
			return true
		}
		closures = append(closures, closure{name: id.Name, body: fl.Body})
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, cl := range closures {
			if c.sinkCalls[cl.name] {
				continue
			}
			if c.emits(cl.body) {
				c.sinkCalls[cl.name] = true
				changed = true
			}
		}
	}
}

// leftmostIdent unwraps index, selector, star and paren expressions down
// to the base identifier of an lvalue (or value) chain.
func leftmostIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// emits reports whether the node's subtree writes to a sink or calls an
// emitting function.
func (c *funcCtx) emits(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if id := leftmostIdent(lhs); id != nil && c.sinks[id.Name] {
					found = true
					return false
				}
			}
		case *ast.IncDecStmt:
			if id := leftmostIdent(v.X); id != nil && c.sinks[id.Name] {
				found = true
				return false
			}
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok && c.sinkCalls[id.Name] {
				found = true
				return false
			}
		case *ast.ReturnStmt:
			// A return inside the loop (e.g. Transitions' `return out`)
			// publishes whatever was built — treat as emission only if it
			// returns a sink; the sink set already contains those idents, so
			// any append-to-sink was caught above.
			return true
		}
		return true
	})
	return found
}

// resolveStructOf returns the struct type name of an expression, or "".
func (c *funcCtx) resolveStructOf(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return c.varStruct[v.Name]
	case *ast.ParenExpr:
		return c.resolveStructOf(v.X)
	case *ast.StarExpr:
		return c.resolveStructOf(v.X)
	case *ast.SelectorExpr:
		base := c.resolveStructOf(v.X)
		if base == "" {
			return ""
		}
		ft, ok := c.p.Structs[base][v.Sel.Name]
		if !ok {
			return ""
		}
		if id := baseTypeIdent(ft); id != "" {
			if _, ok := c.p.Structs[id]; ok {
				return id
			}
		}
		return ""
	default:
		return ""
	}
}

// isMapExpr reports whether the expression is resolvably map-typed.
func (c *funcCtx) isMapExpr(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.Ident:
		return c.mapVars[v.Name]
	case *ast.ParenExpr:
		return c.isMapExpr(v.X)
	case *ast.SelectorExpr:
		base := c.resolveStructOf(v.X)
		if base == "" {
			return false
		}
		ft, ok := c.p.Structs[base][v.Sel.Name]
		return ok && isMapType(ft)
	default:
		return false
	}
}

// lintEncodingFunc scans one encoding function for map iteration whose
// effects reach the function's output, tracking the sorted-keys idiom:
// a slice filled from a map range is tainted until passed to sort.
func lintEncodingFunc(p *Package, fd *ast.FuncDecl) []Finding {
	c := newFuncCtx(p, fd)

	type event struct {
		pos     token.Pos
		kind    int // 0 taint, 1 untaint, 2 range-over-slice-emitting
		name    string
		finding *Finding
	}
	var events []event
	var out []Finding

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.RangeStmt:
			if c.isMapExpr(v.X) {
				if c.emits(v.Body) {
					pos := p.Fset.Position(v.Pos())
					out = append(out, Finding{Rule: RuleMapRange, Pos: pos, Msg: fmt.Sprintf(
						"map iteration feeds the output of %s: iteration order is random, so the encoding is nondeterministic; collect and sort keys first",
						fd.Name.Name)})
					return true
				}
				// The sorted-keys idiom's first half: slices appended inside
				// this loop are tainted until sorted.
				for _, s := range appendTargets(v.Body) {
					events = append(events, event{pos: v.End(), kind: 0, name: s})
				}
				return true
			}
			// Ranging over a tainted (unsorted, map-derived) slice with
			// emission is the idiom gone wrong.
			if id, ok := v.X.(*ast.Ident); ok && c.emits(v.Body) {
				pos := p.Fset.Position(v.Pos())
				events = append(events, event{pos: v.Pos(), kind: 2, name: id.Name, finding: &Finding{
					Rule: RuleMapRange, Pos: pos, Msg: fmt.Sprintf(
						"iteration over %q, which was filled from a map but never sorted, feeds the output of %s",
						id.Name, fd.Name.Name)}})
			}
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if base, ok := sel.X.(*ast.Ident); ok && isSortCall(base.Name, sel.Sel.Name) && len(v.Args) > 0 {
					if id := leftmostIdent(v.Args[0]); id != nil {
						events = append(events, event{pos: v.Pos(), kind: 1, name: id.Name})
					}
				}
			}
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	tainted := make(map[string]bool)
	for _, ev := range events {
		switch ev.kind {
		case 0:
			tainted[ev.name] = true
		case 1:
			delete(tainted, ev.name)
		case 2:
			if tainted[ev.name] {
				out = append(out, *ev.finding)
			}
		}
	}
	return out
}

// isSortCall reports whether pkg.fn sorts its first argument in place:
// anything in package sort, or one of package slices' Sort functions.
func isSortCall(pkg, fn string) bool {
	return pkg == "sort" || pkg == "slices" && strings.HasPrefix(fn, "Sort")
}

// appendTargets lists the names of slices grown via `s = append(s, ...)`
// inside the node.
func appendTargets(node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
			out = append(out, id.Name)
		}
		return true
	})
	return out
}
