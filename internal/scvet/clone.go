package scvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// analyzeClones implements SV002 (clone-incomplete) and SV003
// (clone-unread-field) over every function named Clone or clone, and over
// every CopyFrom method, whose source parameter plays the receiver's part:
// CopyFrom overwrites its receiver with a deep copy of the source, so a
// source field it never reads is state the copy silently keeps stale.
func analyzeClones(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch {
			case strings.ToLower(fd.Name.Name) == "clone":
				out = append(out, lintCloneLiterals(p, fd)...)
				out = append(out, lintCloneReceiver(p, fd)...)
			case fd.Name.Name == "CopyFrom":
				out = append(out, lintCloneLiterals(p, fd)...)
				out = append(out, lintCopyFromSource(p, fd)...)
			}
		}
	}
	return out
}

// walkWithStack traverses the AST keeping the ancestor stack; fn receives
// each node with its ancestors (nearest last).
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// boundVarOf returns the variable a composite literal (or &literal) is
// assigned to, when the parent is a simple one-to-one assignment; ""
// otherwise (nested literals, returns, arguments).
func boundVarOf(lit *ast.CompositeLit, stack []ast.Node) string {
	var child ast.Node = lit
	i := len(stack) - 1
	if i >= 0 {
		if ue, ok := stack[i].(*ast.UnaryExpr); ok && ue.Op == token.AND {
			child = ue
			i--
		}
	}
	if i < 0 {
		return ""
	}
	switch par := stack[i].(type) {
	case *ast.AssignStmt:
		for ri, rhs := range par.Rhs {
			if rhs == child && ri < len(par.Lhs) {
				if id, ok := par.Lhs[ri].(*ast.Ident); ok {
					return id.Name
				}
			}
		}
	case *ast.ValueSpec:
		for vi, v := range par.Values {
			if v == child && vi < len(par.Names) {
				return par.Names[vi].Name
			}
		}
	}
	return ""
}

// enclosingFuncBody returns the body of the innermost function literal on
// the stack, or the fallback (the declaring function's body).
func enclosingFuncBody(stack []ast.Node, fallback *ast.BlockStmt) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if fl, ok := stack[i].(*ast.FuncLit); ok {
			return fl.Body
		}
	}
	return fallback
}

// lintCloneLiterals checks every keyed struct literal inside a clone
// function: the literal's keys plus any later `v.field = ...` assignments
// to the variable it is bound to, within the same (possibly nested)
// function, must cover every field of the struct. An uncovered field is a
// shallow-copy hole: the clone silently zeroes state the original holds.
func lintCloneLiterals(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || len(lit.Elts) == 0 {
			return // empty T{} is an intentional zero value, not a copy
		}
		sn := baseTypeIdent(lit.Type)
		if sn == "" {
			return
		}
		fields, ok := p.Structs[sn]
		if !ok {
			return
		}
		if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
			return // positional literal: the compiler enforces full coverage
		}
		covered := make(map[string]bool)
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if id, ok := kv.Key.(*ast.Ident); ok {
				covered[id.Name] = true
			}
		}
		if v := boundVarOf(lit, stack); v != "" {
			body := enclosingFuncBody(stack, fd.Body)
			ast.Inspect(body, func(m ast.Node) bool {
				as, ok := m.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, lhs := range as.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == v {
						covered[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		var missing []string
		for _, fn := range p.FieldOrder[sn] {
			if !covered[fn] {
				missing = append(missing, fn)
			}
		}
		if len(missing) > 0 {
			sort.Strings(missing)
			out = append(out, Finding{Rule: RuleCloneIncomplete, Pos: p.Fset.Position(lit.Pos()), Msg: fmt.Sprintf(
				"%s literal in %s leaves field(s) %s at their zero value: the clone drops state the original holds",
				sn, fd.Name.Name, strings.Join(missing, ", "))})
		}
		_ = fields
	})
	return out
}

// lintCloneReceiver checks a Clone method mentions every field of its
// receiver's struct type: either as a `recv.field` read, as a key in a
// receiver-type literal, or implicitly via a whole-struct `*recv` copy. A
// never-mentioned field cannot have been copied.
func lintCloneReceiver(p *Package, fd *ast.FuncDecl) []Finding {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return nil
	}
	recv := fd.Recv.List[0].Names[0].Name
	sn := baseTypeIdent(fd.Recv.List[0].Type)
	missing := unmentionedFields(p, fd.Body, recv, sn)
	if len(missing) == 0 {
		return nil
	}
	return []Finding{{Rule: RuleCloneUnread, Pos: p.Fset.Position(fd.Pos()), Msg: fmt.Sprintf(
		"Clone method on %s never mentions field(s) %s: they cannot have been copied",
		sn, strings.Join(missing, ", "))}}
}

// notCopiedMark, in a field's comment, declares a field that CopyFrom
// leaves with the destination (an output sink, reusable storage); the
// source-read rule skips it.
const notCopiedMark = "not copied: destination-owned"

// lintCopyFromSource checks a CopyFrom method reads every field of its
// source, by the same mention rules as lintCloneReceiver, except fields
// marked notCopiedMark. The source is the parameter when it has the
// receiver's type; when the parameter is an interface, it is the variable
// the body type-asserts it into (`s := src.(*T)`).
func lintCopyFromSource(p *Package, fd *ast.FuncDecl) []Finding {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Type.Params == nil || len(fd.Type.Params.List) != 1 {
		return nil
	}
	param := fd.Type.Params.List[0]
	sn := baseTypeIdent(fd.Recv.List[0].Type)
	if len(param.Names) != 1 || sn == "" {
		return nil
	}
	src := param.Names[0].Name
	if baseTypeIdent(param.Type) != sn {
		src = assertedVar(fd.Body, src, sn)
	}
	var missing []string
	for _, f := range unmentionedFields(p, fd.Body, src, sn) {
		if !strings.Contains(p.FieldDocs[sn][f], notCopiedMark) {
			missing = append(missing, f)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	return []Finding{{Rule: RuleCloneUnread, Pos: p.Fset.Position(fd.Pos()), Msg: fmt.Sprintf(
		"CopyFrom method on %s never reads field(s) %s of its source: they cannot have been copied",
		sn, strings.Join(missing, ", "))}}
}

// assertedVar returns the variable that body assigns the type assertion
// v.(*sn) or v.(sn) to, "" when there is none.
func assertedVar(body *ast.BlockStmt, v, sn string) string {
	found := ""
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || found != "" || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
			return found == ""
		}
		ta, ok := as.Rhs[0].(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil || baseTypeIdent(ta.Type) != sn {
			return true
		}
		if x, ok := ta.X.(*ast.Ident); ok && x.Name == v {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				found = id.Name
			}
		}
		return true
	})
	return found
}

// unmentionedFields lists, sorted, the fields of struct sn that body never
// mentions through the variable v: as a `v.field` read, as a key in an sn
// literal, or implicitly via a whole-struct `*v` copy or v handed to a
// helper.
func unmentionedFields(p *Package, body *ast.BlockStmt, v, sn string) []string {
	if v == "" || v == "_" || sn == "" {
		return nil
	}
	fields, ok := p.Structs[sn]
	if !ok || len(fields) == 0 {
		return nil
	}
	recv := v
	mentioned := make(map[string]bool)
	wholeCopy := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := v.X.(*ast.Ident); ok && id.Name == recv {
				mentioned[v.Sel.Name] = true
			}
		case *ast.StarExpr:
			// `cp := *recv` reads every field at once.
			if id, ok := v.X.(*ast.Ident); ok && id.Name == recv {
				wholeCopy = true
			}
		case *ast.CallExpr:
			// The bare receiver handed to a helper (`return deep(r)`) may be
			// copied wholesale there; the method itself proves nothing missing.
			for _, a := range v.Args {
				if id, ok := a.(*ast.Ident); ok && id.Name == recv {
					wholeCopy = true
				}
			}
		case *ast.CompositeLit:
			if baseTypeIdent(v.Type) == sn {
				for _, el := range v.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							mentioned[id.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	if wholeCopy {
		return nil
	}
	var missing []string
	for _, fn := range p.FieldOrder[sn] {
		if !mentioned[fn] {
			missing = append(missing, fn)
		}
	}
	sort.Strings(missing)
	return missing
}
