// Package aliascheck flags retaining or mutating a *packet.Packet after it
// has been handed to the fabric.
//
// Once a packet is enqueued (Wire.Deliver, a scheduler's Enqueue/pushData/
// pushCtrl, Host.QueueCtrl, Receiver.Receive, Transport.Handle) the fabric
// owns it: switches mutate packets in place (trimming, ECN marking,
// BufIngress accounting), so a caller that keeps writing to the pointer —
// or hands the same pointer out a second time — silently corrupts
// in-flight state. The canonical ordering is mutate-then-enqueue.
//
// Release (packet.FreeList.Release) ends a packet's life: the list hands
// the same packet to its next draw, so after a release every mention of
// the packet is flagged, field reads included.
//
// The check is intraprocedural and deliberately conservative: after an
// unconditional handoff statement, any later statement in the same block
// (or nested blocks) that writes a field of the packet, calls a method on
// it, passes it to another call, returns it, or stores it somewhere is
// flagged. Reading fields stays legal (the single-threaded engine only
// mutates the packet once a later event fires). Audited exceptions use
// //lint:allow aliascheck <reason>.
package aliascheck

import (
	"go/ast"
	"go/types"

	"dcpsim/internal/lint"
)

// Analyzer is the aliascheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "aliascheck",
	Doc:  "flag use of a *packet.Packet after it has been handed to the fabric (Enqueue/Deliver/Inject/QueueCtrl/...) or released to its free list",
	Run:  run,
}

const packetPath = "dcpsim/internal/packet"

// handoffNames are callee names that transfer packet ownership.
var handoffNames = map[string]bool{
	"Enqueue": true, "Deliver": true, "Inject": true, "QueueCtrl": true,
	"Receive": true, "Handle": true, "pushData": true, "pushCtrl": true,
	releaseName: true,
}

// releaseName is the handoff that returns a packet to its free list.
const releaseName = "Release"

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		lint.WalkStmtLists(f, func(list []ast.Stmt) {
			checkList(pass, list)
		})
	}
	return nil
}

// checkList scans one statement list: every unconditional handoff makes
// the packet object "hot" for the remaining statements.
func checkList(pass *lint.Pass, list []ast.Stmt) {
	hot := make(map[types.Object]string) // packet object -> handoff callee
	for _, s := range list {
		if len(hot) > 0 {
			checkUse(pass, s, hot)
		}
		if callee, objs := handoff(pass, s); callee != "" {
			for _, o := range objs {
				hot[o] = callee
			}
		}
	}
}

// handoff recognizes an ExprStmt calling a handoff-named function with at
// least one bare *packet.Packet identifier argument, returning the callee
// name and the packet objects handed over.
func handoff(pass *lint.Pass, s ast.Stmt) (string, []types.Object) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return "", nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", nil
	}
	var name string
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	case *ast.Ident:
		name = fun.Name
	default:
		return "", nil
	}
	if !handoffNames[name] {
		return "", nil
	}
	var objs []types.Object
	for _, a := range call.Args {
		id, ok := a.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.Uses[id]
		if obj == nil || !lint.IsPtrToNamed(obj.Type(), packetPath, "Packet") {
			continue
		}
		objs = append(objs, obj)
	}
	if len(objs) == 0 {
		return "", nil
	}
	return name, objs
}

// checkUse flags order-violating uses of hot packets within stmt.
func checkUse(pass *lint.Pass, stmt ast.Stmt, hot map[types.Object]string) {
	if checkReleased(pass, stmt, hot) {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj, root := hotRoot(pass, lhs, hot); obj != nil {
					pass.Reportf(lhs.Pos(), "mutates %s after it was handed to %s; post-enqueue mutation corrupts in-flight state (mutate before enqueueing)", obj.Name(), hot[obj])
					_ = root
				}
				// Reassigning the variable itself retires the old packet.
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						delete(hot, obj)
					}
				}
			}
			for _, rhs := range n.Rhs {
				checkEscape(pass, rhs, hot)
			}
			return false
		case *ast.IncDecStmt:
			if obj, _ := hotRoot(pass, n.X, hot); obj != nil {
				pass.Reportf(n.Pos(), "mutates %s after it was handed to %s; post-enqueue mutation corrupts in-flight state (mutate before enqueueing)", obj.Name(), hot[obj])
			}
			return false
		case *ast.CallExpr:
			// Method call on a hot packet (p.Trim(), p.Bounce(), ...).
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj := bareHotIdent(pass, sel.X, hot); obj != nil {
					pass.Reportf(n.Pos(), "calls %s.%s after %s was handed to %s; mutate before enqueueing", obj.Name(), sel.Sel.Name, obj.Name(), hot[obj])
				}
			}
			for _, a := range n.Args {
				if obj := bareHotIdent(pass, a, hot); obj != nil {
					pass.Reportf(a.Pos(), "passes %s to another call after it was handed to %s; the fabric owns the packet now", obj.Name(), hot[obj])
				}
			}
			return true
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				checkEscape(pass, e, hot)
			}
			return false
		}
		return true
	})
}

// checkReleased flags every mention in stmt of a packet released earlier
// in the block and reports whether it found one. Assigning the variable
// itself is not a mention: it retires the released packet.
func checkReleased(pass *lint.Pass, stmt ast.Stmt, hot map[types.Object]string) bool {
	found := false
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				ast.Inspect(rhs, visit)
			}
			for _, lhs := range n.Lhs {
				if id, bare := lhs.(*ast.Ident); !bare {
					ast.Inspect(lhs, visit)
				} else if obj := pass.Info.Uses[id]; obj != nil && hot[obj] == releaseName {
					delete(hot, obj)
				}
			}
			return false
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil && hot[obj] == releaseName {
				pass.Reportf(n.Pos(), "uses %s after it was released; its free list hands it to the next draw", obj.Name())
				found = true
			}
		}
		return true
	}
	ast.Inspect(stmt, visit)
	return found
}

// checkEscape flags a bare hot packet identifier escaping through an
// expression (stored, returned, or passed along).
func checkEscape(pass *lint.Pass, e ast.Expr, hot map[types.Object]string) {
	ast.Inspect(e, func(n ast.Node) bool {
		// A method call on a hot packet is not a read even though its
		// receiver is a selector base.
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if obj := bareHotIdent(pass, sel.X, hot); obj != nil {
					pass.Reportf(call.Pos(), "calls %s.%s after %s was handed to %s; mutate before enqueueing", obj.Name(), sel.Sel.Name, obj.Name(), hot[obj])
				}
			}
		}
		// Selector bases are reads (p.Size), which are legal.
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if _, isIdent := sel.X.(*ast.Ident); isIdent {
				return false
			}
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil {
				if callee, isHot := hot[obj]; isHot && lint.IsPtrToNamed(obj.Type(), packetPath, "Packet") {
					pass.Reportf(id.Pos(), "retains %s after it was handed to %s; the fabric owns the packet now", obj.Name(), callee)
				}
			}
		}
		return true
	})
}

// hotRoot returns the hot packet object an assignment target dereferences
// (p.Field, *p, p.Field[i], ...), or nil.
func hotRoot(pass *lint.Pass, e ast.Expr, hot map[types.Object]string) (types.Object, ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if obj := bareHotIdent(pass, x.X, hot); obj != nil {
				return obj, x
			}
			e = x.X
		case *ast.StarExpr:
			if obj := bareHotIdent(pass, x.X, hot); obj != nil {
				return obj, x
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil, nil
		}
	}
}

// bareHotIdent returns the object when e is a bare identifier naming a hot
// *packet.Packet.
func bareHotIdent(pass *lint.Pass, e ast.Expr, hot map[types.Object]string) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil
	}
	if _, isHot := hot[obj]; !isHot {
		return nil
	}
	return obj
}
