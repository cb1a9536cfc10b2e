package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/vet/analysis"
)

// HotPathAlloc enforces the grading pipeline's steady-state allocation
// budget (BENCH_pr8.json pins BenchmarkGradeLane at 11 allocs/op, all
// of them setup): a function annotated
//
//	//mbist:hotpath
//
// in its doc comment is an inner loop of the grade/replay/settle
// machinery and may not contain allocating constructs. Flagged inside
// an annotated function:
//
//   - make/new and slice- or map-typed composite literals
//   - closures (func literals) and go statements
//   - defer inside a loop (deferred frames allocate per iteration)
//   - calls into package fmt and non-constant string concatenation
//   - append that grows anything but a caller-supplied buffer (the
//     first append argument must resolve to a parameter, the receiver
//     or one of their fields — the scratch-reuse pattern ReadLanes and
//     CompiledStream.project use)
//   - interface boxing: a non-pointer-shaped concrete value passed or
//     converted to an interface
//
// Two escapes keep the annotation honest rather than aspirational:
// allocation inside a panic(...) argument or inside a return statement
// is cold by construction (the replay is aborting) and is not flagged,
// and a deliberate exception carries //mbist:exempt hotpathalloc with
// a reason.
var HotPathAlloc = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "report allocating constructs inside //mbist:hotpath functions",
	Run:  runHotPathAlloc,
}

const hotpathMarker = "//mbist:hotpath"

func runHotPathAlloc(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasMarker(fn.Doc, hotpathMarker) {
				continue
			}
			params := paramObjects(pass, fn)
			w := &hotpathWalker{pass: pass, params: params}
			w.walk(fn.Body, 0)
		}
	}
	return nil
}

func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == marker || strings.HasPrefix(text, marker+" ") {
			return true
		}
	}
	return false
}

// paramObjects collects the declared objects of fn's parameters
// (including the receiver): the only things append may grow.
func paramObjects(pass *analysis.Pass, fn *ast.FuncDecl) map[types.Object]bool {
	objs := map[types.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					objs[obj] = true
				}
			}
		}
	}
	add(fn.Recv)
	add(fn.Type.Params)
	return objs
}

type hotpathWalker struct {
	pass   *analysis.Pass
	params map[types.Object]bool
}

// walk descends stmt-by-stmt; loopDepth tracks enclosing for/range
// statements for the defer rule.
func (w *hotpathWalker) walk(n ast.Node, loopDepth int) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Recurse manually so the loop body sees loopDepth+1.
			var body *ast.BlockStmt
			switch l := n.(type) {
			case *ast.ForStmt:
				if l.Init != nil {
					w.walk(l.Init, loopDepth)
				}
				if l.Cond != nil {
					w.walk(l.Cond, loopDepth)
				}
				if l.Post != nil {
					w.walk(l.Post, loopDepth)
				}
				body = l.Body
			case *ast.RangeStmt:
				if l.X != nil {
					w.walk(l.X, loopDepth)
				}
				body = l.Body
			}
			w.walk(body, loopDepth+1)
			return false
		case *ast.ReturnStmt:
			// Cold: the function is exiting (error construction lives
			// here by design).
			return false
		case *ast.DeferStmt:
			if loopDepth > 0 {
				w.pass.Reportf(n.Pos(), "defer inside a loop in a //mbist:hotpath function allocates per iteration")
			}
			return false
		case *ast.GoStmt:
			w.pass.Reportf(n.Pos(), "go statement in a //mbist:hotpath function allocates a goroutine")
			return false
		case *ast.FuncLit:
			w.pass.Reportf(n.Pos(), "closure in a //mbist:hotpath function allocates")
			return false
		case *ast.CompositeLit:
			if t := w.pass.TypesInfo.Types[n].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					w.pass.Reportf(n.Pos(), "%s literal in a //mbist:hotpath function allocates", kindName(t))
				}
			}
		case *ast.CallExpr:
			if isPanicCall(n) {
				// Cold: panic arguments may format freely.
				return false
			}
			w.checkCall(n)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && w.isNonConstString(n) {
				w.pass.Reportf(n.Pos(), "string concatenation in a //mbist:hotpath function allocates")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && w.isNonConstString(n.Lhs[0]) {
				w.pass.Reportf(n.Pos(), "string concatenation in a //mbist:hotpath function allocates")
			}
		}
		return true
	})
}

func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

func (w *hotpathWalker) isNonConstString(e ast.Expr) bool {
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func (w *hotpathWalker) checkCall(call *ast.CallExpr) {
	// Builtins: make, new, append.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj, isBuiltin := w.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch obj.Name() {
			case "make", "new":
				w.pass.Reportf(call.Pos(), "%s in a //mbist:hotpath function allocates", obj.Name())
			case "append":
				if len(call.Args) > 0 && !w.isParamBacked(call.Args[0]) {
					w.pass.Reportf(call.Pos(), "append grows a non-parameter buffer in a //mbist:hotpath function (thread a caller-supplied scratch slice)")
				}
			}
			return
		}
	}
	// Calls into package fmt.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := w.pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			w.pass.Reportf(call.Pos(), "fmt.%s in a //mbist:hotpath function allocates", sel.Sel.Name)
			return
		}
	}
	// Interface boxing at the call site: a concrete, non-pointer-shaped
	// argument passed to an interface parameter.
	sig := w.callSignature(call)
	if sig == nil {
		// A conversion, not a call: T(x) with interface T boxes.
		if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			if types.IsInterface(tv.Type) && len(call.Args) == 1 && w.boxes(call.Args[0]) {
				w.pass.Reportf(call.Pos(), "conversion to interface in a //mbist:hotpath function boxes (allocates)")
			}
		}
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // passing a slice through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(pt) && w.boxes(arg) {
			w.pass.Reportf(arg.Pos(), "argument boxes into interface parameter in a //mbist:hotpath function (allocates)")
		}
	}
}

// isParamBacked reports whether e is (a slice or field of) a parameter
// or the receiver of the annotated function — a caller-owned buffer
// (ReadLanes' dst, LaneInjected's preallocated dirtyList) that append
// may grow without a steady-state allocation.
func (w *hotpathWalker) isParamBacked(e ast.Expr) bool {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return w.params[w.pass.TypesInfo.Uses[v]]
		case *ast.SliceExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		default:
			return false
		}
	}
}

// boxes reports whether passing e to an interface allocates: true for
// concrete values that are not pointer-shaped and not the nil constant.
func (w *hotpathWalker) boxes(e ast.Expr) bool {
	tv, ok := w.pass.TypesInfo.Types[e]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	t := tv.Type
	if types.IsInterface(t) {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}

func (w *hotpathWalker) callSignature(call *ast.CallExpr) *types.Signature {
	tv, ok := w.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}
