package analyzers

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/vet/analysis"
)

// Fingerprint closes a checkpoint-compatibility loophole of workload
// knobs: a new field on a workload-options struct silently
// changes what a run computes without changing the persisted
// fingerprint, so stale checkpoints and shard files resume under the
// new semantics (or, inverted, a cosmetic knob gratuitously invalidates
// them). Every field must therefore be an explicit decision.
//
// A struct annotated in its doc comment with
//
//	//mbist:fingerprint-source [FuncName]
//
// (FuncName defaults to Fingerprint) must have each field either
//   - referenced inside the package function/method FuncName — the
//     field is folded into the fingerprint (or, for resolver functions
//     like sweep.Spec.Workload, threaded into the fingerprinted
//     form), or
//   - annotated //mbist:fingerprint-exclude <why> in its doc or line
//     comment — the field provably cannot change verdicts.
//
// A field that is both referenced and annotated excluded is also a
// finding: the annotation is stale and lies to the next reader.
var Fingerprint = &analysis.Analyzer{
	Name: "fingerprint",
	Doc:  "workload-option fields must be folded into or excluded from the checkpoint fingerprint",
	Run:  runFingerprint,
}

const (
	fpSourceMarker  = "//mbist:fingerprint-source"
	fpExcludeMarker = "//mbist:fingerprint-exclude"
)

func runFingerprint(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil && len(gd.Specs) == 1 {
					doc = gd.Doc
				}
				fnName, marked := fingerprintSource(doc)
				if !marked {
					continue
				}
				checkFingerprintStruct(pass, ts, st, fnName)
			}
		}
	}
	return nil
}

// fingerprintSource extracts the //mbist:fingerprint-source marker and
// its optional function name from a doc comment.
func fingerprintSource(doc *ast.CommentGroup) (fn string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text, found := strings.CutPrefix(strings.TrimSpace(c.Text), fpSourceMarker)
		if !found {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) > 0 {
			return fields[0], true
		}
		return "Fingerprint", true
	}
	return "", false
}

func checkFingerprintStruct(pass *analysis.Pass, ts *ast.TypeSpec, st *ast.StructType, fnName string) {
	obj := pass.TypesInfo.Defs[ts.Name]
	if obj == nil {
		return
	}
	structType, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	// The field objects, for matching selections in the source function.
	fieldObjs := map[types.Object]*ast.Field{}
	i := 0
	for _, field := range st.Fields.List {
		n := len(field.Names)
		if n == 0 {
			n = 1 // embedded
		}
		for j := 0; j < n; j++ {
			if i < structType.NumFields() {
				fieldObjs[structType.Field(i)] = field
			}
			i++
		}
	}

	fn := findFunc(pass, fnName)
	if fn == nil {
		pass.Reportf(ts.Pos(), "struct %s declares //mbist:fingerprint-source %s but the package has no function %s", ts.Name.Name, fnName, fnName)
		return
	}

	referenced := map[types.Object]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := pass.TypesInfo.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		if _, mine := fieldObjs[s.Obj()]; mine {
			referenced[s.Obj()] = true
		}
		return true
	})

	for i := 0; i < structType.NumFields(); i++ {
		fobj := structType.Field(i)
		field := fieldObjs[fobj]
		if field == nil {
			continue
		}
		excluded := hasMarker(field.Doc, fpExcludeMarker) || hasMarker(field.Comment, fpExcludeMarker)
		switch {
		case referenced[fobj] && excluded:
			pass.Reportf(field.Pos(), "field %s.%s is annotated //mbist:fingerprint-exclude but %s references it — stale annotation", ts.Name.Name, fobj.Name(), fnName)
		case !referenced[fobj] && !excluded:
			pass.Reportf(field.Pos(), "field %s.%s is neither folded into %s nor annotated //mbist:fingerprint-exclude — a new knob must not silently bypass the checkpoint fingerprint", ts.Name.Name, fobj.Name(), fnName)
		}
	}
}

// findFunc returns the package-level function or method named name.
func findFunc(pass *analysis.Pass, name string) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == name {
				return fn
			}
		}
	}
	return nil
}
