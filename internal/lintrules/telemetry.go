package lintrules

import (
	"go/ast"
	"go/types"
	"strings"
)

// Telemetry is the AST-accurate replacement for the old grep-based
// `time.Since` lint in scripts/verify.sh. In files marked
// //vetsim:instrumented it enforces the observability discipline PR 4
// established:
//
//   - phase timing goes through telemetry.StartTimer/Stop, never a raw
//     time.Since delta (which would bypass the registry and its
//     disabled-mode semantics);
//   - a span that is started (StartSpan / Child) must be ended in the
//     same function, or handed off visibly (returned, stored, passed
//     on) — a leaked span corrupts the flight recorder's tree;
//   - a span started in a nested block (an if, loop or case body) must
//     not defer its End: the deferred call runs at function return, so
//     the span would wrap the rest of the function, not its block;
//   - metric handles (Registry.Counter/Gauge/Histogram) must not be
//     created inside loops: registration takes the registry lock and
//     allocates, so handles belong in package-level vars.
var Telemetry = &Analyzer{
	Name: "telemetry",
	Doc:  "instrumented files must time via telemetry.Timer, end every span, and hoist handle creation out of loops",
	Run:  runTelemetry,
}

// telemetryPkg reports whether an import path is the telemetry package
// (the repo's internal/telemetry, or a fixture package named telemetry).
func telemetryPkg(path string) bool {
	return path == "telemetry" || strings.HasSuffix(path, "/telemetry")
}

func runTelemetry(pass *Pass) error {
	for _, f := range pass.Files {
		if !pass.FileHasDirective(f.Pos(), "instrumented") {
			continue
		}
		checkTimeSince(pass, f)
		checkHandleCreation(pass, f)
		walkFuncs(f, func(stack []funcCtx) {
			checkSpanEnds(pass, stack[len(stack)-1])
		})
	}
	return nil
}

func checkTimeSince(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeFunc(pass.Info, call); funcIs(fn, "time", "Since") {
			pass.Reportf(call.Pos(), "raw time.Since in instrumented file: time phases via telemetry.StartTimer/Stop so the registry sees them")
		}
		return true
	})
}

// checkHandleCreation flags Registry.Counter/Gauge/Histogram calls made
// under a loop, including inside function literals defined in the loop
// body.
func checkHandleCreation(pass *Pass, f *ast.File) {
	var walk func(n ast.Node, loopDepth int) bool
	walk = func(n ast.Node, loopDepth int) bool {
		switch s := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			ast.Inspect(s, func(c ast.Node) bool {
				if c == s {
					return true
				}
				return walk(c, loopDepth+1)
			})
			return false
		case *ast.CallExpr:
			fn := calleeFunc(pass.Info, s)
			if fn == nil || fn.Pkg() == nil || !telemetryPkg(fn.Pkg().Path()) {
				return true
			}
			switch fn.Name() {
			case "Counter", "Gauge", "Histogram":
				if loopDepth > 0 {
					pass.Reportf(s.Pos(), "telemetry handle %s created inside a loop: registration locks and allocates; hoist to a package-level var", fn.Name())
				}
			}
		}
		return true
	}
	ast.Inspect(f, func(n ast.Node) bool { return walk(n, 0) })
}

// checkSpanEnds verifies that every span started in a function body is
// ended there or visibly escapes.
func checkSpanEnds(pass *Pass, fc funcCtx) {
	if fc.body == nil {
		return
	}
	type startedSpan struct {
		id  *ast.Ident
		pos ast.Node
	}
	var spans []startedSpan
	inspectShallow(fc.body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || !telemetryPkg(fn.Pkg().Path()) {
			return true
		}
		if fn.Name() != "StartSpan" && fn.Name() != "Child" {
			return true
		}
		if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok && id.Name != "_" {
			spans = append(spans, startedSpan{id: id, pos: as})
		}
		return true
	})
	for _, sp := range spans {
		obj := objectOf(pass.Info, sp.id)
		if obj == nil {
			continue
		}
		ended, escapes := false, false
		ast.Inspect(fc.body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
					if root := rootIdent(sel.X); root != nil && objectOf(pass.Info, root) == obj {
						ended = true
					}
				}
				for _, arg := range e.Args {
					if root := rootIdent(arg); root != nil && objectOf(pass.Info, root) == obj {
						escapes = true
					}
				}
			case *ast.ReturnStmt:
				for _, res := range e.Results {
					if root := rootIdent(res); root != nil && objectOf(pass.Info, root) == obj {
						escapes = true
					}
				}
			case *ast.AssignStmt:
				if e == sp.pos {
					return true
				}
				for _, rhs := range e.Rhs {
					if root := rootIdent(rhs); root != nil && objectOf(pass.Info, root) == obj {
						escapes = true
					}
				}
			}
			return true
		})
		if !ended && !escapes {
			pass.Reportf(sp.id.Pos(), "span %q is started but never ended in this function: call %s.End() (usually deferred) or hand the span off", sp.id.Name, sp.id.Name)
		}
		if !inBlock(fc.body, sp.pos) {
			checkNestedDefer(pass, fc.body, sp.id, obj)
		}
	}
}

// inBlock reports whether stmt is one of the block's own statements.
func inBlock(b *ast.BlockStmt, stmt ast.Node) bool {
	for _, s := range b.List {
		if s == stmt {
			return true
		}
	}
	return false
}

// checkNestedDefer flags `defer sp.End()` for a span started in a nested
// block of the function body.
func checkNestedDefer(pass *Pass, body *ast.BlockStmt, id *ast.Ident, obj types.Object) {
	inspectShallow(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(d.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "End" {
			if root := rootIdent(sel.X); root != nil && objectOf(pass.Info, root) == obj {
				pass.Reportf(d.Pos(), "span %q is started in a nested block but its End is deferred to function return: call %s.End() at the end of the block", id.Name, id.Name)
			}
		}
		return true
	})
}
