// Package ctxfeed keeps context plumbing honest in library code.
//
// The PR-1 API redesign threaded context.Context through the whole feed
// path (FeedContext, ServeContext, ...) so callers can cancel long
// verification runs and attach deadlines. A library function that calls
// context.Background() or context.TODO() silently detaches its subtree
// from that chain: cancellation stops propagating and the caller's
// deadline is ignored, which on a CE2D-scale run means an unkillable
// verifier.
//
// Flagged: any call to context.Background or context.TODO outside
// package main and outside test files. The few library functions that
// genuinely own a root context (the pipeline's drain worker, the
// server's Serve entry point) carry //flashvet:allow ctxfeed directives.
package ctxfeed

import (
	"go/ast"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the ctxfeed pass.
var Analyzer = &framework.Analyzer{
	Name: "ctxfeed",
	Doc:  "flag context.Background()/context.TODO() in library code; contexts must flow from the caller",
	Run:  run,
}

func run(pass *framework.Pass) (any, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil // binaries are where root contexts are born
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Filename(f.FileStart), "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.CalleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				return true
			}
			switch fn.Name() {
			case "Background", "TODO":
				pass.Reportf(call.Pos(), "library code must not call context.%s(); accept a context.Context from the caller so cancellation reaches the verification pipeline", fn.Name())
			}
			return true
		})
	}
	return nil, nil
}
