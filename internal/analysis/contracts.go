package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file centralizes the repo's hot-path contract surface — the
// function sets the analyzers key on — so a future PR that adds a decoder
// or pool entry point extends the checks by editing one table.

// wirePkg and blockPkg are the packages owning the buffer-ownership and
// aliasing contracts (see internal/wire/pool.go and the internal/block
// package comment).
const (
	wirePkg  = "bmac/internal/wire"
	blockPkg = "bmac/internal/block"
)

// aliasingDecoders maps package path → function names whose results alias
// the input buffer (the zero-copy decode contract). UnmarshalCopy is the
// deliberate omission: it detaches the result and is the escape hatch
// aliasguard steers callers toward.
var aliasingDecoders = map[string]map[string]bool{
	blockPkg: {
		"Unmarshal":                        true,
		"UnmarshalEnvelope":                true,
		"UnmarshalHeader":                  true,
		"UnmarshalTransactionPayload":      true,
		"UnmarshalProposalResponsePayload": true,
		"UnmarshalChaincodeAction":         true,
		"UnmarshalRWSet":                   true,
		"UnmarshalSignatureHeader":         true,
		"UnmarshalChannelHeader":           true,
		"NewTxView":                        true,
	},
}

// poolGet / poolPut are the marshal-buffer pool entry points whose
// ownership contract aliasguard enforces.
var (
	poolGet = funcRef{wirePkg, "GetBuf"}
	poolPut = funcRef{wirePkg, "PutBuf"}
)

// funcRef names a package-level function.
type funcRef struct {
	pkg, name string
}

// calleeObject resolves the called function or method object of a call
// expression, or nil when the callee is dynamic (func values, builtins
// resolve to nil too unless named).
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			return sel.Obj()
		}
		// Package-qualified call: wire.PutBuf(...).
		return info.Uses[fun.Sel]
	}
	return nil
}

// isCallTo reports whether call invokes the named package-level function.
func isCallTo(info *types.Info, call *ast.CallExpr, ref funcRef) bool {
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == ref.pkg && fn.Name() == ref.name
}

// aliasingDecoderName returns the qualified name of the aliasing decoder
// a call invokes, or "" when the call is not one.
func aliasingDecoderName(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObject(info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	names := aliasingDecoders[fn.Pkg().Path()]
	if names == nil || !names[fn.Name()] {
		return ""
	}
	return shortPkg(fn.Pkg().Path()) + "." + fn.Name()
}

// shortPkg abbreviates an import path to its final element for messages.
func shortPkg(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// funcDisplayName renders a *types.Func for diagnostics:
// pkg.Name for functions, (pkg.Recv).Name for methods.
func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), shortQualifier), fn.Name())
	}
	if fn.Pkg() != nil {
		return shortPkg(fn.Pkg().Path()) + "." + fn.Name()
	}
	return fn.Name()
}

func shortQualifier(p *types.Package) string { return shortPkg(p.Path()) }
