package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// AllocBound verifies that functions annotated `// bmaclint:noalloc`
// are allocation-free, by parsing the compiler's own escape analysis
// (`go build -gcflags=-m`) — the static complement of the dynamic
// allocs/op gate in scripts/benchgate.sh. Every "escapes to heap" /
// "moved to heap" decision landing inside an annotated function's body
// is a finding, with two escape hatches:
//
//   - a line carrying `bmaclint:allow allocbound (reason)` is exempt —
//     the cold-path pattern (an undersized pooled buffer regrown, cache
//     miss inserts);
//   - allocations inside a call to fmt.Errorf or errors.New are exempt
//     wholesale: error construction is the cold path by convention, and
//     boxing operands into an error inherently allocates.
//
// The check is per-body: a callee's allocations are attributed to the
// callee's lines, so annotate the whole hot path, not just its root.
// Results come straight from the build cache — the compiler's
// diagnostics are replayed on cache hits, so a clean re-run costs one
// cached `go build`.
var AllocBound = &Analyzer{
	Name: "allocbound",
	Doc: "functions annotated bmaclint:noalloc must be allocation-free " +
		"per the compiler's escape analysis (go build -gcflags=-m)",
	RunModule: runAllocBound,
}

// escapeLineRe matches one compiler diagnostic: path:line:col: message.
var escapeLineRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.+)$`)

// noallocTarget is one annotated function.
type noallocTarget struct {
	pkg        *LoadedPackage
	fd         *ast.FuncDecl
	file       string // absolute path
	start, end int    // body line range, inclusive
}

func runAllocBound(mp *ModulePass) error {
	var targets []noallocTarget
	dirSeen := map[string]bool{}
	var dirs []string
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !strings.Contains(commentText(fd.Doc), markerNoAlloc) {
					continue
				}
				start := mp.Fset.Position(fd.Pos())
				end := mp.Fset.Position(fd.End())
				targets = append(targets, noallocTarget{
					pkg:   pkg,
					fd:    fd,
					file:  absPath(start.Filename),
					start: start.Line,
					end:   end.Line,
				})
				if !dirSeen[pkg.Dir] {
					dirSeen[pkg.Dir] = true
					dirs = append(dirs, pkg.Dir)
				}
			}
		}
	}
	if len(targets) == 0 {
		return nil
	}

	root := findModuleRoot(dirs[0])
	args := []string{"build", "-gcflags=-m"}
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return fmt.Errorf("allocbound: %w", err)
		}
		args = append(args, "./"+filepath.ToSlash(rel))
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("allocbound: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}

	for _, line := range strings.Split(stderr.String(), "\n") {
		m := escapeLineRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		lineNo, _ := strconv.Atoi(m[2])
		colNo, _ := strconv.Atoi(m[3])
		for i := range targets {
			t := &targets[i]
			if t.file != file || lineNo < t.start || lineNo > t.end {
				continue
			}
			pos := posAt(mp.Fset, t.fd, lineNo, colNo)
			if pos == token.NoPos {
				continue
			}
			if mp.lineHasMarker(pos, markerAllow, "allocbound") {
				continue
			}
			if inErrorConstruction(t.pkg.Info, t.fd, pos) {
				continue
			}
			mp.Reportf(pos, "heap allocation in %s function %s: %s; move it off the hot path or annotate the line with // %s allocbound (reason)",
				markerNoAlloc, funcDisplayName(funcOf(t.pkg, t.fd)), msg, markerAllow)
		}
	}
	return nil
}

// funcOf resolves a declaration back to its types.Func.
func funcOf(pkg *LoadedPackage, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return fn
}

// posAt converts a (line, col) pair inside fd's file to a token.Pos.
func posAt(fset *token.FileSet, fd *ast.FuncDecl, line, col int) token.Pos {
	tf := fset.File(fd.Pos())
	if tf == nil || line < 1 || line > tf.LineCount() {
		return token.NoPos
	}
	pos := tf.LineStart(line) + token.Pos(col-1)
	if pos > token.Pos(tf.Base()+tf.Size()) {
		return tf.LineStart(line)
	}
	return pos
}

// inErrorConstruction reports whether pos lies inside a call to
// fmt.Errorf or errors.New within fd — the cold error path.
func inErrorConstruction(info *types.Info, fd *ast.FuncDecl, pos token.Pos) bool {
	inside := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if inside {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || pos < call.Pos() || pos >= call.End() {
			return true
		}
		fn, ok := calleeObject(info, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "fmt":
			inside = fn.Name() == "Errorf"
		case "errors":
			inside = fn.Name() == "New"
		}
		return !inside
	})
	return inside
}

// findModuleRoot walks up from dir to the directory containing go.mod.
func findModuleRoot(dir string) string {
	d := dir
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return dir
		}
		d = parent
	}
}

// absPath best-effort resolves p to an absolute path.
func absPath(p string) string {
	if abs, err := filepath.Abs(p); err == nil {
		return abs
	}
	return p
}
