package adaptivecast

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeBoundary: the engine lives under internal/, and the commands
// and examples build against the facades alone — this package, sim,
// experiments and scenario — so the public surface stays the only
// contract and the engine stays free to change. Every Go file under cmd/
// and examples/, tests included, is parsed for its imports; none may
// name a package under internal/.
func TestFacadeBoundary(t *testing.T) {
	const internal = "adaptivecast/internal/"
	files := 0
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, internal) {
					t.Errorf("%s imports %s: cmd/ and examples/ reach the engine only through the facades", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files == 0 {
		t.Fatal("found no Go files under cmd/ or examples/")
	}
}
