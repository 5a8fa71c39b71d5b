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

// engineTools are the commands that reproduce the paper's evaluation:
// they drive the simulation engine under internal/ directly, the twin,
// the experiments and the scenario matrix having no public API.
var engineTools = map[string]bool{
	filepath.Join("cmd", "repro"):          true,
	filepath.Join("cmd", "simrun"):         true,
	filepath.Join("cmd", "scenariomatrix"): true,
}

// TestFacadeBoundary: the library's one public surface is this package,
// and the examples and every other command build against it alone, so
// the engine under internal/ stays free to change. Every Go file under
// cmd/ and examples/, tests included, is parsed for its imports; outside
// the engine tools named above, none may import a package of this module
// other than the root.
func TestFacadeBoundary(t *testing.T) {
	const module = "adaptivecast"
	files := 0
	for _, root := range []string{"cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			if engineTools[filepath.Dir(path)] {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			files++
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(p, module+"/") {
					t.Errorf("%s imports %s: outside the engine tools, cmd/ and examples/ use the %s package alone", path, p, module)
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
