// Package leakcheck fails a test binary that leaves this module's
// goroutines running, or a pooled value out of its pool (see
// pool.Outstanding). Call Main from the package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// A goroutine belongs to the module when one of its frames, or the
// statement that started it, is a function of the module; goroutines of
// the runtime and of the testing package are not counted.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"adaptivecast/internal/pool"
)

// module is the module path, the prefix of its functions' names in a
// stack trace: "adaptivecast." in the root package, "adaptivecast/"
// below it.
const module = "adaptivecast"

// deadline bounds how long Main waits for goroutines to exit after the
// last test. Stopping a node or closing a transport joins its
// goroutines, so a clean binary has none left on the first look.
const deadline = 5 * time.Second

// Main runs the tests, then polls until none of the module's goroutines
// is left and every pooled value is back, or the deadline passes. It
// exits with the tests' status, or 1 after printing the stacks of the
// goroutines still running and the pooled values still out.
func Main(m *testing.M) {
	code := m.Run()
	end := time.Now().Add(deadline)
	left, out := Running(), pool.Outstanding()
	for len(left)+len(out) > 0 && time.Now().Before(end) {
		time.Sleep(10 * time.Millisecond)
		left, out = Running(), pool.Outstanding()
	}
	if len(left) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) left running after the tests:\n\n%s\n",
			len(left), strings.Join(left, "\n\n"))
		code = 1
	}
	if len(out) > 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: pooled values never put back after the tests: %s\n",
			strings.Join(out, ", "))
		code = 1
	}
	os.Exit(code)
}

// Running returns the stack of every goroutine running the module's
// code, the caller's own excepted.
func Running() []string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// Goroutines are separated by a blank line, the caller's first.
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		if ours(g) {
			out = append(out, g)
		}
	}
	return out
}

// ours reports whether a goroutine's stack names a function of the
// module. Function lines start in column 0; file lines are indented.
func ours(stack string) bool {
	for _, line := range strings.Split(stack, "\n") {
		line = strings.TrimPrefix(line, "created by ")
		if strings.HasPrefix(line, module+".") || strings.HasPrefix(line, module+"/") {
			return true
		}
	}
	return false
}
