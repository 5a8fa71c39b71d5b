package adaptivecast

import (
	"testing"

	"adaptivecast/internal/leakcheck"
)

// TestMain fails the binary when a test leaves one of the module's
// goroutines running (see leakcheck).
func TestMain(m *testing.M) { leakcheck.Main(m) }
