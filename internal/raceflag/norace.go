//go:build !race

// Package raceflag tells tests whether the race detector is on. The
// allocation pins (testing.AllocsPerRun) skip under it: a race build's
// sync.Pool drops a quarter of what is put back, on purpose, so a pooled
// path that allocates nothing in production allocates there.
package raceflag

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
