package broadcast

// FullSnapshotsForTest makes every twin node send the full snapshot each
// period, until the returned restore is called; it is not safe to use
// from parallel tests.
func FullSnapshotsForTest() (restore func()) {
	fullSnapshots = true
	return func() { fullSnapshots = false }
}
