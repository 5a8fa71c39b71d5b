// Package b exercises the runner's suppression contract around the
// test's poke analyzer, which reports every call to poke: a justified
// ignore silences its finding, an unjustified ignore leaves the finding
// alive and is reported itself, a justified ignore that matches nothing
// is reported as stale, and an ignore naming an analyzer outside the run
// set is reported as unknown (the typo'd-suppression failure mode).
package b

func poke() {}

func justified() {
	poke() //adaptivelint:ignore poke -- the call is the point of this fixture
}

func unjustified() {
	poke() //adaptivelint:ignore poke
}

//adaptivelint:ignore poke -- nothing here actually trips the analyzer
func stale() {}

//adaptivelint:ignore pkoe -- misspelled analyzer suppresses nothing
func typo() { stale() }
