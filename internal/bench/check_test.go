package main

import (
	"strings"
	"testing"
	"time"

	"adaptivecast"
)

// issueOne opens one broadcast from process 0 in the ledger and returns
// what the processes should deliver.
func issueOne(t *testing.T, ck *checker, seq uint64, deadline time.Duration) adaptivecast.Delivery {
	t.Helper()
	_, rec, body, err := ck.begin(0, ck.now(), deadline, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	ck.issued(rec, adaptivecast.Receipt{Origin: 0, Seq: seq, Planned: 3}, nil)
	return adaptivecast.Delivery{Origin: 0, Seq: seq, From: 0, Body: body}
}

func deliverTo(ck *checker, d adaptivecast.Delivery, nodes ...int) {
	for _, n := range nodes {
		ck.deliver(n, d)
	}
}

func newTestChecker(t *testing.T) *checker {
	t.Helper()
	ck, err := newChecker(4, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

func wantProblem(t *testing.T, v verdict, substr string) {
	t.Helper()
	if v.ok() {
		t.Fatalf("verdict passed, want a problem containing %q", substr)
	}
	if !strings.Contains(strings.Join(v.problems, "\n"), substr) {
		t.Fatalf("problems %q lack %q", v.problems, substr)
	}
}

// TestCheckerNegativeControls feeds the checker each violation the
// benchmark claims to catch and expects the run to fail — and a clean
// ledger to pass.
func TestCheckerNegativeControls(t *testing.T) {
	const k = adaptivecast.DefaultK

	t.Run("clean", func(t *testing.T) {
		ck := newTestChecker(t)
		deliverTo(ck, issueOne(t, ck, 1, time.Second), 0, 1, 2, 3)
		deliverTo(ck, issueOne(t, ck, 2, time.Second), 3, 2, 1, 0)
		v := ck.finish(systemDrops{}).judge(k, true)
		if !v.ok() || v.attempted != 2 || v.failed != 0 || v.lost != 0 {
			t.Fatalf("clean ledger: %+v", v)
		}
	})
	t.Run("duplicate delivery", func(t *testing.T) {
		ck := newTestChecker(t)
		deliverTo(ck, issueOne(t, ck, 1, time.Second), 0, 1, 2, 2, 3)
		wantProblem(t, ck.finish(systemDrops{}).judge(k, true), "duplicate")
	})
	t.Run("corrupted body", func(t *testing.T) {
		ck := newTestChecker(t)
		d := issueOne(t, ck, 1, time.Second)
		deliverTo(ck, d, 0, 1, 2)
		bad := d
		bad.Body = append([]byte(nil), d.Body...)
		bad.Body[bodySize-1] ^= 0x01
		deliverTo(ck, bad, 3)
		wantProblem(t, ck.finish(systemDrops{}).judge(k, true), "corrupted")
	})
	t.Run("never issued", func(t *testing.T) {
		ck := newTestChecker(t)
		body := make([]byte, bodySize)
		bodyFor(body, 7, 99)
		deliverTo(ck, adaptivecast.Delivery{Origin: 0, Seq: 1, Body: body}, 1)
		wantProblem(t, ck.finish(systemDrops{}).judge(k, true), "never issued")
	})
	t.Run("two sequence numbers", func(t *testing.T) {
		ck := newTestChecker(t)
		d := issueOne(t, ck, 1, time.Second)
		d.Seq = 2
		deliverTo(ck, d, 1)
		wantProblem(t, ck.finish(systemDrops{}).judge(k, true), "sequence")
	})
	t.Run("late completion", func(t *testing.T) {
		ck := newTestChecker(t)
		d := issueOne(t, ck, 1, time.Microsecond)
		time.Sleep(2 * time.Millisecond)
		deliverTo(ck, d, 0, 1, 2, 3)
		v := ck.finish(systemDrops{}).judge(k, true)
		wantProblem(t, v, "failed")
		if v.failed != 1 {
			t.Fatalf("failed = %d, want 1", v.failed)
		}
	})
	t.Run("lost over budget", func(t *testing.T) {
		ck := newTestChecker(t)
		for seq := uint64(1); seq <= 3; seq++ {
			deliverTo(ck, issueOne(t, ck, seq, time.Second), 0, 1, 2) // process 3 never delivers
		}
		v := ck.finish(systemDrops{}).judge(k, true)
		wantProblem(t, v, "lost")
		if v.lost != 3 || v.failed != 0 {
			t.Fatalf("lost = %d failed = %d, want 3 and 0", v.lost, v.failed)
		}
	})
	t.Run("incomplete with a system drop", func(t *testing.T) {
		ck := newTestChecker(t)
		deliverTo(ck, issueOne(t, ck, 1, time.Second), 0, 1, 2)
		v := ck.finish(systemDrops{overflows: 1}).judge(k, true)
		wantProblem(t, v, "failed")
		if v.lost != 0 || v.failed != 1 {
			t.Fatalf("lost = %d failed = %d, want 0 and 1", v.lost, v.failed)
		}
	})
}

func TestBinomialBound(t *testing.T) {
	if got := binomialBound(0, 1e-4, 0.999); got != 0 {
		t.Fatalf("no attempts: bound %d", got)
	}
	// 150k broadcasts at 1−K = 1e-4: mean 15, the 99.9 % quantile of
	// Poisson(15) is 28.
	if got := binomialBound(150_000, 1e-4, 0.999); got < 27 || got > 29 {
		t.Fatalf("bound for 150k = %d, want about 28", got)
	}
	if got := binomialBound(100, 1e-4, 0.999); got != 1 {
		t.Fatalf("bound for 100 = %d, want 1", got)
	}
	// The gate's own quantile: Poisson(1.5) passes 1 − 1e-6 at 11.
	if got := binomialBound(15_000, 1e-4, lossConfidence); got < 10 || got > 12 {
		t.Fatalf("bound for 15k at the gate's confidence = %d, want about 11", got)
	}
}
