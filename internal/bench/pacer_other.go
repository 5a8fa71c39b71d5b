//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep where timerfd does not exist; expect
// gen.late_p95_us near a millisecond (see pacer_linux.go).
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (p *pacer) close() {}
