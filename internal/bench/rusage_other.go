//go:build !unix

package main

import "time"

// cpuTime is unavailable here; cluster.cpu_us_per_bcast reads 0.
func cpuTime() time.Duration { return 0 }
