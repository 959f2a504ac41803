//go:build !linux

package main

import "time"

var wallEpoch = time.Now()

// processCPU falls back to wall time where the process CPU clock is not
// read through clock_gettime(2).
func processCPU() time.Duration { return time.Since(wallEpoch) }
