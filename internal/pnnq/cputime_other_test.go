//go:build !linux

package pnnq

import "time"

// threadCPU has no per-thread CPU clock to read outside Linux.
func threadCPU() (time.Duration, bool) { return 0, false }
