//go:build !unix

package part

import "time"

// processCPU reports no CPU time where getrusage is unavailable.
func processCPU() (time.Duration, bool) { return 0, false }
