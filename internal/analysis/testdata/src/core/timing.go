package core

import "time"

// Phase timing is in scope too: core times its phases through runctl
// stage spans, never by reading the clock itself.
func phase() time.Duration {
	t0 := time.Now()      // want "time.Now in deterministic path"
	return time.Since(t0) // want "time.Since in deterministic path"
}
