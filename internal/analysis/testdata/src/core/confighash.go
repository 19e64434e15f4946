// Package core is the wallclock corpus for the mining core: every file
// of the package is a deterministic path.
package core

import "time"

func hashStamp() int64 {
	return time.Now().UnixNano() // want "time.Now in deterministic path"
}
