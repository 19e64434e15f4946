//go:build race

package rwr

// The race detector makes sync.Pool drop a share of its items, so
// AllocsPerRun counts are meaningless under -race; the allocation tests
// skip themselves.
const raceEnabled = true
