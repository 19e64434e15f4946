//go:build !race

package rwr

const raceEnabled = false
