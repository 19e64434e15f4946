// Package feature implements GraphSig's feature space (§II of the paper):
// domain feature sets (atom types plus edge types between the top-k most
// frequent atoms for chemistry, and a greedy general selector), and the
// discretized feature vectors with the sub-vector partial order and
// floor/ceiling operations that FVMine works over.
package feature

import (
	"fmt"
	"strings"
)

// Vector is a discretized feature vector. Each entry is a bin in [0, 255]
// (RWR discretization uses 0..10). Vectors compared or combined together
// must have equal length.
type Vector []uint8

// Clone returns a copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Equal reports whether v and w are identical.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// SubVectorOf reports whether v is a sub-feature vector of w (Def 3):
// v_i <= w_i for all i.
func (v Vector) SubVectorOf(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] > w[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every entry is zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// L1DistanceFrom returns sum_i (w_i - v_i), the distance used by the
// classifier's minDist (Algorithm 4) for a sub-vector v of w. It panics
// if v is not a sub-vector of w.
func (v Vector) L1DistanceFrom(w Vector) int {
	if len(v) != len(w) {
		panic("feature: length mismatch")
	}
	d := 0
	for i := range v {
		if v[i] > w[i] {
			panic("feature: L1DistanceFrom requires v ⊆ w")
		}
		d += int(w[i]) - int(v[i])
	}
	return d
}

// String renders the vector compactly, e.g. "[1 0 0 2]".
func (v Vector) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Key returns the raw bytes as a string, usable as a map key.
func (v Vector) Key() string { return string(v) }

// Floor returns the component-wise minimum of vs (Def 5). It panics on an
// empty input or mismatched lengths.
func Floor(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("feature: Floor of empty set")
	}
	out := vs[0].Clone()
	for _, v := range vs[1:] {
		if len(v) != len(out) {
			panic("feature: length mismatch")
		}
		for i := range out {
			if v[i] < out[i] {
				out[i] = v[i]
			}
		}
	}
	return out
}
