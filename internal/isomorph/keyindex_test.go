package isomorph

import (
	"math"
	"math/rand"
	"testing"

	"graphsig/internal/graph"
)

// keyOracle checks a KeyIndex against a map holding the same keys: the
// map gives each new key the next dense index, exactly what the index
// must return.
type keyOracle struct {
	t  testing.TB
	ki KeyIndex
	m  map[ExtKey]int
}

func newKeyOracle(t testing.TB) *keyOracle { return &keyOracle{t: t, m: map[ExtKey]int{}} }

func (o *keyOracle) reset() {
	o.t.Helper()
	o.ki.Reset()
	clear(o.m)
	if o.ki.Len() != 0 {
		o.t.Fatalf("Len %d after Reset", o.ki.Len())
	}
}

// index indexes k in both and compares the index, whether k was new,
// and the key count.
func (o *keyOracle) index(k ExtKey) {
	o.t.Helper()
	want, seen := o.m[k]
	if !seen {
		want = len(o.m)
		o.m[k] = want
	}
	got, added := o.ki.Index(k)
	if got != want || added == seen {
		o.t.Fatalf("Index(%+v) = %d, added %v; want %d, added %v", k, got, added, want, !seen)
	}
	if o.ki.Len() != len(o.m) {
		o.t.Fatalf("Len %d after indexing %+v, want %d", o.ki.Len(), k, len(o.m))
	}
}

// lookupAll re-indexes every key of the current generation, each of
// which must come back with its first-seen index and unchanged count.
func (o *keyOracle) lookupAll() {
	o.t.Helper()
	for k, want := range o.m {
		if got, added := o.ki.Index(k); got != want || added {
			o.t.Fatalf("lookup of %+v = %d, added %v; want %d, present", k, got, added, want)
		}
	}
	if o.ki.Len() != len(o.m) {
		o.t.Fatalf("Len %d after lookups, want %d", o.ki.Len(), len(o.m))
	}
}

// randKey draws from a small key domain, so streams repeat keys, with
// labels spread over the whole graph.Label range: keys that differ only
// in a label's high bits must stay distinct.
func randKey(r *rand.Rand) ExtKey {
	l := graph.Label(r.Intn(6))
	if r.Intn(3) == 0 {
		l += graph.Label(r.Intn(4)) << 40
		if r.Intn(2) == 0 {
			l = -l - 1
		}
	}
	k := ExtKey{From: int32(r.Intn(6)), Label: l}
	if r.Intn(2) == 0 {
		k.To = k.From + 1 + int32(r.Intn(4))
	} else {
		k.To = PendantTo(graph.Label(r.Intn(5)))
	}
	return k
}

// TestKeyIndexMatchesMap runs random key streams through a KeyIndex and
// a map oracle: one generation growing well past the initial table,
// thousands of short generations after resets, and generations on both
// sides of a forced stamp wrap.
func TestKeyIndexMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	o := newKeyOracle(t)
	// One long generation over a domain of about 1.5k keys.
	for i := 0; i < 6000; i++ {
		o.index(randKey(r))
	}
	if o.ki.Len() < 200 {
		t.Fatalf("long stream indexed only %d keys; want growth well past the initial table", o.ki.Len())
	}
	o.lookupAll()
	// Many short generations reusing the grown table.
	for g := 0; g < 5000; g++ {
		o.reset()
		for i := r.Intn(40); i > 0; i-- {
			o.index(randKey(r))
		}
		o.lookupAll()
	}
	// A stamp wrap must clear the slots: the keys written while the
	// stamp was 1 are still in the table when the next Reset wraps it
	// back to 1, and every generation from there starts with those
	// keys, new.
	o.reset()
	o.ki.gen = 1
	var early []ExtKey
	for i := 0; i < 30; i++ {
		k := randKey(r)
		early = append(early, k)
		o.index(k)
	}
	o.ki.gen = math.MaxUint32
	for g := 0; g < 3; g++ {
		o.reset()
		r.Shuffle(len(early), func(i, j int) { early[i], early[j] = early[j], early[i] })
		for _, k := range early {
			o.index(k)
		}
		for i := 0; i < 30; i++ {
			o.index(randKey(r))
		}
		o.lookupAll()
	}
	if o.ki.gen != 3 {
		t.Fatalf("stamp %d did not wrap", o.ki.gen)
	}
}

// FuzzKeyIndex decodes each input into a stream of index and reset
// operations, optionally started just below the stamp wrap, and checks
// every step against the map oracle.
func FuzzKeyIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0x10, 0, 3, 4})
	f.Add([]byte{5, 0xff, 0x80, 0x21, 0x7f, 0x10, 0, 0x10, 0, 0x10, 0, 0x21, 0x7f, 0xff, 0x80, 0x33, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		o := newKeyOracle(t)
		if data[0]&1 != 0 {
			o.ki.gen = math.MaxUint32 - uint32(data[0]>>1)%4
		}
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			if op&0x0f == 0 {
				o.reset()
				continue
			}
			k := ExtKey{From: int32(op & 7), Label: graph.Label(int8(arg))}
			if op&0x20 != 0 {
				k.Label <<= 33
			}
			if op&0x08 != 0 {
				k.To = PendantTo(graph.Label(arg >> 4))
			} else {
				k.To = k.From + 1 + int32(op>>6)
			}
			o.index(k)
		}
		o.lookupAll()
	})
}
