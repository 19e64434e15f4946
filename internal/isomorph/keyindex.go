package isomorph

// KeyIndex numbers the distinct extension keys of one pattern densely,
// 0, 1, 2, ... in the order they are first seen, so a miner keeps its
// per-key counts in a plain slice indexed by them instead of a map. It
// is an open-addressing table with linear probing whose slots hold a
// full key, its index and the generation that wrote them; a slot of an
// older generation is empty. Reset starts the next pattern by bumping
// the generation, so it costs O(1) however many keys the last pattern
// had, and the slots are cleared only when the stamp wraps. The table
// holds no pointers and compares whole keys, so any graph.Label works.
// The zero value is an empty index.
type KeyIndex struct {
	slots []keySlot // power-of-two length, at most 3/4 live
	gen   uint32    // the current generation; 0 only before first use
	n     int       // keys indexed in this generation
}

type keySlot struct {
	k   ExtKey
	gen uint32
	idx int32
}

// Reset empties the index.
func (ki *KeyIndex) Reset() {
	ki.n = 0
	ki.gen++
	if ki.gen == 0 {
		clear(ki.slots)
		ki.gen = 1
	}
}

// Len returns the number of keys indexed since the last Reset.
func (ki *KeyIndex) Len() int { return ki.n }

// Index returns k's index, adding k as index Len() when it is new, and
// reports whether it was added.
func (ki *KeyIndex) Index(k ExtKey) (int, bool) {
	if 4*(ki.n+1) > 3*len(ki.slots) {
		ki.grow()
	}
	mask := len(ki.slots) - 1
	for i := int(hashKey(k)) & mask; ; i = (i + 1) & mask {
		s := &ki.slots[i]
		if s.gen != ki.gen {
			*s = keySlot{k: k, gen: ki.gen, idx: int32(ki.n)}
			ki.n++
			return ki.n - 1, true
		}
		if s.k == k {
			return int(s.idx), false
		}
	}
}

// grow doubles the table, rehashing the current generation's keys.
func (ki *KeyIndex) grow() {
	if ki.gen == 0 {
		ki.gen = 1
	}
	old := ki.slots
	ki.slots = make([]keySlot, max(2*len(old), 64))
	mask := len(ki.slots) - 1
	for _, s := range old {
		if s.gen != ki.gen {
			continue
		}
		i := int(hashKey(s.k)) & mask
		for ki.slots[i].gen == ki.gen {
			i = (i + 1) & mask
		}
		ki.slots[i] = s
	}
}

// hashKey mixes all of k's bits into the low ones the table masks.
func hashKey(k ExtKey) uint64 {
	h := uint64(uint32(k.From)) | uint64(uint32(k.To))<<32
	h ^= uint64(k.Label) * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	h ^= h >> 32
	return h
}
