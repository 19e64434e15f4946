package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// CacheKey returns a canonical hex hash of the mining parameters of the
// config — exactly the fields that determine Mine's output over a fixed
// database. Two configs with equal mining parameters hash equal even
// when one spells out the defaults and the other leaves them zero:
// the config is normalized through the same fillConfig that Mine itself
// applies before hashing.
//
// Runtime controls are deliberately excluded: Ctl, Deadline, Budgets,
// and Parallelism shape *when* a run is cut short or how many workers
// it spreads over, not what a complete run computes, and result caches
// refuse to store truncated runs. Callers that vary budgets per request
// must not share a cache across those requests.
//
// The Alphabet and FeatureSet are hashed by content (interned symbol
// list; feature names), so two structurally identical sets produce the
// same key across processes.
func (cfg Config) CacheKey() string {
	fillConfig(&cfg)
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) { writeInt(int64(math.Float64bits(v))) }
	writeBool := func(v bool) {
		if v {
			writeInt(1)
		} else {
			writeInt(0)
		}
	}
	writeString := func(s string) {
		writeInt(int64(len(s)))
		h.Write([]byte(s))
	}

	// Version tag: bump when the key schema changes so stale persisted
	// keys can never collide with new ones.
	writeString("graphsig-config-v1")

	writeFloat(cfg.Alpha)
	writeInt(int64(cfg.Bins))
	writeFloat(cfg.MaxPvalue)
	writeFloat(cfg.MinFreqPct)
	writeInt(int64(cfg.MinSupportFloor))
	writeInt(int64(cfg.CutoffRadius))
	writeFloat(cfg.FSMFreqPct)
	writeInt(int64(cfg.TopAtoms))
	writeInt(int64(cfg.Miner))
	writeInt(int64(cfg.MaxVectorsPerLabel))
	writeInt(int64(cfg.TopKPerLabel))
	writeInt(int64(cfg.MaxGroupSize))
	writeInt(int64(cfg.MaxPatternEdges))
	writeBool(cfg.SkipVerify)
	writeInt(int64(cfg.Vectorizer))

	if cfg.Alphabet == nil {
		writeInt(-1)
	} else {
		names := cfg.Alphabet.Names()
		writeInt(int64(len(names)))
		for _, n := range names {
			writeString(n)
		}
	}
	if cfg.FeatureSet == nil {
		writeInt(-1)
	} else {
		writeInt(int64(cfg.FeatureSet.Len()))
		for i := 0; i < cfg.FeatureSet.Len(); i++ {
			writeString(cfg.FeatureSet.Name(i))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// MineKey scopes a config key to one database: it is the canonical
// identity of a mine request, the key under which identical requests
// coalesce and completed results are cached. dbFingerprint is
// graph.Fingerprint of the database being mined.
func MineKey(dbFingerprint string, cfg Config) string {
	return fmt.Sprintf("%s:%s", dbFingerprint, cfg.CacheKey())
}
