package core

import (
	"testing"
	"time"

	"graphsig/internal/graph"
	"graphsig/internal/runctl"
)

// TestCacheKeyStable: hashing is deterministic and normalization is
// the same fillConfig Mine applies — fields it fills hash onto the
// default, fields where zero means "unbounded" keep their meaning.
func TestCacheKeyStable(t *testing.T) {
	a, b := Defaults(), Defaults()
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("identical configs hash differently")
	}
	if a.CacheKey() != a.CacheKey() {
		t.Error("CacheKey not deterministic across calls")
	}
	// fillConfig fills these, so spelling the default and leaving it
	// zero is the same mine and must be the same key.
	filled := Defaults()
	filled.Alpha, filled.Bins, filled.MaxPvalue = 0, 0, 0
	if filled.CacheKey() != a.CacheKey() {
		t.Error("fillConfig-normalized fields not folded before hashing")
	}
	// But zero MaxVectorsPerLabel means unbounded — a different mine
	// than the default 50 — so the zero config must NOT collide with
	// Defaults.
	if (Config{}).CacheKey() == a.CacheKey() {
		t.Error("zero config (unbounded vectors/groups, nil alphabet) collides with Defaults")
	}
}

// TestCacheKeyDistinguishesEveryMiningField: flipping any field that
// shapes the mined output must change the key.
func TestCacheKeyDistinguishesEveryMiningField(t *testing.T) {
	base := Defaults().CacheKey()
	muts := map[string]func(*Config){
		"Alpha":              func(c *Config) { c.Alpha = 0.5 },
		"Bins":               func(c *Config) { c.Bins = 7 },
		"MaxPvalue":          func(c *Config) { c.MaxPvalue = 0.05 },
		"MinFreqPct":         func(c *Config) { c.MinFreqPct = 1.5 },
		"MinSupportFloor":    func(c *Config) { c.MinSupportFloor = 5 },
		"CutoffRadius":       func(c *Config) { c.CutoffRadius = 3 },
		"FSMFreqPct":         func(c *Config) { c.FSMFreqPct = 60 },
		"TopAtoms":           func(c *Config) { c.TopAtoms = 4 },
		"Miner":              func(c *Config) { c.Miner = MinerGSpan },
		"MaxVectorsPerLabel": func(c *Config) { c.MaxVectorsPerLabel = 10 },
		"TopKPerLabel":       func(c *Config) { c.TopKPerLabel = 5 },
		"MaxGroupSize":       func(c *Config) { c.MaxGroupSize = 20 },
		"MaxPatternEdges":    func(c *Config) { c.MaxPatternEdges = 6 },
		"SkipVerify":         func(c *Config) { c.SkipVerify = true },
		"Vectorizer":         func(c *Config) { c.Vectorizer = VectorizerWindowCounts },
	}
	seen := map[string]string{base: "base"}
	for name, mutate := range muts {
		cfg := Defaults()
		mutate(&cfg)
		key := cfg.CacheKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("changing %s collides with %s", name, prev)
		}
		seen[key] = name
	}
}

// TestCacheKeyIgnoresRuntimeControls: how a run is bounded must not
// change what it is.
func TestCacheKeyIgnoresRuntimeControls(t *testing.T) {
	base := Defaults().CacheKey()
	cfg := Defaults()
	cfg.Deadline = time.Now().Add(time.Hour)
	cfg.Budgets = runctl.Budgets{FVMineStates: 10, MinerSteps: 20, VF2Nodes: 30}
	cfg.Ctl = runctl.New(runctl.Options{})
	if cfg.CacheKey() != base {
		t.Error("runtime controls leaked into the cache key")
	}
}

// TestCacheKeyAlphabetContent: the alphabet is hashed by content, not
// pointer identity, and a different alphabet means a different key.
func TestCacheKeyAlphabetContent(t *testing.T) {
	mk := func(names ...string) *graph.Alphabet {
		a := graph.NewAlphabet()
		for _, n := range names {
			a.Intern(n)
		}
		return a
	}
	c1, c2 := Defaults(), Defaults()
	c1.Alphabet = mk("C", "N", "O")
	c2.Alphabet = mk("C", "N", "O")
	if c1.CacheKey() != c2.CacheKey() {
		t.Error("structurally identical alphabets hash differently")
	}
	c2.Alphabet = mk("C", "N", "S")
	if c1.CacheKey() == c2.CacheKey() {
		t.Error("different alphabets hash equal")
	}
	c2.Alphabet = nil
	if c1.CacheKey() == c2.CacheKey() {
		t.Error("nil vs non-nil alphabet hash equal")
	}
}

// TestMineKeyScopesToDatabase: the same config over two databases
// yields distinct mine keys.
func TestMineKeyScopesToDatabase(t *testing.T) {
	cfg := Defaults()
	k1 := MineKey("fp-one", cfg)
	k2 := MineKey("fp-two", cfg)
	if k1 == k2 {
		t.Error("mine key ignores the database fingerprint")
	}
	if MineKey("fp-one", cfg) != k1 {
		t.Error("mine key not deterministic")
	}
}
