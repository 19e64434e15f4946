package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// mineShape is one in-memory mining workload: how many molecules of
// the corpus it mines and at which cutoff radius.
type mineShape struct {
	name   string
	graphs int
	radius int
}

var (
	// balanced splits a mine roughly evenly between the vector layers
	// (rwr, sigmodel, fvmine) and Phase-3 group mining.
	balanced = mineShape{name: "mine-balanced", graphs: 400, radius: 3}
	// fsmHeavy spends over 90% of a mine in Phase-3 group mining.
	fsmHeavy = mineShape{name: "mine-fsm-heavy", graphs: 60, radius: 5}
)

// corpus returns the first n molecules of the MOLT-4 screen, in an
// order drawn from seed. Graph IDs are renumbered to the new positions.
func corpus(n int, seed int64) []*graph.Graph {
	base := chem.GenerateN(chem.CancerSpecs()[1], n).Graphs
	order := rand.New(rand.NewSource(seed)).Perm(n)
	db := make([]*graph.Graph, n)
	for i, j := range order {
		g := base[j].Clone()
		g.ID = i
		db[i] = g
	}
	return db
}

// mineConfig is the Table IV configuration at the given radius, mined
// by two workers.
func mineConfig(radius int) core.Config {
	cfg := core.Defaults()
	cfg.CutoffRadius = radius
	cfg.Parallelism = 2
	return cfg
}

// answer is the part of a mine's result that the checks compare.
type answer struct {
	Patterns int    `json:"patterns"`
	Digest   string `json:"digest"`
}

// digest summarizes an answer set in result order: each pattern's
// canonical code, its vector log p-value (exact bits) and its verified
// support.
func digest(subs []core.Subgraph) answer {
	h := sha256.New()
	for _, sg := range subs {
		support := strconv.Itoa(sg.Support)
		if sg.Unverified {
			support = "unverified"
		}
		fmt.Fprintf(h, "%s\t%016x\t%s\n", sg.Canonical, math.Float64bits(sg.VectorLogPValue), support)
	}
	return answer{Patterns: len(subs), Digest: hex.EncodeToString(h.Sum(nil))[:16]}
}

//go:embed golden.json
var goldenJSON []byte

// golden maps workload name → seed → the answer a correct program gives.
func golden() (map[string]map[string]answer, error) {
	var g map[string]map[string]answer
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parse golden.json: %w", err)
	}
	return g, nil
}

// expectedAnswer returns the golden answer for the workload and seed.
// Seeds outside the table get a serial mine of the same corpus as
// reference: answers must not depend on parallelism.
func expectedAnswer(shape mineShape, seed int64, db []*graph.Graph) (answer, string, error) {
	table, err := golden()
	if err != nil {
		return answer{}, "", err
	}
	if want, ok := table[shape.name][strconv.FormatInt(seed, 10)]; ok {
		return want, "golden table", nil
	}
	cfg := mineConfig(shape.radius)
	cfg.Parallelism = 1
	return digest(core.Mine(db, cfg).Subgraphs), "serial reference mine", nil
}

// writeGolden records serial-mine answers for seeds 1..n of both mine
// workloads.
func writeGolden(path string, n int) error {
	out := map[string]map[string]answer{}
	for _, shape := range []mineShape{balanced, fsmHeavy} {
		out[shape.name] = map[string]answer{}
		for seed := int64(1); seed <= int64(n); seed++ {
			cfg := mineConfig(shape.radius)
			cfg.Parallelism = 1
			out[shape.name][strconv.FormatInt(seed, 10)] = digest(core.Mine(corpus(shape.graphs, seed), cfg).Subgraphs)
		}
		logf("%s: %d golden answers", shape.name, n)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
