// Package chem is the synthetic chemistry substrate standing in for the
// paper's NCI/NIH DTP-AIDS screen and eleven PubChem anti-cancer screens
// (see DESIGN.md, substitution 1). It provides a 58-symbol atom alphabet
// whose frequency profile matches the published statistics (top five
// atoms cover ~99% of atom mass, Fig 4), a random molecule generator
// calibrated to ~25 atoms and ~27 bonds per molecule with a ~70% benzene
// frequency, a library of planted "drug core" motifs analogous to the
// structures of Figs 13-15, and a catalog reproducing the twelve paper
// datasets at configurable scale.
package chem

import (
	"graphsig/internal/graph"
)

// Bond labels. Bonds are edge labels on molecule graphs.
const (
	BondSingle graph.Label = iota
	BondDouble
	BondTriple
	BondAromatic
)

// BondName returns a chemistry-style rendering of a bond label.
func BondName(l graph.Label) string {
	switch l {
	case BondSingle:
		return "-"
	case BondDouble:
		return "="
	case BondTriple:
		return "#"
	case BondAromatic:
		return ":"
	}
	return "?"
}

// atomTable lists the 58 atom symbols of the substrate with their
// sampling weights. The top five (C, O, N, S, Cl) carry ~99% of the mass,
// reproducing the cumulative-coverage shape of Fig 4; the long tail
// decays geometrically. Sb and Bi (the Fig 15 pair) appear in the tail
// and otherwise enter molecules only through planted motifs.
var atomTable = []struct {
	symbol string
	weight float64
}{
	{"C", 7400}, {"O", 1150}, {"N", 1050}, {"S", 200}, {"Cl", 100},
	{"F", 14}, {"Br", 12}, {"P", 10}, {"I", 8}, {"Si", 7},
	{"B", 6}, {"Se", 5}, {"Sn", 4.5}, {"Pt", 4}, {"As", 3.6},
	{"Hg", 3.2}, {"Fe", 2.9}, {"Zn", 2.6}, {"Cu", 2.3}, {"Mn", 2.1},
	{"Mg", 1.9}, {"Ca", 1.7}, {"Na", 1.5}, {"K", 1.4}, {"Li", 1.2},
	{"Al", 1.1}, {"Cr", 1.0}, {"Co", 0.9}, {"Ni", 0.85}, {"Pd", 0.8},
	{"Ag", 0.75}, {"Cd", 0.7}, {"Au", 0.65}, {"Pb", 0.6}, {"Ti", 0.55},
	{"Sb", 0.5}, {"Bi", 0.5}, {"V", 0.45}, {"Mo", 0.4}, {"W", 0.38},
	{"Ru", 0.35}, {"Rh", 0.32}, {"Os", 0.3}, {"Ir", 0.28}, {"Ga", 0.26},
	{"Ge", 0.24}, {"In", 0.22}, {"Tl", 0.2}, {"Te", 0.19}, {"Ba", 0.18},
	{"Sr", 0.17}, {"Zr", 0.16}, {"Nb", 0.15}, {"Ta", 0.14}, {"Re", 0.13},
	{"U", 0.12}, {"La", 0.11}, {"Ce", 0.1},
}

// Alphabet returns a fresh atom alphabet with all 58 symbols interned in
// frequency-rank order, so atom labels are stable across runs.
func Alphabet() *graph.Alphabet {
	a := graph.NewAlphabet()
	for _, row := range atomTable {
		a.Intern(row.symbol)
	}
	return a
}

// Atom returns the label for an atom symbol in the standard alphabet
// ordering (panics on unknown symbols — the set is fixed).
func Atom(symbol string) graph.Label {
	for i, row := range atomTable {
		if row.symbol == symbol {
			return graph.Label(i)
		}
	}
	panic("chem: unknown atom symbol " + symbol)
}
