package isomorph

import "graphsig/internal/graph"

// This file holds the closure-check fast path shared by the closed-
// pattern miners (internal/gspan, internal/fsg): enumeration of the
// one-edge extensions an embedding realizes, walked directly over the
// host's CSR rows. The miners' closure and maximality tests both read
// the keys it reports.

// ExtKey identifies a one-edge growth of an embedded pattern,
// independent of the host edge realizing it: either an internal edge
// between existing pattern nodes From < To, or a pendant edge to a
// fresh node, encoded as To = -1 - nodeLabel (so To < 0 never collides
// with a node index). Equal keys on the same pattern describe the same
// super-pattern, which is what makes per-key occurrence accounting a
// closure test: a pattern is non-closed exactly when some key is
// realized in every supporting graph (CloseGraph, Yan & Han KDD 2003).
type ExtKey struct {
	From  int32
	To    int32
	Label graph.Label
}

// Internal reports whether the key adds an edge between two existing
// pattern nodes (as opposed to a pendant edge to a fresh node).
func (k ExtKey) Internal() bool { return k.To >= 0 }

// PendantLabel returns the fresh node's label encoded in a pendant key.
func (k ExtKey) PendantLabel() graph.Label { return graph.Label(-1 - k.To) }

// PendantTo encodes a fresh-node label into ExtKey.To.
func PendantTo(l graph.Label) int32 { return -1 - int32(l) }

// ForEachExtension reports every one-edge growth of a pattern realized
// inside a host graph by the given embedding: an edge between two
// mapped host nodes whose pattern nodes are not yet adjacent, or an
// edge from a mapped host node to an unmapped neighbor. nodes maps
// pattern node -> host node. inv is caller-owned scratch with at least
// gc.NumNodes() entries, all zero on entry; it is restored to all zero
// before returning (the helper stores pattern index + 1, so zero means
// unmapped). hasPatternEdge reports pattern adjacency; it is consulted
// only for mapped pairs pv < pu, and an internal key is emitted exactly
// once per realizing host edge. emit receives the key plus the host
// node realizing its far end — for a pendant key the fresh neighbor
// (which extends the embedding to one of the candidate), for an
// internal key the mapped node of To. Host adjacency is walked as raw
// CSR rows — this is the per-embedding hot loop of both closure checks
// and fsg candidate generation.
func ForEachExtension(gc graph.CSRView, nodes []int, inv []int32, hasPatternEdge func(pv, pu int) bool, emit func(k ExtKey, hostTo int32)) {
	for pv, hv := range nodes {
		inv[hv] = int32(pv) + 1
	}
	for pv, hv := range nodes {
		for i := gc.RowStart[hv]; i < gc.RowStart[hv+1]; i++ {
			hu, l := gc.Nbr[i], gc.EdgeLabels[i]
			if pu := inv[hu] - 1; pu >= 0 {
				// Internal edge between mapped nodes, if absent in the
				// pattern; each undirected host edge is visited from both
				// endpoints, so the pv < pu orientation dedups it.
				if int32(pv) > pu || hasPatternEdge(pv, int(pu)) {
					continue
				}
				emit(ExtKey{From: int32(pv), To: pu, Label: l}, hu)
			} else {
				emit(ExtKey{From: int32(pv), To: PendantTo(gc.NodeLabels[hu]), Label: l}, hu)
			}
		}
	}
	for _, hv := range nodes {
		inv[hv] = 0
	}
}
