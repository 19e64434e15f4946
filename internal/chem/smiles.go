package chem

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"graphsig/internal/graph"
)

// A practical SMILES subset for interop with real screen data (the NCI
// and PubChem datasets the paper uses ship as SMILES):
//
//   - organic-subset atoms written bare (B, C, N, O, P, S, F, Cl, Br, I)
//     and any element of the 58-atom alphabet in brackets, e.g. [Sb];
//     bracket atoms may carry an ignored hydrogen count and charge
//     ([NH2], [O-], [N+]).
//   - aromatic lowercase atoms (b, c, n, o, p, s); bonds between two
//     aromatic atoms default to the aromatic bond.
//   - bonds: - (single, default), = (double), # (triple), : (aromatic);
//     / and \ parse as single (stereochemistry is out of scope).
//   - branches in parentheses, ring closures with digits and %nn, and
//     '.' separating disconnected components.
//
// The writer emits uppercase atoms with explicit =, #, : bond symbols,
// which reads back identically; ParseSMILES(WriteSMILES(g)) reproduces g
// up to isomorphism.

// organicSubset atoms may be written without brackets.
var organicSubset = map[string]bool{
	"B": true, "C": true, "N": true, "O": true, "P": true,
	"S": true, "F": true, "Cl": true, "Br": true, "I": true,
}

// ReadSMILESFile reads a .smi file: one molecule per line as
// "SMILES[ name]", with blank lines and '#' comments skipped. It returns
// the molecules and their names ("" when absent); the i-th graph's ID is
// its line-order index.
func ReadSMILESFile(r io.Reader) ([]*graph.Graph, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var graphs []*graph.Graph
	var names []string
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		g, err := ParseSMILES(fields[0])
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		g.ID = len(graphs)
		name := ""
		if len(fields) == 2 {
			name = strings.TrimSpace(fields[1])
		}
		graphs = append(graphs, g)
		names = append(names, name)
	}
	return graphs, names, sc.Err()
}

// WriteSMILESFile writes molecules as a .smi file, one per line with the
// optional parallel names.
func WriteSMILESFile(w io.Writer, graphs []*graph.Graph, names []string) error {
	bw := bufio.NewWriter(w)
	for i, g := range graphs {
		s, err := WriteSMILES(g)
		if err != nil {
			return fmt.Errorf("molecule %d: %w", i, err)
		}
		if names != nil && i < len(names) && names[i] != "" {
			fmt.Fprintf(bw, "%s %s\n", s, names[i])
		} else {
			fmt.Fprintln(bw, s)
		}
	}
	return bw.Flush()
}

// ParseSMILES parses a SMILES string into a molecule graph over the
// standard chemistry alphabet. The atoms and bonds are collected first
// and built with one graph.FromEdges call, so parsing stays linear in
// the input however long it is.
func ParseSMILES(s string) (*graph.Graph, error) {
	p := &smilesParser{input: s, rings: map[string]ringBond{}}
	if err := p.run(); err != nil {
		return nil, fmt.Errorf("smiles %q: %w", s, err)
	}
	g, err := graph.FromEdges(p.labels, p.edges)
	if err != nil {
		return nil, fmt.Errorf("smiles %q: %w", s, err)
	}
	return g, nil
}

type ringBond struct {
	node     int
	bond     graph.Label
	aromatic bool
	explicit bool
}

type smilesParser struct {
	input  string
	pos    int
	labels []graph.Label
	edges  []graph.Edge
	// prev is the attachment node (-1 before the first atom or after '.')
	prev int
	// prevAromatic marks prev as a lowercase aromatic atom.
	prevAromatic bool
	// pendingBond is the explicit bond before the next atom (-1 = none).
	pendingBond graph.Label
	hasPending  bool
	stack       []savedState
	rings       map[string]ringBond
}

type savedState struct {
	prev     int
	aromatic bool
}

func (p *smilesParser) run() error {
	p.prev = -1
	for p.pos < len(p.input) {
		c := p.input[p.pos]
		switch {
		case c == '(':
			if p.prev < 0 {
				return fmt.Errorf("pos %d: branch before any atom", p.pos)
			}
			p.stack = append(p.stack, savedState{p.prev, p.prevAromatic})
			p.pos++
		case c == ')':
			if len(p.stack) == 0 {
				return fmt.Errorf("pos %d: unmatched ')'", p.pos)
			}
			top := p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			p.prev, p.prevAromatic = top.prev, top.aromatic
			p.pos++
		case c == '.':
			p.prev = -1
			p.prevAromatic = false
			p.pos++
		case c == '-' || c == '=' || c == '#' || c == ':' || c == '/' || c == '\\':
			if p.hasPending {
				return fmt.Errorf("pos %d: consecutive bond symbols", p.pos)
			}
			p.pendingBond = bondFromSymbol(c)
			p.hasPending = true
			p.pos++
		case c >= '0' && c <= '9':
			if err := p.ringClosure(string(c)); err != nil {
				return err
			}
			p.pos++
		case c == '%':
			if p.pos+2 >= len(p.input) {
				return fmt.Errorf("pos %d: truncated %%nn ring bond", p.pos)
			}
			if err := p.ringClosure(p.input[p.pos+1 : p.pos+3]); err != nil {
				return err
			}
			p.pos += 3
		case c == '[':
			if err := p.bracketAtom(); err != nil {
				return err
			}
		default:
			if err := p.bareAtom(); err != nil {
				return err
			}
		}
	}
	if len(p.stack) != 0 {
		return fmt.Errorf("unclosed branch")
	}
	if p.hasPending {
		return fmt.Errorf("dangling bond symbol")
	}
	for key := range p.rings {
		return fmt.Errorf("unclosed ring bond %s", key)
	}
	return nil
}

func bondFromSymbol(c byte) graph.Label {
	switch c {
	case '=':
		return BondDouble
	case '#':
		return BondTriple
	case ':':
		return BondAromatic
	default: // '-', '/', '\\'
		return BondSingle
	}
}

// takeBond consumes the pending bond, defaulting by aromaticity.
func (p *smilesParser) takeBond(bothAromatic bool) graph.Label {
	if p.hasPending {
		p.hasPending = false
		return p.pendingBond
	}
	if bothAromatic {
		return BondAromatic
	}
	return BondSingle
}

func (p *smilesParser) addAtom(symbol string, aromatic bool) error {
	label, ok := lookupAtom(symbol)
	if !ok {
		return fmt.Errorf("pos %d: unknown element %q", p.pos, symbol)
	}
	v := len(p.labels)
	p.labels = append(p.labels, label)
	if p.prev >= 0 {
		p.edges = append(p.edges, graph.Edge{From: p.prev, To: v, Label: p.takeBond(aromatic && p.prevAromatic)})
	} else if p.hasPending {
		return fmt.Errorf("pos %d: bond with no preceding atom", p.pos)
	}
	p.prev = v
	p.prevAromatic = aromatic
	return nil
}

func lookupAtom(symbol string) (graph.Label, bool) {
	for i, row := range atomTable {
		if row.symbol == symbol {
			return graph.Label(i), true
		}
	}
	return graph.NoLabel, false
}

func (p *smilesParser) bareAtom() error {
	c := p.input[p.pos]
	aromatic := c >= 'a' && c <= 'z'
	symbol := strings.ToUpper(string(c))
	// Two-letter organic atoms: Cl, Br.
	if !aromatic && p.pos+1 < len(p.input) {
		two := p.input[p.pos : p.pos+2]
		if two == "Cl" || two == "Br" {
			symbol = two
			p.pos++
		}
	}
	if !organicSubset[symbol] {
		return fmt.Errorf("pos %d: atom %q must be bracketed", p.pos, symbol)
	}
	p.pos++
	return p.addAtom(symbol, aromatic)
}

func (p *smilesParser) bracketAtom() error {
	end := strings.IndexByte(p.input[p.pos:], ']')
	if end < 0 {
		return fmt.Errorf("pos %d: unclosed bracket", p.pos)
	}
	body := p.input[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if body == "" {
		return fmt.Errorf("empty bracket atom")
	}
	// Element symbol: leading upper + optional lower letters; lowercase
	// first letter marks aromatic.
	i := 0
	aromatic := body[0] >= 'a' && body[0] <= 'z'
	i++
	for i < len(body) && body[i] >= 'a' && body[i] <= 'z' {
		i++
	}
	symbol := body[:i]
	if aromatic {
		symbol = strings.ToUpper(symbol[:1]) + symbol[1:]
	}
	// Ignore hydrogen counts and charges: H, H2, +, -, +2 ...
	rest := body[i:]
	for j := 0; j < len(rest); j++ {
		switch {
		case rest[j] == 'H', rest[j] == '+', rest[j] == '-':
		case rest[j] >= '0' && rest[j] <= '9':
		default:
			return fmt.Errorf("unsupported bracket content %q", body)
		}
	}
	return p.addAtom(symbol, aromatic)
}

func (p *smilesParser) ringClosure(key string) error {
	if p.prev < 0 {
		return fmt.Errorf("pos %d: ring bond before any atom", p.pos)
	}
	if open, ok := p.rings[key]; ok {
		delete(p.rings, key)
		if open.node == p.prev {
			return fmt.Errorf("pos %d: ring bond %s closes onto its own atom", p.pos, key)
		}
		var bond graph.Label
		switch {
		case p.hasPending:
			bond = p.pendingBond
			p.hasPending = false
		case open.explicit:
			bond = open.bond
		case open.aromatic && p.prevAromatic:
			bond = BondAromatic
		default:
			bond = BondSingle
		}
		p.edges = append(p.edges, graph.Edge{From: open.node, To: p.prev, Label: bond})
		return nil
	}
	rb := ringBond{node: p.prev, aromatic: p.prevAromatic}
	if p.hasPending {
		rb.bond = p.pendingBond
		rb.explicit = true
		p.hasPending = false
	}
	p.rings[key] = rb
	return nil
}

// WriteSMILES renders a molecule as SMILES (uppercase atoms, explicit
// bond symbols). Multiple connected components are joined with '.'.
// Graphs needing more than 99 simultaneously open ring bonds are
// rejected.
func WriteSMILES(g *graph.Graph) (string, error) {
	alpha := Alphabet()
	var sb strings.Builder
	visited := make([]bool, g.NumNodes())
	// Ring-closure numbers are assigned to DFS back edges in a first
	// pass, then the tree is emitted with closures attached to both
	// endpoints.
	type closure struct {
		num  int
		bond graph.Label
	}
	nextRing := 1
	first := true
	for start := 0; start < g.NumNodes(); start++ {
		if visited[start] {
			continue
		}
		if !first {
			sb.WriteByte('.')
		}
		first = false
		// DFS pass 1: tree edges and back edges.
		type edgeRef struct{ u, v int }
		parent := map[int]int{start: -1}
		order := []int{}
		var backEdges []edgeRef
		seenBack := map[[2]int]bool{}
		var dfs func(v int)
		dfs = func(v int) {
			visited[v] = true
			order = append(order, v)
			g.Neighbors(v, func(u int, _ graph.Label) {
				if !visited[u] {
					parent[u] = v
					dfs(u)
				} else if u != parent[v] {
					key := [2]int{min(u, v), max(u, v)}
					if !seenBack[key] {
						seenBack[key] = true
						backEdges = append(backEdges, edgeRef{u, v})
					}
				}
			})
		}
		dfs(start)
		if nextRing+len(backEdges) > 100 {
			return "", fmt.Errorf("smiles: too many ring closures")
		}
		closuresByNode := map[int][]closure{}
		for _, be := range backEdges {
			num := nextRing
			nextRing++
			bond := g.EdgeLabel(be.u, be.v)
			closuresByNode[be.u] = append(closuresByNode[be.u], closure{num, bond})
			closuresByNode[be.v] = append(closuresByNode[be.v], closure{num, bond})
		}
		// DFS pass 2: emit.
		childrenOf := map[int][]int{}
		for _, v := range order {
			if p := parent[v]; p >= 0 {
				childrenOf[p] = append(childrenOf[p], v)
			}
		}
		var emit func(v int)
		emit = func(v int) {
			sb.WriteString(atomToken(g.NodeLabel(v), alpha))
			for _, c := range closuresByNode[v] {
				writeBond(&sb, c.bond)
				writeRingNum(&sb, c.num)
			}
			kids := childrenOf[v]
			for i, u := range kids {
				branch := i < len(kids)-1
				if branch {
					sb.WriteByte('(')
				}
				writeBond(&sb, g.EdgeLabel(v, u))
				emit(u)
				if branch {
					sb.WriteByte(')')
				}
			}
		}
		emit(start)
	}
	return sb.String(), nil
}

func atomToken(l graph.Label, alpha *graph.Alphabet) string {
	sym := alpha.Name(l)
	if organicSubset[sym] {
		return sym
	}
	return "[" + sym + "]"
}

func writeBond(sb *strings.Builder, bond graph.Label) {
	switch bond {
	case BondDouble:
		sb.WriteByte('=')
	case BondTriple:
		sb.WriteByte('#')
	case BondAromatic:
		sb.WriteByte(':')
	}
}

func writeRingNum(sb *strings.Builder, num int) {
	if num < 10 {
		fmt.Fprintf(sb, "%d", num)
	} else {
		fmt.Fprintf(sb, "%%%02d", num)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
