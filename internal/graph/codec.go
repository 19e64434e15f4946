package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The codec reads and writes the line-oriented graph transaction format
// used by gSpan/FSG tooling:
//
//	t # <graph-id>
//	v <node-id> <label>
//	e <from> <to> <label>
//
// Labels may be integers (raw Label values) or symbol strings resolved
// through an Alphabet. Blank lines and lines starting with '%' or '//'
// are ignored.

// WriteDB writes graphs in transaction format. If alpha is non-nil, node
// and edge labels are written as symbol names; otherwise as integers.
func WriteDB(w io.Writer, graphs []*Graph, alpha *Alphabet) error {
	bw := bufio.NewWriter(w)
	for _, g := range graphs {
		if _, err := fmt.Fprintf(bw, "t # %d\n", g.ID); err != nil {
			return err
		}
		for v := 0; v < g.NumNodes(); v++ {
			if _, err := fmt.Fprintf(bw, "v %d %s\n", v, labelString(g.NodeLabel(v), alpha)); err != nil {
				return err
			}
		}
		for _, e := range g.Edges() {
			if _, err := fmt.Fprintf(bw, "e %d %d %s\n", e.From, e.To, labelString(e.Label, alpha)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func labelString(l Label, alpha *Alphabet) string {
	if alpha != nil {
		return alpha.Name(l)
	}
	return strconv.Itoa(int(l))
}

// parseRecord applies one "v" or "e" line to the graph under
// construction.
func parseRecord(cur *Graph, fields []string, alpha *Alphabet, lineNo int) error {
	switch fields[0] {
	case "v":
		if len(fields) != 3 {
			return fmt.Errorf("graph codec: line %d: want 'v id label'", lineNo)
		}
		id, err := strconv.Atoi(fields[1])
		if err != nil {
			return fmt.Errorf("graph codec: line %d: bad vertex id %q", lineNo, fields[1])
		}
		l, err := parseLabel(fields[2], alpha)
		if err != nil {
			return fmt.Errorf("graph codec: line %d: %w", lineNo, err)
		}
		if got := cur.AddNode(l); got != id {
			return fmt.Errorf("graph codec: line %d: vertex ids must be dense and ordered (got %d, want %d)", lineNo, id, got)
		}
	case "e":
		if len(fields) != 4 {
			return fmt.Errorf("graph codec: line %d: want 'e from to label'", lineNo)
		}
		from, err1 := strconv.Atoi(fields[1])
		to, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("graph codec: line %d: bad edge endpoints", lineNo)
		}
		l, err := parseLabel(fields[3], alpha)
		if err != nil {
			return fmt.Errorf("graph codec: line %d: %w", lineNo, err)
		}
		if from < 0 || from >= cur.NumNodes() || to < 0 || to >= cur.NumNodes() || from == to {
			return fmt.Errorf("graph codec: line %d: edge (%d,%d) out of range", lineNo, from, to)
		}
		if err := cur.AddEdge(from, to, l); err != nil {
			return fmt.Errorf("graph codec: line %d: %w", lineNo, err)
		}
	}
	return nil
}

// ReadDB parses graphs in transaction format. If alpha is non-nil, labels
// are interned through it (integers are also accepted and interned by
// their decimal spelling); otherwise labels must be integers.
func ReadDB(r io.Reader, alpha *Alphabet) ([]*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var graphs []*Graph
	var cur *Graph
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "//") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "t":
			id := len(graphs)
			if len(fields) >= 3 {
				if v, err := strconv.Atoi(fields[2]); err == nil {
					id = v
				}
			}
			cur = New(0, 0)
			cur.ID = id
			graphs = append(graphs, cur)
		case "v":
			if cur == nil {
				return nil, fmt.Errorf("graph codec: line %d: vertex before transaction header", lineNo)
			}
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph codec: line %d: want 'v id label'", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph codec: line %d: bad vertex id %q", lineNo, fields[1])
			}
			l, err := parseLabel(fields[2], alpha)
			if err != nil {
				return nil, fmt.Errorf("graph codec: line %d: %w", lineNo, err)
			}
			if got := cur.AddNode(l); got != id {
				return nil, fmt.Errorf("graph codec: line %d: vertex ids must be dense and ordered (got %d, want %d)", lineNo, id, got)
			}
		case "e":
			if cur == nil {
				return nil, fmt.Errorf("graph codec: line %d: edge before transaction header", lineNo)
			}
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph codec: line %d: want 'e from to label'", lineNo)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("graph codec: line %d: bad edge endpoints", lineNo)
			}
			l, err := parseLabel(fields[3], alpha)
			if err != nil {
				return nil, fmt.Errorf("graph codec: line %d: %w", lineNo, err)
			}
			if from < 0 || from >= cur.NumNodes() || to < 0 || to >= cur.NumNodes() || from == to {
				return nil, fmt.Errorf("graph codec: line %d: edge (%d,%d) out of range", lineNo, from, to)
			}
			if err := cur.AddEdge(from, to, l); err != nil {
				return nil, fmt.Errorf("graph codec: line %d: %w", lineNo, err)
			}
		default:
			return nil, fmt.Errorf("graph codec: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return graphs, nil
}

func parseLabel(s string, alpha *Alphabet) (Label, error) {
	if alpha != nil {
		return alpha.Intern(s), nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return NoLabel, fmt.Errorf("non-integer label %q without alphabet", s)
	}
	return Label(v), nil
}
