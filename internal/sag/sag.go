// Package sag constructs Safe Adaptation Graphs (paper Sec. 3.1 and 4.2,
// Fig. 4) and finds minimum adaptation paths on them.
//
// A SAG's vertices are safe configurations; an arc (c1,c2) labelled with
// adaptive action a exists iff a.Apply(c1) = c2 and both c1 and c2 are
// safe. Edge weights are action costs. One search core, Search, answers
// every path query: Dijkstra over the SAG yields the Minimum Adaptation
// Path (MAP); Yen's algorithm runs it with node and edge bans to yield
// the k shortest loopless paths used by the failure-recovery ladder ("try
// the second minimum adaptation path", Sec. 4.4); and the planner runs it
// over successors generated on the fly, with or without an A* heuristic,
// for the partial exploration of Sec. 7.
package sag

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/action"
	"repro/internal/model"
)

// Edge is one adaptation step in the graph: applying Action to From yields
// To at the given Cost.
type Edge struct {
	From, To model.Config
	Action   action.Action
}

// Same reports whether e and o are the same adaptation step: the same
// action between the same configurations.
func (e Edge) Same(o Edge) bool {
	return e.From == o.From && e.To == o.To && e.Action.ID == o.Action.ID
}

// Graph is a safe adaptation graph. Construct with Build; read-only
// afterwards and safe for concurrent use.
type Graph struct {
	reg     *model.Registry
	nodes   []model.Config
	index   map[model.Config]int
	out     [][]Edge // adjacency, indexed like nodes
	edgeCnt int
}

// Build constructs the SAG from the safe configuration set and the
// available adaptive actions. Actions that do not map a safe configuration
// to another safe configuration contribute no edges.
func Build(reg *model.Registry, safe []model.Config, actions []action.Action) (*Graph, error) {
	if reg == nil {
		return nil, fmt.Errorf("sag: nil registry")
	}
	if len(safe) == 0 {
		return nil, fmt.Errorf("sag: empty safe configuration set")
	}
	for _, a := range actions {
		if err := a.Validate(reg); err != nil {
			return nil, fmt.Errorf("sag: %w", err)
		}
	}
	g := &Graph{
		reg:   reg,
		nodes: make([]model.Config, len(safe)),
		index: make(map[model.Config]int, len(safe)),
		out:   make([][]Edge, len(safe)),
	}
	copy(g.nodes, safe)
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i] < g.nodes[j] })
	for i, c := range g.nodes {
		if _, dup := g.index[c]; dup {
			return nil, fmt.Errorf("sag: duplicate safe configuration %s", reg.BitVector(c))
		}
		g.index[c] = i
	}
	for i, from := range g.nodes {
		for _, a := range actions {
			to, ok := a.Apply(reg, from)
			if !ok || to == from {
				continue
			}
			if _, safeTo := g.index[to]; !safeTo {
				continue
			}
			g.out[i] = append(g.out[i], Edge{From: from, To: to, Action: a})
			g.edgeCnt++
		}
	}
	return g, nil
}

// Registry returns the registry the graph is defined over.
func (g *Graph) Registry() *model.Registry { return g.reg }

// Nodes returns the safe configurations in ascending order.
func (g *Graph) Nodes() []model.Config {
	out := make([]model.Config, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NumNodes returns the vertex count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the arc count.
func (g *Graph) NumEdges() int { return g.edgeCnt }

// HasNode reports whether c is a vertex of the graph.
func (g *Graph) HasNode(c model.Config) bool {
	_, ok := g.index[c]
	return ok
}

// OutEdges returns the arcs leaving c.
func (g *Graph) OutEdges(c model.Config) []Edge {
	i, ok := g.index[c]
	if !ok {
		return nil
	}
	out := make([]Edge, len(g.out[i]))
	copy(out, g.out[i])
	return out
}

// Path is a sequence of adaptation steps from a source to a target
// configuration.
type Path struct {
	// Steps are the edges traversed, in order. An empty Steps means source
	// equals target.
	Steps []Edge
}

// Cost returns the total cost of the path.
func (p Path) Cost() time.Duration {
	var total time.Duration
	for _, e := range p.Steps {
		total += e.Action.Cost
	}
	return total
}

// Configs returns the configuration sequence visited by the path,
// including source and target. For an empty path it returns nil.
func (p Path) Configs() []model.Config {
	if len(p.Steps) == 0 {
		return nil
	}
	out := make([]model.Config, 0, len(p.Steps)+1)
	out = append(out, p.Steps[0].From)
	for _, e := range p.Steps {
		out = append(out, e.To)
	}
	return out
}

// ActionIDs returns the action identifiers along the path, e.g.
// ["A2","A17","A1","A16","A4"].
func (p Path) ActionIDs() []string {
	out := make([]string, len(p.Steps))
	for i, e := range p.Steps {
		out[i] = e.Action.ID
	}
	return out
}

// String renders the path as "A2, A17, A1, A16, A4 (cost 50ms)".
func (p Path) String() string {
	if len(p.Steps) == 0 {
		return "<empty path>"
	}
	return strings.Join(p.ActionIDs(), ", ") + fmt.Sprintf(" (cost %v)", p.Cost())
}

// ErrNoPath is returned when the target is unreachable from the source.
type ErrNoPath struct {
	Source, Target string
}

// Error implements error.
func (e *ErrNoPath) Error() string {
	return fmt.Sprintf("sag: no adaptation path from %s to %s", e.Source, e.Target)
}

// ShortestPath returns the minimum adaptation path (MAP) from source to
// target: Search with no heuristic (Dijkstra) over the SAG's adjacency,
// so ties go to fewer steps, then the smaller action ID on the last step.
func (g *Graph) ShortestPath(source, target model.Config) (Path, error) {
	if _, ok := g.index[source]; !ok {
		return Path{}, fmt.Errorf("sag: source %s is not a safe configuration", g.reg.BitVector(source))
	}
	if _, ok := g.index[target]; !ok {
		return Path{}, fmt.Errorf("sag: target %s is not a safe configuration", g.reg.BitVector(target))
	}
	return g.search(source, target, nil)
}

// succ is the Successors function over the SAG's adjacency.
func (g *Graph) succ(c model.Config, _ []Edge) []Edge { return g.out[g.index[c]] }

// search runs Search over the SAG, reporting an unreachable target as
// *ErrNoPath.
func (g *Graph) search(source, target model.Config, admit func(Edge) bool) (Path, error) {
	path, _, ok := Search(source, target, g.succ, admit, nil)
	if !ok {
		return Path{}, &ErrNoPath{Source: g.reg.BitVector(source), Target: g.reg.BitVector(target)}
	}
	return path, nil
}
