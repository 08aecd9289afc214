package planner

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/action"
	"repro/internal/invariant"
	"repro/internal/model"
	"repro/internal/sag"
)

// randomSystem builds a random adaptive system: n components in
// oneof-groups of random sizes, with replace actions between group
// members and occasional compound actions, all with random costs.
func randomSystem(t *testing.T, rng *rand.Rand) (*Planner, []model.Config) {
	t.Helper()
	nGroups := 2 + rng.Intn(3) // 2..4 groups
	var comps []model.Component
	var invs []invariant.Invariant
	groups := make([][]string, nGroups)
	for g := 0; g < nGroups; g++ {
		size := 2 + rng.Intn(2) // 2..3 members
		names := make([]string, size)
		for m := 0; m < size; m++ {
			name := fmt.Sprintf("C%d_%d", g, m)
			names[m] = name
			comps = append(comps, model.Component{
				Name:    name,
				Process: fmt.Sprintf("p%d", g%2),
			})
		}
		groups[g] = names
		pred := "oneof(" + names[0]
		for _, n := range names[1:] {
			pred += ", " + n
		}
		pred += ")"
		inv, err := invariant.NewStructural(fmt.Sprintf("g%d", g), pred)
		if err != nil {
			t.Fatal(err)
		}
		invs = append(invs, inv)
	}
	reg, err := model.NewRegistry(comps...)
	if err != nil {
		t.Fatal(err)
	}
	set, err := invariant.NewSet(reg, invs...)
	if err != nil {
		t.Fatal(err)
	}

	var actions []action.Action
	id := 0
	cost := func() time.Duration { return time.Duration(1+rng.Intn(40)) * time.Millisecond }
	for _, names := range groups {
		for i := range names {
			for j := range names {
				if i == j || rng.Intn(3) == 0 { // drop some edges randomly
					continue
				}
				id++
				actions = append(actions, action.MustNew(
					fmt.Sprintf("X%d", id), names[i]+" -> "+names[j], cost(), ""))
			}
		}
	}
	// A couple of compound cross-group actions.
	for c := 0; c < 2 && nGroups >= 2; c++ {
		a, b := groups[0], groups[1]
		id++
		actions = append(actions, action.MustNew(
			fmt.Sprintf("X%d", id),
			fmt.Sprintf("(%s, %s) -> (%s, %s)", a[0], b[0], a[1], b[1]),
			cost(), ""))
	}

	p, err := New(set, actions)
	if err != nil {
		t.Fatal(err)
	}
	return p, p.SafeConfigs()
}

// TestPropertyPlannersAgreeOnRandomSystems: for random systems and random
// safe source/target pairs, the eager SAG+Dijkstra pipeline, the lazy
// search, A* and Yen's k-shortest paths either all fail (no path) or all
// agree. They share one search core and its tie-break, so Plan, PlanLazy
// and the first alternative are the identical path; A* orders equal-f
// entries differently and only has to match the cost; and the
// alternatives' costs by rank match a brute-force enumeration of the
// loopless paths.
func TestPropertyPlannersAgreeOnRandomSystems(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(20040628)) // DSN 2004's opening day
	for trial := 0; trial < 60; trial++ {
		p, safe := randomSystem(t, rng)
		if len(safe) < 2 {
			continue
		}
		g, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		for pair := 0; pair < 8; pair++ {
			src := safe[rng.Intn(len(safe))]
			tgt := safe[rng.Intn(len(safe))]
			where := fmt.Sprintf("trial %d %s->%s", trial, p.Registry().BitVector(src), p.Registry().BitVector(tgt))

			eager, errE := p.Plan(src, tgt)
			lazy, errL := p.PlanLazy(src, tgt)
			astar, errA := p.PlanAStar(src, tgt)
			alts, errK := p.Alternatives(src, tgt, k)

			if (errE == nil) != (errL == nil) || (errE == nil) != (errA == nil) || (errE == nil) != (errK == nil) {
				t.Fatalf("%s: reachability disagreement %v / %v / %v / %v", where, errE, errL, errA, errK)
			}
			if errE != nil {
				continue
			}
			want := strings.Join(eager.ActionIDs(), ",")
			if got := strings.Join(lazy.ActionIDs(), ","); got != want {
				t.Fatalf("%s: PlanLazy %s, Plan %s", where, got, want)
			}
			if got := strings.Join(alts[0].ActionIDs(), ","); got != want {
				t.Fatalf("%s: Alternatives[0] %s, Plan %s", where, got, want)
			}
			if eager.Cost() != astar.Cost() {
				t.Fatalf("%s: costs %v / %v", where, eager.Cost(), astar.Cost())
			}
			brute := kLooplessCosts(g, src, tgt, k)
			if len(alts) != len(brute) {
				t.Fatalf("%s: %d alternatives, brute force finds %d", where, len(alts), len(brute))
			}
			for i, path := range alts {
				if path.Cost() != brute[i] {
					t.Fatalf("%s: alternative %d costs %v, brute force %v", where, i, path.Cost(), brute[i])
				}
			}
			// Validate the A* path executes and stays safe (eager and
			// lazy paths are validated by their own package tests).
			cur := src
			for _, e := range astar.Steps {
				next, ok := e.Action.Apply(p.Registry(), cur)
				if !ok || !p.Invariants().Satisfied(next) {
					t.Fatalf("%s: A* path unsafe at %s", where, e.Action.ID)
				}
				cur = next
			}
			if cur != tgt {
				t.Fatalf("%s: A* path misses target", where)
			}
		}
	}
}

// kLooplessCosts enumerates the loopless paths from src to tgt in g,
// cheapest first, and returns the k smallest costs. It grows every
// loopless partial path without sharing labels between them, ordered by
// cost plus the Bellman-Ford distance left to tgt; that bound is exact
// on the relaxed problem, so complete paths come out in cost order.
func kLooplessCosts(g *sag.Graph, src, tgt model.Config, k int) []time.Duration {
	const inf = time.Duration(1<<63 - 1)
	nodes := g.Nodes()
	toTgt := make(map[model.Config]time.Duration, len(nodes))
	for _, c := range nodes {
		toTgt[c] = inf
	}
	toTgt[tgt] = 0
	for changed := true; changed; {
		changed = false
		for _, c := range nodes {
			for _, e := range g.OutEdges(c) {
				if d := toTgt[e.To]; d != inf && e.Action.Cost+d < toTgt[c] {
					toTgt[c] = e.Action.Cost + d
					changed = true
				}
			}
		}
	}

	type partial struct {
		at   model.Config
		cost time.Duration
		prev *partial
	}
	visits := func(p *partial, c model.Config) bool {
		for ; p != nil; p = p.prev {
			if p.at == c {
				return true
			}
		}
		return false
	}
	var costs []time.Duration
	frontier := []*partial{{at: src}}
	if toTgt[src] == inf {
		frontier = nil
	}
	for len(frontier) > 0 && len(costs) < k {
		next := 0
		for i, p := range frontier {
			if p.cost+toTgt[p.at] < frontier[next].cost+toTgt[frontier[next].at] {
				next = i
			}
		}
		p := frontier[next]
		frontier[next] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if p.at == tgt {
			costs = append(costs, p.cost)
			continue
		}
		for _, e := range g.OutEdges(p.at) {
			if toTgt[e.To] != inf && !visits(p, e.To) {
				frontier = append(frontier, &partial{at: e.To, cost: p.cost + e.Action.Cost, prev: p})
			}
		}
	}
	return costs
}

// TestPropertySAGStructureOnRandomSystems: every SAG node is safe, every
// edge's action applies and lands on its recorded target, and edges never
// leave the safe set.
func TestPropertySAGStructureOnRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p, safe := randomSystem(t, rng)
		g, err := p.Graph()
		if err != nil {
			t.Fatal(err)
		}
		safeSet := make(map[model.Config]bool, len(safe))
		for _, c := range safe {
			safeSet[c] = true
		}
		if g.NumNodes() != len(safe) {
			t.Fatalf("trial %d: %d nodes, %d safe configs", trial, g.NumNodes(), len(safe))
		}
		edges := 0
		for _, n := range g.Nodes() {
			if !p.Invariants().Satisfied(n) {
				t.Fatalf("trial %d: unsafe node %s", trial, p.Registry().BitVector(n))
			}
			for _, e := range g.OutEdges(n) {
				edges++
				got, ok := e.Action.Apply(p.Registry(), e.From)
				if !ok || got != e.To {
					t.Fatalf("trial %d: edge %s inconsistent", trial, e.Action.ID)
				}
				if !safeSet[e.To] {
					t.Fatalf("trial %d: edge leaves the safe set", trial)
				}
			}
		}
		if edges != g.NumEdges() {
			t.Fatalf("trial %d: edge count mismatch %d vs %d", trial, edges, g.NumEdges())
		}
	}
}
