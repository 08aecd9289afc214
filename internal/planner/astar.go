package planner

import (
	"math/bits"
	"time"

	"repro/internal/model"
	"repro/internal/sag"
)

// PlanAStar finds the minimum adaptation path with A* search, the
// heuristic-guided partial exploration the paper proposes for large
// systems (Sec. 7). Like PlanLazy it never materializes the SAG; unlike
// plain uniform-cost search it orders expansion by f = g + h with an
// admissible heuristic, so it explores only configurations that could lie
// on an optimal path toward the target.
//
// The heuristic is derived from the action table: if the cheapest action
// costs cMin and no action changes more than kMax component memberships,
// then reaching a configuration at Hamming distance d from the target
// needs at least ceil(d/kMax) more steps, i.e. h(c) = ceil(d/kMax)·cMin.
// This underestimates the true remaining cost (admissible), so A*
// returns a cost-optimal path.
func (p *Planner) PlanAStar(source, target model.Config) (sag.Path, error) {
	if err := p.checkSafe("source", source); err != nil {
		return sag.Path{}, err
	}
	if err := p.checkSafe("target", target); err != nil {
		return sag.Path{}, err
	}
	if source == target {
		return sag.Path{}, nil
	}

	cMin := time.Duration(1<<63 - 1)
	kMax := 1
	for _, a := range p.actions {
		if a.Cost < cMin {
			cMin = a.Cost
		}
		// Each op changes at most 2 memberships (replace); insert/remove
		// change 1.
		k := 0
		for _, op := range a.Ops {
			if op.Old != "" {
				k++
			}
			if op.New != "" {
				k++
			}
		}
		if k > kMax {
			kMax = k
		}
	}
	h := func(c model.Config) time.Duration {
		d := bits.OnesCount64(uint64(c ^ target))
		if d == 0 {
			return 0
		}
		steps := (d + kMax - 1) / kMax
		return time.Duration(steps) * cMin
	}
	path, _, err := p.search(source, target, h)
	return path, err
}
