package main

import (
	"fmt"
	"time"

	"repro/internal/action"
	"repro/internal/manager"
	"repro/internal/model"
	"repro/internal/paper"
	"repro/internal/planner"
)

// The benchmark drives the paper request (source -> target) and its
// mirror (target -> source) alternately. Table 2 has no actions back, so
// the mirror actions R1-R5, R16 and R17 are the inverses of A1-A5, A16
// and A17 at the same costs. They live here only; internal/paper is the
// paper's data.
var mirrorOf = []string{"A1", "A2", "A3", "A4", "A5", "A16", "A17"}

// Expected plans. The planner breaks ties between the four co-optimal
// 50 ms paths deterministically and returns A2,A17,A1,A4,A16, which
// commutes the independent A16/A4 pair of the paper's A2,A17,A1,A16,A4
// (EXPERIMENTS.md, Sec. 5.1). The mirror plan undoes the same five
// actions, again with the independent pairs commuted by the tie-break.
var (
	forwardPlan = []string{"A2", "A17", "A1", "A4", "A16"}
	mirrorPlan  = []string{"R4", "R16", "R1", "R2", "R17"}
)

const planCost = 50 * time.Millisecond

// request is one adaptation request and the plan the oracle expects.
type request struct {
	source, target model.Config
	plan           []string
}

// scenario is the paper case study with the mirror actions added.
type scenario struct {
	reg      *model.Registry
	plan     *planner.Planner
	requests [2]request // forward, mirror
}

func newScenario() (*scenario, error) {
	sc, err := paper.NewScenario()
	if err != nil {
		return nil, err
	}
	actions := append([]action.Action{}, sc.Actions...)
	for _, id := range mirrorOf {
		for _, a := range sc.Actions {
			if a.ID == id {
				inv := a.Inverse()
				inv.ID = "R" + id[1:]
				actions = append(actions, inv)
			}
		}
	}
	p, err := planner.New(sc.Invariants, actions)
	if err != nil {
		return nil, err
	}
	return &scenario{
		reg:  sc.Registry,
		plan: p,
		requests: [2]request{
			{source: sc.Source, target: sc.Target, plan: forwardPlan},
			{source: sc.Target, target: sc.Source, plan: mirrorPlan},
		},
	}, nil
}

// processOf maps a component to its process, as agents require.
func (s *scenario) processOf(component string) string {
	p, _ := s.reg.ProcessOf(component)
	return p
}

// checkResult is the per-adaptation oracle: completed, at the requested
// target, along the expected 50 ms plan. It does not allocate on success.
func checkResult(req request, res manager.Result, err error) error {
	if err != nil {
		return err
	}
	if !res.Completed || res.Final != req.target {
		return fmt.Errorf("adaptation not completed at the target (completed=%v)", res.Completed)
	}
	ok := len(res.Path.Steps) == len(req.plan) && res.Path.Cost() == planCost
	for i := 0; ok && i < len(req.plan); i++ {
		ok = res.Path.Steps[i].Action.ID == req.plan[i]
	}
	if !ok {
		return fmt.Errorf("plan %v, want %v at %v", res.Path.ActionIDs(), req.plan, planCost)
	}
	return nil
}
