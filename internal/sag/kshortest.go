package sag

import (
	"sort"

	"repro/internal/model"
)

// KShortestPaths returns up to k loopless shortest paths from source to
// target in ascending cost order, computed with Yen's algorithm: each
// spur search is Search over the SAG with the banned nodes and edges as
// its admit filter. The first path equals ShortestPath's result.
// The failure-recovery ladder uses index 1 ("the second minimum adaptation
// path", paper Sec. 4.4) and beyond. It returns *ErrNoPath when not even
// one path exists.
func (g *Graph) KShortestPaths(source, target model.Config, k int) ([]Path, error) {
	if k <= 0 {
		return nil, nil
	}
	first, err := g.ShortestPath(source, target)
	if err != nil {
		return nil, err
	}
	paths := []Path{first}
	if k == 1 || len(first.Steps) == 0 {
		return paths, nil
	}

	var candidates []Path
	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevConfigs := prev.Configs()
		// For each spur node in the previous path...
		for i := 0; i < len(prev.Steps); i++ {
			spur := prevConfigs[i]
			rootSteps := prev.Steps[:i]

			// Ban edges that would recreate any already-accepted path
			// sharing this root, and the root nodes (except the spur
			// itself) to keep paths loopless.
			var bannedEdges []Edge
			for _, p := range paths {
				if len(p.Steps) > i && sameSteps(p.Steps[:i], rootSteps) {
					bannedEdges = append(bannedEdges, p.Steps[i])
				}
			}
			bannedNodes := prevConfigs[:i]
			spurPath, spurErr := g.search(spur, target, func(e Edge) bool {
				for _, c := range bannedNodes {
					if e.To == c {
						return false
					}
				}
				for _, b := range bannedEdges {
					if e.Same(b) {
						return false
					}
				}
				return true
			})
			if spurErr != nil {
				continue // no spur path; try next spur node
			}
			total := Path{Steps: make([]Edge, 0, len(rootSteps)+len(spurPath.Steps))}
			total.Steps = append(total.Steps, rootSteps...)
			total.Steps = append(total.Steps, spurPath.Steps...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			ca, cb := candidates[a].Cost(), candidates[b].Cost()
			if ca != cb {
				return ca < cb
			}
			if la, lb := len(candidates[a].Steps), len(candidates[b].Steps); la != lb {
				return la < lb
			}
			return lessActionIDs(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths, nil
}

func sameSteps(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Same(b[i]) {
			return false
		}
	}
	return true
}

func containsPath(paths []Path, p Path) bool {
	for _, q := range paths {
		if sameSteps(q.Steps, p.Steps) {
			return true
		}
	}
	return false
}

func lessActionIDs(a, b Path) bool {
	for i := range a.Steps {
		if i >= len(b.Steps) {
			return false
		}
		if a.Steps[i].Action.ID != b.Steps[i].Action.ID {
			return a.Steps[i].Action.ID < b.Steps[i].Action.ID
		}
	}
	return len(a.Steps) < len(b.Steps)
}
