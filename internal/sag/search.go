package sag

import (
	"time"

	"repro/internal/model"
)

// Successors appends the arcs leaving c to buf and returns the result.
// A successor function over a built graph may ignore buf and return its
// own adjacency, which Search only reads.
type Successors func(c model.Config, buf []Edge) []Edge

// Search is the one minimum-cost path search behind every
// adaptation-path query: ShortestPath and Yen's spur searches over a built
// SAG, and the planner's lazy and A* searches, which generate the graph as
// they go (paper Sec. 4.2 step 3, Sec. 4.4, Sec. 7).
//
// succ generates the arcs leaving a configuration. admit, when non-nil,
// rejects arcs; it is only asked about arcs into configurations not yet
// settled. h, when non-nil, is a consistent lower bound on the cost left
// to target; nil gives Dijkstra.
//
// Among equal-cost paths Search prefers fewer steps, then the smaller
// action ID on the last step, so results are stable across runs. Equal-f
// queue entries pop deeper first, which lets A* settle the target without
// expanding every co-optimal frontier.
//
// Search returns the path, how many configurations it labelled (source
// included), and whether target was reached.
func Search(source, target model.Config, succ Successors, admit func(Edge) bool, h func(model.Config) time.Duration) (Path, int, bool) {
	if source == target {
		return Path{}, 1, true
	}
	type label struct {
		cfg  model.Config
		g    time.Duration
		hops int
		prev int32
		via  Edge
		done bool
	}
	ids := map[model.Config]int32{source: 0}
	labels := []label{{cfg: source, prev: -1}}
	pq := searchHeap{{node: 0}}
	var buf []Edge
	for len(pq) > 0 {
		u := pq.pop().node
		if labels[u].done {
			continue
		}
		labels[u].done = true
		if labels[u].cfg == target {
			steps := make([]Edge, labels[u].hops)
			for at := u; at != 0; at = labels[at].prev {
				steps[labels[at].hops-1] = labels[at].via
			}
			return Path{Steps: steps}, len(labels), true
		}
		buf = succ(labels[u].cfg, buf[:0])
		for i := range buf {
			e := &buf[i]
			v, seen := ids[e.To]
			if seen && labels[v].done {
				continue
			}
			if admit != nil && !admit(*e) {
				continue
			}
			ng, nh := labels[u].g+e.Action.Cost, labels[u].hops+1
			if !seen {
				v = int32(len(labels))
				ids[e.To] = v
				labels = append(labels, label{cfg: e.To, g: ng, hops: nh, prev: u, via: *e})
			} else if l := &labels[v]; ng < l.g {
				*l = label{cfg: e.To, g: ng, hops: nh, prev: u, via: *e}
			} else {
				// A tie-break win keeps the key, so v's queued entry stands.
				if ng == l.g && (nh < l.hops || nh == l.hops && e.Action.ID < l.via.Action.ID) {
					*l = label{cfg: e.To, g: ng, hops: nh, prev: u, via: *e}
				}
				continue
			}
			f := ng
			if h != nil {
				f += h(e.To)
			}
			pq.push(searchEntry{f: f, g: ng, node: v})
		}
	}
	return Path{}, len(labels), false
}

// searchEntry is a queue entry: a labelled configuration keyed by its
// estimated total cost f = g + h.
type searchEntry struct {
	f, g time.Duration
	node int32
}

// searchHeap is a binary min-heap on (f, then larger g).
type searchHeap []searchEntry

func (q searchHeap) less(i, j int) bool {
	return q[i].f < q[j].f || q[i].f == q[j].f && q[i].g > q[j].g
}

func (q *searchHeap) push(e searchEntry) {
	*q = append(*q, e)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *searchHeap) pop() searchEntry {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}
