package serve

import "haxconn/internal/nn"

// Test seams over the index-keyed state of runtimes and caches, so tests
// keep naming networks and mixes by string.

// zooIndex is nn.Index for a network the test knows is in the zoo.
func zooIndex(network string) int {
	i, ok := nn.Index(network)
	if !ok {
		panic("serve test: " + network + " is not in the zoo")
	}
	return i
}

// setStandalone injects a network's standalone service estimate (and a
// zero demand estimate), as if the runtime had characterized it.
func setStandalone(r *Runtime, network string, ms float64) {
	r.estimates()[zooIndex(network)] = netEstimate{standaloneMs: ms}
}

// failCharacterize injects a network's characterization failure into the
// runtime's negative cache.
func failCharacterize(r *Runtime, network string, err error) {
	if r.estErr == nil {
		r.estErr = make([]error, nn.Count())
	}
	r.estErr[zooIndex(network)] = err
}

// setPending replaces the runtime's pending queue, resolving each request's
// network to its zoo index as admission does.
func setPending(r *Runtime, reqs []Request) {
	r.pending, r.nets = reqs, nil
	for _, q := range reqs {
		r.nets = append(r.nets, zooIndex(q.Network))
	}
}

// liveEntry returns the cache's live entry for a mix, nil when it holds
// none. It walks the mix trie without adding to it.
func liveEntry(c *Cache, networks []string) *Entry {
	mix, err := resolve(nil, networks)
	if err != nil || len(c.slots) == 0 {
		return nil
	}
	n := int32(0)
	for _, i := range mix {
		a := c.slots[n].kids
		if a == 0 {
			return nil
		}
		if n = c.kids[int(a-1)*nn.Count()+i]; n == 0 {
			return nil
		}
	}
	return c.slots[n].live
}

// liveProbes counts the cache's scoring probes slot by slot.
func liveProbes(c *Cache) int {
	n := 0
	for _, sl := range c.slots {
		if sl.probe != nil {
			n++
		}
	}
	return n
}

// reset begins a round over candidates built without their zoo indices,
// as tests build them: each network is resolved by name, -1 outside the
// zoo, into the round's int arena. Step begins rounds with the indices
// admission resolved.
func (a *scoreArena) reset(cands []Candidate, startMs float64) {
	a.begin(cands, nil, startMs)
	a.nets = carveRaw(&a.ints, len(cands))
	for k, c := range cands {
		i, ok := nn.Index(c.Network)
		if !ok {
			i = -1
		}
		a.nets[k] = i
	}
}
