package pipeline

import (
	"fmt"
	"sync"
)

// Graph is a set of named, independent jobs executed on a Pool with at
// most Workers() jobs running at once. Results are retrieved by job id,
// so consumers control output order independently of execution order.
type Graph struct {
	pool  *Pool
	nodes map[string]*gnode
	order []string
	ran   bool
}

type gnode struct {
	fn  func() (any, error)
	val any
	err error
}

// NewGraph returns an empty graph scheduled on pool p (nil: Default()).
func NewGraph(p *Pool) *Graph {
	if p == nil {
		p = Default()
	}
	return &Graph{pool: p, nodes: map[string]*gnode{}}
}

// Add registers job id.
func (g *Graph) Add(id string, fn func() (any, error)) error {
	if _, dup := g.nodes[id]; dup {
		return fmt.Errorf("pipeline: duplicate job %q", id)
	}
	g.nodes[id] = &gnode{fn: fn}
	g.order = append(g.order, id)
	return nil
}

// Run executes every job and blocks until all finished. Run returns the
// error of the earliest-added failing job, or nil. Run may be called
// once.
func (g *Graph) Run() error {
	if g.ran {
		return fmt.Errorf("pipeline: graph already ran")
	}
	g.ran = true
	// Draw from the pool's shared semaphore so graph jobs and any Map
	// calls they make compete for the same -j slots. (Map inside a job
	// is fine — it never blocks on the semaphore; a nested Graph.Run on
	// the same pool is not supported, as blocked slot-holders could
	// starve it.)
	sem := g.pool.sem
	var wg sync.WaitGroup
	for _, id := range g.order {
		n := g.nodes[id]
		wg.Add(1)
		go func(n *gnode) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			n.val, n.err = n.fn()
		}(n)
	}
	wg.Wait()
	for _, id := range g.order {
		if err := g.nodes[id].err; err != nil {
			return err
		}
	}
	return nil
}

// Result returns the value and error of job id after Run.
func (g *Graph) Result(id string) (any, error) {
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("pipeline: unknown job %q", id)
	}
	return n.val, n.err
}
