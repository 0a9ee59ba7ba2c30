// Package bw implements the node-level memory bandwidth benchmark used
// for Table I's "measured bandwidth" row: a STREAM-triad-shaped workload
// swept across core counts on the memsim substrate, reporting the
// saturated useful bandwidth.
package bw

import (
	"fmt"

	"incore/internal/memsim"
	"incore/internal/nodes"
	"incore/internal/pipeline"
)

// Point is one core-count sample of the scaling curve.
type Point struct {
	Cores     int
	UsefulGBs float64
	// TrafficGBs includes write-allocate overhead.
	TrafficGBs float64
}

// Result is a full scaling run for one node.
type Result struct {
	Key    string
	Points []Point
	// PeakGBs is the maximum useful bandwidth over the sweep.
	PeakGBs float64
	// TheoreticalGBs is the pin-limit bandwidth.
	TheoreticalGBs float64
}

// linesPerCore keeps the run fast while staying far above the scaled
// cache capacity.
const linesPerCore = 8192

// MeasureTriad sweeps the triad benchmark over core counts. NT stores are
// used wherever memsim's calibrated policy does not claim lines
// automatically (the x86 systems: the STREAM convention with streaming
// stores); Grace's automatic claim achieves the same with standard stores.
//
// Samples are submitted through the shared pipeline: they run on the
// default pool (serial unless the caller widened it) and each (node,
// cores) point is memoized process-wide, so repeated sweeps — Table I
// after the bandwidth tests, say — cost one simulation each.
func MeasureTriad(key string, counts []int) (*Result, error) {
	n, err := nodes.Get(key)
	if err != nil {
		return nil, err
	}
	cfg, err := memsim.ConfigFor(key)
	if err != nil {
		return nil, err
	}
	nt := cfg.Policy != memsim.PolicyAutoClaim
	res := &Result{Key: key, TheoreticalGBs: n.TheoreticalBandwidthGBs()}
	points, err := pipeline.Map(pipeline.Default(), counts, func(c int) (Point, error) {
		tr, err := pipeline.Triad(key, c, linesPerCore, nt)
		if err != nil {
			return Point{}, fmt.Errorf("bw: %s at %d cores: %w", key, c, err)
		}
		return Point{Cores: c, UsefulGBs: tr.UsefulGBs(), TrafficGBs: tr.TrafficGBs()}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Points = points
	for _, p := range points {
		if p.UsefulGBs > res.PeakGBs {
			res.PeakGBs = p.UsefulGBs
		}
	}
	return res, nil
}

// MeasureNode runs the default sweep for a node.
func MeasureNode(key string) (*Result, error) {
	n, err := nodes.Get(key)
	if err != nil {
		return nil, err
	}
	return MeasureTriad(key, memsim.DefaultCounts(n.Cores))
}
