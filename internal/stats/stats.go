// Package stats provides the statistics used in the paper's evaluation:
// relative prediction error (RPE), signed-bucket histograms (Fig. 3), and
// summary aggregates.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// RPE computes the paper's relative prediction error for a lower-bound
// runtime model:
//
//	RPE = (measured - predicted) / measured
//
// Positive values (prediction faster than measurement) plot right of zero
// in Fig. 3 and are the desired direction for a lower bound; values below
// -1 mean the prediction was slower than the measurement by more than a
// factor of two.
func RPE(measured, predicted float64) float64 {
	if measured == 0 {
		return 0
	}
	return (measured - predicted) / measured
}

// Histogram is a fixed-bucket histogram over RPE values, bucket width 0.1,
// clamped to [-1.0, +1.0] with overflow buckets at both ends (the paper's
// far-left bucket collects everything below -1.0).
type Histogram struct {
	// Counts[i] covers [Lo+i*Width, Lo+(i+1)*Width).
	Counts []int
	Lo     float64
	Width  float64
	// UnderflowCount collects values < Lo; OverflowCount values >= Hi.
	UnderflowCount int
	OverflowCount  int
	N              int
}

// NewHistogram builds an RPE histogram with the paper's binning.
func NewHistogram() *Histogram {
	return &Histogram{Counts: make([]int, 20), Lo: -1.0, Width: 0.1}
}

// Add inserts a value.
func (h *Histogram) Add(v float64) {
	h.N++
	idx := int(math.Floor((v - h.Lo) / h.Width))
	switch {
	case idx < 0:
		h.UnderflowCount++
	case idx >= len(h.Counts):
		h.OverflowCount++
	default:
		h.Counts[idx]++
	}
}

// AddAll inserts all values.
func (h *Histogram) AddAll(vs []float64) {
	for _, v := range vs {
		h.Add(v)
	}
}

// BucketLabel names bucket i ("[-0.3,-0.2)").
func (h *Histogram) BucketLabel(i int) string {
	lo := h.Lo + float64(i)*h.Width
	return fmt.Sprintf("[%+.1f,%+.1f)", lo, lo+h.Width)
}

// Render draws an ASCII histogram, marking the zero line.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 50
	}
	max := h.UnderflowCount
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	if h.OverflowCount > max {
		max = h.OverflowCount
	}
	if max == 0 {
		max = 1
	}
	var sb strings.Builder
	bar := func(label string, c int) {
		n := c * width / max
		fmt.Fprintf(&sb, "%14s |%-*s| %d\n", label, width, strings.Repeat("#", n), c)
	}
	bar("< -1.0", h.UnderflowCount)
	for i := range h.Counts {
		if i == len(h.Counts)/2 {
			fmt.Fprintf(&sb, "%14s +%s+ (prediction faster than measurement ->)\n", "zero", strings.Repeat("-", width))
		}
		bar(h.BucketLabel(i), h.Counts[i])
	}
	bar(">= +1.0", h.OverflowCount)
	return sb.String()
}

// Summary aggregates an RPE sample the way the paper reports it.
type Summary struct {
	N int
	// RightFrac is the fraction of under-predictions (RPE >= 0).
	RightFrac float64
	// Within10 / Within20 are fractions with 0 <= RPE <= 0.1 / 0.2.
	Within10, Within20 float64
	// FarLeft counts predictions off by more than 2x (RPE < -1).
	FarLeft int
	// MeanAbs is the global (absolute) mean RPE.
	MeanAbs float64
	// MeanRight is the mean RPE over under-predictions only.
	MeanRight float64
	Median    float64
}

// Summarize computes the paper's aggregates. A small tolerance treats
// numerically-zero errors as under-predictions.
func Summarize(rpes []float64) Summary {
	const tol = 5e-3
	s := Summary{N: len(rpes)}
	if s.N == 0 {
		return s
	}
	sorted := append([]float64(nil), rpes...)
	sort.Float64s(sorted)
	s.Median = sorted[s.N/2]
	var right, w10, w20 int
	var sumAbs, sumRight float64
	var nRight int
	for _, v := range rpes {
		sumAbs += math.Abs(v)
		if v >= -tol {
			right++
			sumRight += math.Max(v, 0)
			nRight++
			if v <= 0.10 {
				w10++
			}
			if v <= 0.20 {
				w20++
			}
		}
		if v < -1 {
			s.FarLeft++
		}
	}
	s.RightFrac = float64(right) / float64(s.N)
	s.Within10 = float64(w10) / float64(s.N)
	s.Within20 = float64(w20) / float64(s.N)
	s.MeanAbs = sumAbs / float64(s.N)
	if nRight > 0 {
		s.MeanRight = sumRight / float64(nRight)
	}
	return s
}

// String formats the summary as one report line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d right=%.0f%% within+10%%=%.0f%% within+20%%=%.0f%% far-left=%d mean|RPE|=%.0f%% meanRight=%.0f%% median=%+.2f",
		s.N, 100*s.RightFrac, 100*s.Within10, 100*s.Within20, s.FarLeft, 100*s.MeanAbs, 100*s.MeanRight, s.Median)
}
