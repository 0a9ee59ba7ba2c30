package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRPESign(t *testing.T) {
	// Prediction faster than measurement (lower bound doing its job):
	// positive RPE, right of zero.
	if rpe := RPE(10, 8); rpe != 0.2 {
		t.Errorf("RPE(10,8) = %f, want 0.2", rpe)
	}
	// Over-prediction: negative.
	if rpe := RPE(10, 12); math.Abs(rpe+0.2) > 1e-12 {
		t.Errorf("RPE(10,12) = %f, want -0.2", rpe)
	}
	// Off by more than 2x: below -1.
	if rpe := RPE(10, 25); rpe >= -1 {
		t.Errorf("RPE(10,25) = %f, want < -1", rpe)
	}
	if RPE(0, 5) != 0 {
		t.Error("zero measurement must not divide by zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	h.Add(-1.5) // underflow
	h.Add(-0.95)
	h.Add(-0.05)
	h.Add(0.05)
	h.Add(0.95)
	h.Add(1.5) // overflow
	if h.UnderflowCount != 1 || h.OverflowCount != 1 {
		t.Errorf("under=%d over=%d", h.UnderflowCount, h.OverflowCount)
	}
	if h.N != 6 {
		t.Errorf("N = %d", h.N)
	}
	if h.Counts[0] != 1 { // [-1.0,-0.9)
		t.Errorf("bucket 0 = %d", h.Counts[0])
	}
	if h.Counts[9] != 1 { // [-0.1,0.0)
		t.Errorf("bucket 9 = %d", h.Counts[9])
	}
	if h.Counts[10] != 1 { // [0.0,0.1)
		t.Errorf("bucket 10 = %d", h.Counts[10])
	}
	if h.Counts[19] != 1 { // [0.9,1.0)
		t.Errorf("bucket 19 = %d", h.Counts[19])
	}
}

func TestHistogramTotalProperty(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram()
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			h.Add(v)
		}
		sum := h.UnderflowCount + h.OverflowCount
		for _, c := range h.Counts {
			sum += c
		}
		return sum == h.N
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram()
	h.AddAll([]float64{0.05, 0.05, 0.15, -0.3})
	out := h.Render(20)
	if !strings.Contains(out, "zero") {
		t.Error("render must mark the zero line")
	}
	if !strings.Contains(out, "#") {
		t.Error("render must draw bars")
	}
	if h.BucketLabel(10) != "[+0.0,+0.1)" {
		t.Errorf("BucketLabel(10) = %q", h.BucketLabel(10))
	}
}

func TestSummarize(t *testing.T) {
	// 3 right (one within 10%, two within 20%), 1 left, 1 far left.
	s := Summarize([]float64{0.05, 0.15, 0.18, -0.4, -1.3})
	if s.N != 5 {
		t.Errorf("N = %d", s.N)
	}
	if math.Abs(s.RightFrac-0.6) > 1e-9 {
		t.Errorf("RightFrac = %f, want 0.6", s.RightFrac)
	}
	if math.Abs(s.Within10-0.2) > 1e-9 {
		t.Errorf("Within10 = %f, want 0.2", s.Within10)
	}
	if math.Abs(s.Within20-0.6) > 1e-9 {
		t.Errorf("Within20 = %f, want 0.6", s.Within20)
	}
	if s.FarLeft != 1 {
		t.Errorf("FarLeft = %d, want 1", s.FarLeft)
	}
	if s.String() == "" {
		t.Error("summary string empty")
	}
}

func TestSummarizeToleratesNumericZero(t *testing.T) {
	s := Summarize([]float64{-1e-9, -0.004})
	if s.RightFrac != 1.0 {
		t.Errorf("numerically-zero errors must count as under-predictions: %f", s.RightFrac)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Error("empty summary")
	}
}

func TestMedian(t *testing.T) {
	s := Summarize([]float64{5, 1, 3})
	if s.Median != 3 {
		t.Errorf("median = %f", s.Median)
	}
}
