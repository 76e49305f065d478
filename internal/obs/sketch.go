// Streaming quantile sketch: a DDSketch-style logarithmic-bucket
// histogram with relative-error quantile guarantees in O(1) memory.
package obs

import "math"

// DefaultSketchAccuracy is the relative-error bound of NewSketch: a
// reported q-quantile is within ±0.5% of the exact one.
const DefaultSketchAccuracy = 0.005

// Sketch bucket range: latencies in the serving stack are milliseconds on
// a virtual timeline, so [1µs, 10⁷ms ≈ 2.8h] covers every realistic value.
// Values below the floor land in the underflow bucket (reported as
// sketchMinMs); values above the ceiling clamp to the top bucket.
const (
	sketchMinMs = 1e-3
	sketchMaxMs = 1e7
)

// Sketch is a deterministic fixed-size quantile accumulator. Values map
// to geometric buckets of ratio γ = (1+α)/(1-α); a quantile answer is the
// representative value of the bucket holding the target rank, which is
// within relative error α of the exact order statistic. Memory is
// constant in the number of observations (2,305 buckets, 18 KiB).
// Insertion order does not matter, so results are deterministic across
// runs by construction.
//
// Quantile uses the same nearest-rank rule as schedule.Percentile
// (idx = ceil(q·n) − 1), so sketch-mode percentiles converge to the exact
// path's answers as α → 0.
type Sketch struct {
	buckets []uint64

	count    uint64
	sum      float64
	min, max float64
}

// Every sketch shares one bucket layout. The ratio and its log are float64
// arithmetic on a variable, evaluated at run time: a constant expression
// would round the ratio 1 ULP higher and move the bucket edges. Bucket 0 is
// the underflow bucket for values ≤ sketchMinMs; bucket k (k ≥ 1) covers
// (min·γ^(k−1), min·γ^k].
var (
	sketchAlpha    float64 = DefaultSketchAccuracy
	sketchGamma            = (1 + sketchAlpha) / (1 - sketchAlpha)
	sketchLogGamma         = math.Log(sketchGamma)
	sketchBuckets          = int(math.Ceil(math.Log(sketchMaxMs/sketchMinMs)/sketchLogGamma)) + 2
)

// NewSketch returns an empty sketch with DefaultSketchAccuracy.
func NewSketch() *Sketch {
	return &Sketch{
		buckets: make([]uint64, sketchBuckets),
		min:     math.Inf(1),
		max:     math.Inf(-1),
	}
}

// Add records one observation. Negative and NaN values are ignored.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) || v < 0 {
		return
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.buckets[s.bucketIndex(v)]++
}

// Merge adds o's observations to s: bucket counts, count and sum add, and
// min and max combine, so s then answers every quantile exactly as one
// sketch fed both streams would (DDSketch's mergeability). Only the sum
// depends on the merge order: it adds o's total in one step.
func (s *Sketch) Merge(o *Sketch) {
	for k, c := range o.buckets {
		s.buckets[k] += c
	}
	s.count += o.count
	s.sum += o.sum
	// Add's comparisons, so an equal extreme keeps the earlier stream's.
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

func (s *Sketch) bucketIndex(v float64) int {
	if v <= sketchMinMs {
		return 0
	}
	k := int(math.Ceil(math.Log(v/sketchMinMs) / sketchLogGamma))
	if k < 1 {
		k = 1
	}
	if k >= len(s.buckets) {
		k = len(s.buckets) - 1
	}
	return k
}

// bucketValue is the representative of bucket k: the geometric midpoint
// of its range, which bounds relative error by α for in-range values.
func (s *Sketch) bucketValue(k int) float64 {
	if k == 0 {
		return sketchMinMs
	}
	// Midpoint of (min·γ^(k−1), min·γ^k] is min·γ^(k−1)·2γ/(γ+1).
	return sketchMinMs * math.Pow(sketchGamma, float64(k-1)) * 2 * sketchGamma / (sketchGamma + 1)
}

// Count returns the number of observations.
func (s *Sketch) Count() int { return int(s.count) }

// Sum returns the exact sum of observations.
func (s *Sketch) Sum() float64 { return s.sum }

// Mean returns the exact mean (0 when empty).
func (s *Sketch) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// Min returns the exact minimum observation (0 when empty).
func (s *Sketch) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the exact maximum observation (0 when empty).
func (s *Sketch) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Quantile returns the q-quantile (q in [0,1]) under the nearest-rank
// rule, clamped to the exact observed [min, max]. Returns 0 when empty.
func (s *Sketch) Quantile(q float64) float64 {
	if s.count == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(s.count))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= int(s.count) {
		rank = int(s.count) - 1
	}
	var seen uint64
	for k, c := range s.buckets {
		seen += c
		if int(seen) > rank {
			v := s.bucketValue(k)
			// The exact extremes are tracked, so never report outside them.
			if v < s.min {
				v = s.min
			}
			if v > s.max {
				v = s.max
			}
			return v
		}
	}
	return s.Max()
}

// MemoryBytes reports the fixed footprint of the bucket array —
// independent of Count, which is the point of the sketch.
func (s *Sketch) MemoryBytes() int { return 8 * len(s.buckets) }
