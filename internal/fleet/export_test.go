package fleet

import "math"

// SetNextRoundHook installs fn as the hook that sees every NextRound
// answer; nil removes it.
func SetNextRoundHook(fn func(f *Fleet, di int, tDev float64)) { nextRoundHook = fn }

// ScanNextRound is NextRound without the cached starts: it asks every
// device that is not removed for its next round start, as the fleet did
// before it cached them. TestNextRoundMatchesScan keeps it as the oracle.
func (f *Fleet) ScanNextRound() (int, float64) {
	di, tDev := -1, math.Inf(1)
	for i, d := range f.devices {
		if f.removed[i] {
			continue
		}
		if s := d.NextStartMs(); s < tDev {
			di, tDev = i, s
		}
	}
	return di, tDev
}
