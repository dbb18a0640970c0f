package dram

import (
	"fmt"
	"math"
	"testing"

	"hammertime/internal/sim"
)

// referenceActivate is the brute-force form of an ACT's electrical
// effect: recharge the aggressor, then walk every distance up to the
// profile's blast radius, lower victim before upper, keeping a victim iff
// ValidRow and SubarrayOf agree it shares the aggressor's subarray, with
// DisturbanceAt computed per victim. Activate's precomputed, range-checked
// loop must match it bit for bit, flip RNG draws included.
func referenceActivate(m *Module, bank, row int, cycle uint64, domain int) []FlipEvent {
	m.disturb[bank*m.rows+row] = 0
	var flips []FlipEvent
	sub := m.geom.SubarrayOf(row)
	for dist := 1; dist <= m.prof.BlastRadius; dist++ {
		amount := m.prof.DisturbanceAt(dist)
		for _, victim := range [2]int{row - dist, row + dist} {
			if !m.geom.ValidRow(victim) || m.geom.SubarrayOf(victim) != sub {
				continue
			}
			flips = append(flips, m.disturbRow(bank, victim, row, amount, cycle, domain)...)
		}
	}
	return flips
}

// edgeRow picks a bank-local row, most of the time at or next to a bank
// or subarray edge, where the victim-range check can go wrong.
func edgeRow(rng *sim.RNG, g Geometry) int {
	rps := g.RowsPerSubarray
	switch rng.Intn(4) {
	case 0:
		last := g.RowsPerBank() - 1
		return min(max([]int{0, 1, last - 1, last}[rng.Intn(4)], 0), last)
	case 1:
		sub := rng.Intn(g.SubarraysPerBank)
		return sub*rps + []int{0, rps - 1, rps / 2}[rng.Intn(3)]
	default:
		return rng.Intn(g.RowsPerBank())
	}
}

// TestActivateMatchesBruteForceBlast drives seeded ACT streams (with
// interleaved REFs) through Activate on one module and through
// referenceActivate on a twin with the same seed, and requires the same
// disturbance vector, bit for bit, and the same flips. The geometries
// include a blast radius at and beyond the subarray height and
// single-row subarrays, where no victim ever qualifies.
func TestActivateMatchesBruteForceBlast(t *testing.T) {
	cases := []struct {
		geom Geometry
		prof DisturbanceProfile
	}{
		{DefaultGeometry(), DDR4Old()},
		{DefaultGeometry(), FutureDense()},
		{Geometry{Banks: 2, SubarraysPerBank: 4, RowsPerSubarray: 4, ColumnsPerRow: 8, LineBytes: 64},
			DisturbanceProfile{Name: "wide", MAC: 3, BlastRadius: 6, DistanceDecay: 0.7, FlipProb: 0.5}},
		{Geometry{Banks: 2, SubarraysPerBank: 5, RowsPerSubarray: 3, ColumnsPerRow: 8, LineBytes: 64},
			DisturbanceProfile{Name: "equal", MAC: 4, BlastRadius: 3, DistanceDecay: 0.5, FlipProb: 0.5}},
		{Geometry{Banks: 3, SubarraysPerBank: 6, RowsPerSubarray: 1, ColumnsPerRow: 8, LineBytes: 64},
			DisturbanceProfile{Name: "single-row", MAC: 2, BlastRadius: 2, DistanceDecay: 0.5, FlipProb: 0.5}},
		{Geometry{Banks: 2, SubarraysPerBank: 1, RowsPerSubarray: 9, ColumnsPerRow: 8, LineBytes: 64},
			DisturbanceProfile{Name: "one-subarray", MAC: 5, BlastRadius: 4, DistanceDecay: 0.6, FlipProb: 0.3}},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/%dx%dx%d", tc.prof.Name, tc.geom.Banks, tc.geom.SubarraysPerBank, tc.geom.RowsPerSubarray)
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				got, err := NewModule(Config{Geometry: tc.geom, Profile: tc.prof, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				want, err := NewModule(Config{Geometry: tc.geom, Profile: tc.prof, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				sameDisturb := func(at int) {
					t.Helper()
					for idx := range got.disturb {
						if math.Float64bits(got.disturb[idx]) != math.Float64bits(want.disturb[idx]) {
							t.Fatalf("seed %d step %d: disturb[bank %d row %d] = %v, reference %v",
								seed, at, idx/got.rows, idx%got.rows, got.disturb[idx], want.disturb[idx])
						}
					}
				}
				rng := sim.NewRNG(seed)
				for i := 0; i < 3000; i++ {
					if i%100 == 0 {
						sameDisturb(i)
					}
					cycle := uint64(i) * 50
					if rng.Intn(64) == 0 {
						got.Refresh(cycle)
						want.Refresh(cycle)
						continue
					}
					bank := rng.Intn(tc.geom.Banks)
					row := edgeRow(rng, tc.geom)
					gf, err := got.Activate(bank, row, cycle, 1)
					if err != nil {
						t.Fatal(err)
					}
					wf := referenceActivate(want, bank, row, cycle, 1)
					if len(gf) != len(wf) {
						t.Fatalf("seed %d ACT %d (bank %d row %d): %d flips, reference %d", seed, i, bank, row, len(gf), len(wf))
					}
					for j := range gf {
						if gf[j] != wf[j] {
							t.Fatalf("seed %d ACT %d: flip %d = %+v, reference %+v", seed, i, j, gf[j], wf[j])
						}
					}
				}
				sameDisturb(3000)
				if got.FlipCount() != want.FlipCount() {
					t.Fatalf("seed %d: %d flips, reference %d", seed, got.FlipCount(), want.FlipCount())
				}
				// The tiny-MAC profiles must flip bits, or the RNG draw
				// order goes untested.
				if tc.prof.MAC <= 5 && tc.geom.RowsPerSubarray > 1 && got.FlipCount() == 0 {
					t.Fatalf("seed %d: stream produced no flips", seed)
				}
			}
		})
	}
}
