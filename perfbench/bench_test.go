package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted input: 100..1
	}
	cases := []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}}
	for _, c := range cases {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if got := median([]float64{5, 3}); got != 4 {
		t.Errorf("median(5,3) = %g, want 4", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesFor(0.9); got != 100 {
		t.Errorf("samplesFor(0.9) = %d, want 100", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", got)
	}
	if tailSupported(99, 0.9) {
		t.Error("p90 of 99 samples has 9 beyond it, not 10")
	}
	if !tailSupported(136, 0.9) {
		t.Error("p90 of the suite's 136 cells has 13 beyond it")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{{at(10), at(20)}, {at(50), at(60)}}, 80 * time.Millisecond},
		{"overlapping", []interval{{at(10), at(40)}, {at(30), at(60)}}, 50 * time.Millisecond},
		{"nested", []interval{{at(10), at(90)}, {at(20), at(30)}}, 20 * time.Millisecond},
		{"unsorted and touching", []interval{{at(40), at(50)}, {at(20), at(40)}}, 70 * time.Millisecond},
		{"sticking out", []interval{{at(-10), at(10)}, {at(95), at(120)}}, 85 * time.Millisecond},
		{"outside", []interval{{at(200), at(300)}}, 100 * time.Millisecond},
		{"covering", []interval{{at(-5), at(105)}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDigestCheck(t *testing.T) {
	dg, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range suiteIDs {
		if len(dg["suite/"+id]) != 64 {
			t.Errorf("suite/%s digest %q is not a SHA-256", id, dg["suite/"+id])
		}
	}
	d := digests{"suite/e7": sha("table\n")}
	if !d.check("suite/e7", "table\n") {
		t.Error("matching table rejected")
	}
	if d.check("suite/e7", "table") {
		t.Error("table differing in one byte accepted")
	}
	if d.check("suite/e8", "") {
		t.Error("table without a committed digest accepted")
	}
}

func TestSeedDeterminesOrders(t *testing.T) {
	for _, seed := range []uint64{1, 2, 42} {
		a, b := shuffled(suiteIDs, seed, streamSuite), shuffled(suiteIDs, seed, streamSuite)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: suite order differs between draws: %v vs %v", seed, a, b)
		}
		if !reflect.DeepEqual(shuffled(clusterIDs, seed, streamCluster), shuffled(clusterIDs, seed, streamCluster)) {
			t.Errorf("seed %d: cluster order differs between draws", seed)
		}
	}
	distinct := map[string]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		distinct[strings.Join(shuffled(suiteIDs, seed, streamSuite), ",")] = true
	}
	if len(distinct) < 2 {
		t.Error("eight seeds all gave the same suite order")
	}
	if !reflect.DeepEqual(suiteIDs[:3], []string{"e1", "e2", "e3"}) {
		t.Error("shuffled reordered its input")
	}
}

func TestMenuDealIsSeededAndExact(t *testing.T) {
	deal := func(seed uint64, client, n int) []string {
		d := newDealer(seed, client)
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, d.deal().name())
		}
		return out
	}
	if !reflect.DeepEqual(deal(7, 0, 30), deal(7, 0, 30)) {
		t.Error("same seed and client dealt different sequences")
	}
	if reflect.DeepEqual(deal(7, 0, 30), deal(7, 1, 30)) {
		t.Error("both clients dealt the same sequence")
	}
	seq := deal(3, 0, 30)
	for start := 0; start < len(seq); start += len(daemonMenu) {
		counts := map[string]int{}
		for _, n := range seq[start : start+len(daemonMenu)] {
			counts[n]++
		}
		want := map[string]int{"e7": 4, "e8": 2, "e6": 2, "e1@200000": 2}
		if !reflect.DeepEqual(counts, want) {
			t.Errorf("jobs %d-%d hold %v, want %v", start, start+len(daemonMenu)-1, counts, want)
		}
	}
}
