package bench

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/simnet"
)

func quickOpts() Options {
	return Options{Reps: 3, SizeStep: 2500, MaxSize: 5000, Seed: 1, MaxN: 32}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 0); q != 1 {
		t.Errorf("min = %v, want 1", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Errorf("max = %v, want 5", q)
	}
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	even := []float64{1, 2, 3, 4}
	if q := quantile(even, 0.5); math.Abs(q-2.5) > 1e-9 {
		t.Errorf("even median = %v, want 2.5", q)
	}
	// quantile must not mutate its input.
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("quantile sorted the caller's slice")
	}
}

// TestAlltoallGuidelines holds the two-level alltoall to two Träff-style
// guidelines on the shared-uplink switch (fanout 4), one cold operation
// per point: two-level is no slower than the flat set it decomposes, and
// from N=32 up no slower than the point-to-point baseline. Below N=32
// mpich still wins where the exchange is a few large blocks on few
// segments: N=8 from 1,000 B (4,824 against 4,492 sim-µs at 1,000 B),
// N=16 at 2,000 and 5,000 B (by 0.9 % and 3.3 %).
func TestAlltoallGuidelines(t *testing.T) {
	prof := *sharedUplinkProfile()
	prof.Seed = 1
	cold := func(n, size int, a Algorithm) int64 {
		t.Helper()
		_, worst, err := coldRun(n, simnet.SwitchShared, prof, a, OpAlltoall, size)
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	for _, n := range []int{8, 32} {
		for _, size := range []int{100, 2000} {
			twoLevel, flat := cold(n, size, McastTwoLevel), cold(n, size, McastBinary)
			if twoLevel > flat {
				t.Errorf("N=%d %d B: %s %d ns is slower than %s %d ns", n, size, McastTwoLevel, twoLevel, McastBinary, flat)
			}
			if n < 32 {
				continue
			}
			if p2p := cold(n, size, MPICH); twoLevel > p2p {
				t.Errorf("N=%d %d B: %s %d ns is slower than %s %d ns", n, size, McastTwoLevel, twoLevel, MPICH, p2p)
			}
		}
	}
}

// TestTwoLevelGuideline holds the whole two-level set to Träff's
// guideline "two-level ≤ flat whenever S > 1" on the shared-uplink
// switch (fanout 4, one cold operation per point): every collective at
// N ∈ {8, 32, 64} and 100, 1,000 and 5,000 B runs within 2 % of
// mcast-binary. Where the two-level schedule does not win, the set
// runs the flat one: bcast and barrier everywhere (1.15–1.25× at N=64
// when they gathered scouts member → leader → root), the scatter and
// gather outside their regimes in core's plan (up to 1.25× and 1.35× from 1,000 B, and
// the gather at N=8 at every size). Inside the regime the small-message
// wins must survive: at 100 B the scatter reads ≤ 0.80× flat at N ∈
// {32, 64} (0.67 and 0.54) and the gather ≤ 0.50× at N ∈ {32, 64} (0.45
// and 0.40). The flat set's scatter and gather are package baseline's
// point-to-point ones there, which are faster than the sliced scatter
// and the release-gated gather were. Against those the gather's bound
// read "≤ 0.85× at N=64" (0.81) while the two-level gather gated both of
// its levels with scouts and releases and its regime began at N=64, and
// before that "≤ 0.75× at N ∈ {32, 64}" (0.72 and 0.68, over the gated
// flat gather); the scatter read 0.55 and 0.48 against the sliced one.
func TestTwoLevelGuideline(t *testing.T) {
	prof := *sharedUplinkProfile()
	prof.Seed = 1
	cold := func(n, size int, a Algorithm, op Op) int64 {
		t.Helper()
		_, worst, err := coldRun(n, simnet.SwitchShared, prof, a, op, size)
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	// The bound at 100 B, and the smallest N it holds from.
	wins := map[Op]struct {
		bound float64
		minN  int
	}{OpScatter: {0.80, 32}, OpGather: {0.50, 32}}
	for _, op := range []Op{OpBcast, OpBarrier, OpScatter, OpGather, OpAllreduce, OpAllgather, OpAlltoall} {
		for _, n := range []int{8, 32, 64} {
			for _, size := range []int{100, 1000, 5000} {
				twoLevel, flat := cold(n, size, McastTwoLevel, op), cold(n, size, McastBinary, op)
				ratio := float64(twoLevel) / float64(flat)
				if ratio > 1.02 {
					t.Errorf("%s N=%d %d B: %s %d ns is %.2f× %s %d ns", op, n, size, McastTwoLevel, twoLevel, ratio, McastBinary, flat)
				}
				if w, ok := wins[op]; ok && n >= w.minN && size == 100 && ratio > w.bound {
					t.Errorf("%s N=%d %d B: %s reads %.2f× %s, want ≤ %.2f×", op, n, size, McastTwoLevel, ratio, McastBinary, w.bound)
				}
			}
		}
	}
}

// TestFlatGuideline holds the flat multicast sets' scatter and gather to
// Träff's guideline against the point-to-point schedules they extend:
// mcast-binary and mcast-linear within 2 % of mpich on the hub, the
// switch and the shared-uplink switch (fanout 4) at N ∈ {8, 32, 64} ×
// {100, 1,000, 5,000} B, one cold operation per cell. Outside their
// regimes (core's plan) both sets run
// package baseline's linear scatter and gather, so the cell reads 1.00;
// inside, the shared-uplink scatter at N=64, 5,000 B is mcast-binary's
// sliced round at 0.98. While every scatter was sliced and every gather
// release-gated, 47 of the 54 mcast-binary cells and 50 of the 54
// mcast-linear cells failed, up to 2.31× and 2.63× (the hub gather at
// N=8, 100 B). The cells that read below 1.00 then, and are given up —
// binary / linear, over mpich:
//
//	Hub, N=8, scatter 1,000 B: 1.00 / 0.99   scatter 5,000 B: 0.90 / 0.88
//	Hub, N=8, gather  1,000 B: 0.68 / 0.70   gather  5,000 B: 0.75 / 0.97
//	SwitchShared, N=32, scatter 5,000 B: 0.99 (binary)
//	SwitchShared, N=64, gather  1,000 B: 1.00 (binary)
//
// The hub's N=8 gather is the one sizeable loss cold. With entry skew and
// warm-ups (sim_paper_n8's point, 1,000 B) the point-to-point gather
// reads 1,286.04 sim-µs against the release-gated 1,384.59.
func TestFlatGuideline(t *testing.T) {
	fabrics := []struct {
		topo simnet.Topology
		prof simnet.Profile
	}{
		{simnet.Hub, simnet.DefaultProfile()},
		{simnet.Switch, simnet.DefaultProfile()},
		{simnet.SwitchShared, *sharedUplinkProfile()},
	}
	for _, f := range fabrics {
		prof := f.prof
		prof.Seed = 1
		cold := func(n, size int, a Algorithm, op Op) int64 {
			t.Helper()
			_, worst, err := coldRun(n, f.topo, prof, a, op, size)
			if err != nil {
				t.Fatal(err)
			}
			return worst
		}
		for _, op := range []Op{OpScatter, OpGather} {
			for _, n := range []int{8, 32, 64} {
				for _, size := range []int{100, 1000, 5000} {
					p2p := cold(n, size, MPICH, op)
					for _, a := range []Algorithm{McastBinary, McastLinear} {
						mc := cold(n, size, a, op)
						if ratio := float64(mc) / float64(p2p); ratio > 1.02 {
							t.Errorf("%s %s N=%d %d B: %s %d ns is %.2f× %s %d ns", f.topo, op, n, size, a, mc, ratio, MPICH, p2p)
						}
					}
				}
			}
		}
	}
}

// TestFlatAlltoallSwitchGuideline holds the flat alltoall's burst to the
// Träff-style guideline on the switch (one station per port, one cold
// operation per point): mcast-binary and mcast-linear are no slower than
// mpich's pairwise exchange at N ∈ {8, 32} and 1,000 and 4,000 B. The
// order of the slices decides it. A rank that sends to me+1, me+2, …
// spreads every rank's first slice over a different port; in the common
// order 0, 1, … all N first slices converge on one port. mcast-binary in
// sim-µs, sequential rounds / burst in the common order / burst in ring
// order against mpich:
//
//	N=8,  1,000 B:   8,535 /  1,775 /  1,316 against  2,179
//	N=8,  4,000 B:  23,918 /  5,342 /  3,269 against  5,064
//	N=32, 1,000 B: 109,074 /  6,453 /  4,349 against  9,710
//	N=32, 4,000 B: 368,065 / 22,351 / 12,006 against 22,425
//
// so the common order fails at N=8, 4,000 B. mcast-linear reads 1,341,
// 3,294, 5,192 and 12,848 in ring order.
func TestFlatAlltoallSwitchGuideline(t *testing.T) {
	prof := simnet.DefaultProfile()
	prof.Seed = 1
	cold := func(n, size int, a Algorithm) int64 {
		t.Helper()
		_, worst, err := coldRun(n, simnet.Switch, prof, a, OpAlltoall, size)
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	for _, n := range []int{8, 32} {
		for _, size := range []int{1000, 4000} {
			p2p := cold(n, size, MPICH)
			for _, a := range []Algorithm{McastBinary, McastLinear} {
				if mc := cold(n, size, a); mc > p2p {
					t.Errorf("N=%d %d B: %s %d ns is slower than %s %d ns", n, size, a, mc, MPICH, p2p)
				}
			}
		}
	}
}

// TestChunkedAllreduceGuidelines holds the chunked allreduce to a
// Träff-style guideline on the same fabric (shared-uplink switch, fanout
// 4, one cold operation per point): from 5,000 B it is no slower than
// mpich. With its reduce-scatter walking segments then lanes and its
// allgather sending no scouts, chunked read 2,415 / 3,050 / 3,574
// sim-µs at 5,000 B against mcast-binary's binomial reduce and bcast at
// 3,571 / 4,433 / 5,273 at N = 8 / 16 / 32, and at N=64 and 2,000 B
// 2,628 against mcast-2level's leader reduce at 3,156. Those two
// comparisons left this test when the lossless sets came to run the
// chunked schedule there themselves (core's plan): the allreduce tables
// of core's plan_test.go hold the chunked schedule against the forced
// old ones at N=6–256 and 500–65,536 B, fanout 2, 4 and 8, and
// TestPlanTablesReproduce re-measures a cell of each, three at 5,000 B.
func TestChunkedAllreduceGuidelines(t *testing.T) {
	prof := *sharedUplinkProfile()
	prof.Seed = 1
	cold := func(n, size int, a Algorithm) int64 {
		t.Helper()
		_, worst, err := coldRun(n, simnet.SwitchShared, prof, a, OpAllreduce, size)
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	for _, n := range []int{8, 16, 32} {
		for _, size := range []int{5000, 20000} {
			if chunked, o := cold(n, size, McastChunked), cold(n, size, MPICH); chunked > o {
				t.Errorf("N=%d %d B: %s %d ns is slower than %s %d ns", n, size, McastChunked, chunked, MPICH, o)
			}
		}
	}
}

func TestSetKnowsAllAlgorithms(t *testing.T) {
	for _, a := range Algorithms() {
		algs, err := Set(a)
		if err != nil {
			t.Fatalf("Set(%s): %v", a, err)
		}
		if algs.Bcast == nil {
			t.Fatalf("Set(%s) has no Bcast", a)
		}
	}
	if _, err := Set("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunProducesSamples(t *testing.T) {
	sc := DefaultScenario()
	sc.Reps = 5
	sc.MsgSize = 1000
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(r.Samples))
	}
	for _, s := range r.Samples {
		if s <= 0 || s > 100_000 {
			t.Fatalf("implausible latency %v µs", s)
		}
	}
	if r.Median() < r.Min() || r.Median() > r.Max() {
		t.Fatal("median outside [min,max]")
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	sc := DefaultScenario()
	sc.Reps = 3
	sc.MsgSize = 500
	sc.Topology = simnet.Hub
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("same seed gave different samples: %v vs %v", a.Samples, b.Samples)
		}
	}
	sc.Seed = 99
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Samples {
		if a.Samples[i] != c.Samples[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical hub samples (no randomness?)")
	}
}

func TestHeadlineShapesQuick(t *testing.T) {
	// The crossover claim at one size on each side, with minimal reps.
	measure := func(a Algorithm, size int) float64 {
		sc := DefaultScenario()
		sc.Algorithm = a
		sc.MsgSize = size
		sc.Reps = 3
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		return r.Median()
	}
	if m, b := measure(MPICH, 100), measure(McastBinary, 100); b < m {
		t.Logf("note: at 100 B multicast (%v) already beats MPICH (%v)", b, m)
	}
	if m, b := measure(MPICH, 5000), measure(McastBinary, 5000); b >= m {
		t.Fatalf("at 5000 B multicast (%v µs) must beat MPICH (%v µs)", b, m)
	}
}

func TestAllFigureDefsBuildQuick(t *testing.T) {
	for _, d := range Defs() {
		d := d
		t.Run(d.ID, func(t *testing.T) {
			r, err := d.Build(quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			out := r.Render()
			if !strings.Contains(r.Name(), d.ID) || len(out) < 100 {
				t.Errorf("render of %s malformed:\n%s", d.ID, out[:200])
			}
			csv := r.CSV()
			if len(strings.Split(csv, "\n")) < 3 {
				t.Errorf("csv of %s too short:\n%s", d.ID, csv)
			}
		})
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("7"); !ok {
		t.Fatal("figure 7 missing")
	}
	if _, ok := Lookup("a3"); !ok {
		t.Fatal("experiment a3 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("bogus id found")
	}
}

func TestBarrierScenario(t *testing.T) {
	sc := DefaultScenario()
	sc.Op = OpBarrier
	sc.Algorithm = McastBinary
	sc.Procs = 8
	sc.Topology = simnet.Hub
	sc.Reps = 3
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Median() <= 0 {
		t.Fatal("barrier latency not positive")
	}
}

func TestUnsafeScenarioLosesUnderStrictSkew(t *testing.T) {
	// With 1 ms of entry skew a receiver regularly misses the
	// unsynchronized multicast; a rep only survives when the root
	// happens to draw the largest skew. Across several reps at least
	// one loss is (deterministically, for this seed) guaranteed.
	sc := DefaultScenario()
	sc.Algorithm = Unsafe
	sc.StrictPosted = true
	sc.SkewMax = 1000 * 1000
	sc.MsgSize = 1000
	sc.Reps = 5
	r, err := Run(sc)
	if err == nil && r.Failures == 0 {
		t.Fatal("unsafe broadcast never lost a message under heavy skew")
	}
	// The scout-synchronized algorithm must survive the same conditions.
	sc.Algorithm = McastBinary
	r, err = Run(sc)
	if err != nil || r.Failures != 0 {
		t.Fatalf("binary scout broadcast lost messages: %v (failures %d)", err, r.Failures)
	}
}

// TestPartialElementReductionFailsEverywhere holds a reduction buffer
// that is not whole elements (7 bytes of float64) to one error at every
// rank, before any message moves: on every set and every reducing
// collective, no rank may return nil, hang waiting for a peer that has
// already given up, or report something different from its peers.
func TestPartialElementReductionFailsEverywhere(t *testing.T) {
	const bytes = 7
	dt := mpi.Float64
	ops := []struct {
		name string
		run  func(c *mpi.Comm) error
	}{
		{"allreduce", func(c *mpi.Comm) error {
			return c.Allreduce(make([]byte, bytes), make([]byte, bytes), dt, mpi.OpSum)
		}},
		{"reduce", func(c *mpi.Comm) error {
			return c.Reduce(make([]byte, bytes), make([]byte, bytes), dt, mpi.OpSum, 0)
		}},
		{"scan", func(c *mpi.Comm) error {
			return c.Scan(make([]byte, bytes), make([]byte, bytes), dt, mpi.OpSum)
		}},
		{"reduce_scatter", func(c *mpi.Comm) error {
			return c.ReduceScatter(make([]byte, bytes*c.Size()), make([]byte, bytes), dt, mpi.OpSum)
		}},
	}
	for _, a := range Algorithms() {
		algs, err := Set(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 8} {
			for _, op := range ops {
				errs := make([]error, n)
				if _, err := cluster.RunSim(n, simnet.SwitchShared, *sharedUplinkProfile(), algs, func(c *mpi.Comm) error {
					errs[c.Rank()] = op.run(c)
					return nil
				}); err != nil {
					t.Errorf("%s %s N=%d: %v", a, op.name, n, err)
					continue
				}
				for r, err := range errs {
					if err == nil || err.Error() != fmt.Sprint(errs[0]) {
						t.Errorf("%s %s N=%d: rank %d returned %v, rank 0 %v", a, op.name, n, r, err, errs[0])
						break
					}
				}
			}
		}
	}
}
