package sweep

import (
	"runtime"
	"testing"

	"repro/internal/xrand"
)

func TestRunDeterministic(t *testing.T) {
	trial := func(rng *xrand.Rand) float64 { return float64(rng.Intn(1000000)) }
	a := Run(20, 42, trial)
	b := Run(20, 42, trial)
	if len(a) != 20 {
		t.Fatalf("got %d samples", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d not deterministic: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	trial := func(rng *xrand.Rand) float64 { return float64(rng.Intn(1 << 30)) }
	samples := Run(50, 7, trial)
	same := 0
	for i := 1; i < len(samples); i++ {
		if samples[i] == samples[0] {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("%d trials repeated the first trial's value", same)
	}
}

func TestRunDifferentBaseSeeds(t *testing.T) {
	trial := func(rng *xrand.Rand) float64 { return float64(rng.Intn(1 << 30)) }
	a := Run(10, 1, trial)
	b := Run(10, 2, trial)
	identical := true
	for i := range a {
		if a[i] != b[i] {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("different base seeds gave identical sweeps")
	}
}

func TestRunZeroTrials(t *testing.T) {
	if got := Run(0, 1, func(rng *xrand.Rand) float64 { return 1 }); len(got) != 0 {
		t.Fatalf("zero trials returned %v", got)
	}
}

func TestRunParallelPath(t *testing.T) {
	// This machine may have GOMAXPROCS == 1, which exercises only the
	// sequential path; force parallel workers and check determinism and
	// completeness are preserved.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	trial := func(rng *xrand.Rand) float64 { return float64(rng.Intn(1 << 30)) }
	par := Run(40, 42, trial)
	runtime.GOMAXPROCS(1)
	seq := Run(40, 42, trial)
	if len(par) != 40 || len(seq) != 40 {
		t.Fatal("wrong lengths")
	}
	for i := range par {
		if par[i] != seq[i] {
			t.Fatalf("parallel and sequential sweeps diverge at %d", i)
		}
	}
}

func TestRunMoreWorkersThanTrials(t *testing.T) {
	old := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(old)
	got := Run(3, 7, func(rng *xrand.Rand) float64 { return 1 })
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
}
