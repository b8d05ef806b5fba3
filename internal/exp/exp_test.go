package exp

import (
	"hash/fnv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("order: got %s at %d, want %s", e.ID, i, want[i])
		}
		if e.Title == "" || e.Claim == "" || e.Run == nil {
			t.Fatalf("%s incomplete: %+v", e.ID, e)
		}
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("phantom experiment")
	}
}

func TestScaleString(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Full.String() != "full" {
		t.Fatal("scale names")
	}
	if !strings.HasPrefix(Scale(9).String(), "scale(") {
		t.Fatal("unknown scale name")
	}
}

func TestConfigTrials(t *testing.T) {
	if (Config{}).trials(7) != 7 {
		t.Fatal("default trials")
	}
	if (Config{Trials: 2}).trials(7) != 2 {
		t.Fatal("override trials")
	}
}

// smallCSVFingerprints pins the FNV-64a hash of each experiment's CSV
// tables (concatenated in order) at TestAllExperimentsRunSmall's fixed
// configuration. Every experiment is seed-deterministic, so a change
// that moves any fixed-seed number shows up here. Update an entry only
// for an intentional change to that experiment's randomness or output.
var smallCSVFingerprints = map[string]uint64{
	"E1":  0x8d8fa59483bbc216,
	"E2":  0x08d31887445bb87e,
	"E3":  0xe2a3d5acfe7131c5,
	"E4":  0x42c21a632f07e712,
	"E5":  0xec58b0f3e2773a46,
	"E6":  0xada7fb2e424f38a4,
	"E7":  0x3a88be4fe7cfd2b3,
	"E8":  0x760aeb638bdbce5e,
	"E9":  0x78fa6b3eed72f2d0,
	"E10": 0x3fa870ace0d91817,
	"E11": 0x09a9e9c7be15f944,
	"E12": 0x4d194c8ed92818ec,
	"E13": 0x7b06f670be682701,
	"E14": 0x3bd8440285b23725,
	"E15": 0x4e66195834d48b19,
	"E16": 0x1c9b05188339ef90,
	"E17": 0x585336b6140642a2,
	"E18": 0xc16303498d25a60b,
	"E19": 0x39d5d9732794263d,
	"E20": 0xf811e330a1ef6db7,
	"E21": 0x517b5bb8aa151f07,
	"E22": 0xf414d0408a639d71,
	"E23": 0x8268f4c7bf3ff206,
}

// Every experiment must run at Small scale, produce at least one
// non-empty table, and reproduce its pinned CSV fingerprint. These are
// the repository's end-to-end smoke and fixed-seed drift tests.
func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments skipped in -short mode")
	}
	cfg := Config{Scale: Small, Seed: 12345, Trials: 2}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(cfg)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s produced an empty table %q", e.ID, tb.Title)
				}
				if s := tb.String(); len(s) == 0 {
					t.Fatalf("%s renders empty", e.ID)
				}
			}
			h := fnv.New64a()
			for _, tb := range tables {
				h.Write([]byte(tb.CSV()))
			}
			if got, want := h.Sum64(), smallCSVFingerprints[e.ID]; got != want {
				t.Errorf("%s CSV fingerprint = %#016x, want %#016x (fixed-seed output drifted)", e.ID, got, want)
			}
		})
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	cfg := Config{Scale: Small, Seed: 777, Trials: 2}
	for _, id := range []string{"E1", "E4"} {
		e, _ := Get(id)
		a := e.Run(cfg)
		b := e.Run(cfg)
		for i := range a {
			if a[i].String() != b[i].String() {
				t.Fatalf("%s is not deterministic for a fixed seed", id)
			}
		}
	}
}

func TestNumericID(t *testing.T) {
	if numericID("E12") != 12 || numericID("E1") != 1 {
		t.Fatal("numericID broken")
	}
}

// Golden end-to-end regression: E14 at a fixed seed is fully
// deterministic (exhaustive search + greedy adversary on seeded graphs),
// so its rendered table must never change. If an intentional change to
// the generators, the engine or the adversary alters it, update the
// golden string consciously.
func TestE14GoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short mode")
	}
	e, ok := Get("E14")
	if !ok {
		t.Fatal("E14 missing")
	}
	tables := e.Run(Config{Scale: Small, Seed: 31337, Trials: 4})
	if len(tables) != 1 {
		t.Fatalf("%d tables", len(tables))
	}
	got := tables[0].CSV()
	again := e.Run(Config{Scale: Small, Seed: 31337, Trials: 4})[0].CSV()
	if got != again {
		t.Fatalf("E14 not deterministic:\n%s\nvs\n%s", got, again)
	}
	// Structural assertions on the golden content (robust to cosmetic
	// format changes): correct header and row count.
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 { // header + two sizes at Small scale
		t.Fatalf("E14 table has %d lines:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[0], "n,instances,mean OPT") {
		t.Fatalf("header changed: %q", lines[0])
	}
}
