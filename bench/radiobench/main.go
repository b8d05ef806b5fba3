// Command radiobench is the repository's end-to-end benchmark. It runs one
// of five fixed workloads for a given time, checks the outputs, and prints
// every metric by name and unit; its last line of output is one JSON
// object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	radiobench -workload batch-lanes -seed 1 -seconds 10 -trace 0
//	radiobench -workload batch-lanes -trace 1      # per-layer ledger
//	radiobench compare A.json B.json               # two sets of -record runs
//
// With -trace 0 the metrics are the end-to-end ones. With -trace 1 the
// workload runs for half the time untraced and half traced, and then the
// per-layer ledger runs; the metrics are the per-layer ones, and the
// spans are written as JSON Lines into the work directory.
// bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/xrand"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// setupReps is how often a run sets its workload up; setup_s is the
// median, and the last set-up is the one timed.
const setupReps = 5

// result is the contract of the last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is what -record appends: one run with what it ran on.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    int     `json:"trace"`
	Scale    string  `json:"scale"`
	Host     host    `json:"host"`
	Note     string  `json:"note,omitempty"`
	Result   result  `json:"result"`
}

type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("radiobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "base seed every input derives from")
	seconds := fs.Float64("seconds", 10, "length of the timed region")
	traced := fs.Int("trace", 0, "1 runs the traced pass and the per-layer ledger")
	scaleName := fs.String("scale", "full", "input sizes: full, or smoke for tiny inputs")
	workdir := fs.String("workdir", ".bench_build/radiobench", "directory for checkpoints and spans")
	recordPath := fs.String("record", "", "append the run, with host facts, to this file (input of compare)")
	note := fs.String("note", "", "free text stored with -record, such as the machine")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	sz, okScale := scales[*scaleName]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "radiobench: unknown workload %q (want %s)\n", *name, workloadNames())
		return 2
	case !okScale:
		fmt.Fprintf(stderr, "radiobench: unknown scale %q\n", *scaleName)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "radiobench: -trace must be 0 or 1\n")
		return 2
	case !(*seconds > 0):
		fmt.Fprintf(stderr, "radiobench: -seconds must be positive\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "radiobench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workdir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "radiobench:", err)
		return 1
	}
	defer removeAll(dir)
	e := &env{sz: sz, base: xrand.New(*seed), dir: dir}

	fmt.Fprintf(stdout, "radiobench: workload %s, seed %d, %gs, trace %d, scale %s, GOMAXPROCS %d\n",
		w.name, *seed, *seconds, *traced, *scaleName, runtime.GOMAXPROCS(0))
	res, lines, errs := measureWorkload(w, e, time.Duration(*seconds*float64(time.Second)), *traced == 1,
		filepath.Join(*workdir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed)))
	for _, err := range errs {
		fmt.Fprintln(stderr, "radiobench: FAIL:", err)
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, "  "+l)
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{
			Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced, Scale: *scaleName,
			Host: host{runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()},
			Note: *note, Result: res,
		}); err != nil {
			fmt.Fprintln(stderr, "radiobench:", err)
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "radiobench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// slice is one step of timed work, with the machine's speed over it and
// the share of the cores the process kept busy.
type slice struct {
	ops   []opResult
	wall  time.Duration
	speed float64
	busy  float64
}

func (s slice) trials() int {
	n := 0
	for _, op := range s.ops {
		n += op.trials
	}
	return n
}

// pass is one timed region.
type pass struct {
	slices []slice
	alloc  uint64 // bytes allocated in the region
}

func (p pass) trials() int {
	n := 0
	for _, s := range p.slices {
		n += s.trials()
	}
	return n
}

// throughput is the median over slices of trials per second at the
// reference speed; raw is total trials per wall second.
func (p pass) throughput() (scaled, raw float64) {
	var rates []float64
	var wall time.Duration
	for _, s := range p.slices {
		rates = append(rates, float64(s.trials())/(s.wall.Seconds()*scale(s.speed, s.busy)))
		wall += s.wall
	}
	return median(rates), float64(p.trials()) / wall.Seconds()
}

// latencies returns every operation's latency at the reference speed, in
// milliseconds.
func (p pass) latencies() []float64 {
	var out []float64
	for _, s := range p.slices {
		f := scale(s.speed, s.busy)
		for _, op := range s.ops {
			out = append(out, ms(op.lat)*f)
		}
	}
	return out
}

// meter samples the machine's speed between slices of work, so that each
// slice is bracketed by two samples.
type meter struct {
	cal  *calibrator
	last float64
}

func newMeter() *meter {
	m := &meter{cal: newCalibrator()}
	m.cal.sample() // first touch of the kernels' memory
	m.last = m.cal.sample()
	return m
}

// measure runs f and returns its wall time, the machine's speed over it
// (the geometric mean of the samples before and after) and the share of
// the cores the process kept busy.
func (m *meter) measure(f func()) (wall time.Duration, speed, busy float64) {
	c0, t0 := cpuTime(), time.Now()
	f()
	wall = time.Since(t0)
	busy = float64(cpuTime()-c0) / (float64(wall) * float64(runtime.GOMAXPROCS(0)))
	next := m.cal.sample()
	speed, m.last = math.Sqrt(m.last*next), next
	return wall, speed, busy
}

// timed steps inst until d has passed, at least once.
func timed(inst instance, m *meter, d time.Duration, tr *tracer) pass {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var p pass
	deadline := time.Now().Add(d)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var ops []opResult
		wall, speed, busy := m.measure(func() { ops = inst.step(i, tr) })
		p.slices = append(p.slices, slice{ops: ops, wall: wall, speed: speed, busy: busy})
	}
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	return p
}

// measureWorkload sets the workload up setupReps times, times it (when
// traced, half untraced and half with spans), checks its outputs and,
// when traced, runs the ledger. It returns the result, printable lines
// and every failure.
func measureWorkload(w workload, e *env, d time.Duration, traced bool, spansPath string) (result, []string, []error) {
	res := result{Metrics: map[string]value{}}
	m := newMeter()
	var errs []error
	var setups []float64
	var inst instance
	for k := 0; k < setupReps; k++ {
		if inst != nil {
			inst.close()
		}
		var err error
		wall, speed, busy := m.measure(func() { inst, err = w.setup(e) })
		if err != nil {
			res.Attempted, res.Failed = 1, 1
			return res, nil, []error{fmt.Errorf("setting up %s: %w", w.name, err)}
		}
		setups = append(setups, wall.Seconds()*scale(speed, busy))
	}
	defer inst.close()

	var tr *tracer
	if traced {
		// The untraced and the traced pass share the run's timed length.
		d /= 2
		tr = newTracer(w.name)
	}
	passes := []pass{timed(inst, m, d, nil)}
	if traced {
		passes = append(passes, timed(inst, m, d, tr))
	}
	for _, p := range passes {
		for _, s := range p.slices {
			res.Attempted += len(s.ops)
			for _, op := range s.ops {
				if op.err != nil {
					res.Failed++
					errs = append(errs, op.err)
				}
			}
		}
	}
	verr := inst.verify()
	res.Failed += len(verr)
	errs = append(errs, verr...)

	var lines []string
	u := passes[0]
	rate, raw := u.throughput()
	if !traced {
		lat := u.latencies()
		set(res.Metrics, endToEnd, map[string]float64{
			"setup_s":            median(setups),
			"trials_per_s":       rate,
			"latency_p50_ms":     percentile(lat, 0.5),
			"latency_p90_ms":     percentile(lat, 0.9),
			"alloc_kb_per_trial": float64(u.alloc) / 1e3 / float64(u.trials()),
		})
	} else {
		layers, lerrs := runLedger(e, tr)
		res.Attempted++
		if len(lerrs) > 0 {
			res.Failed++
			errs = append(errs, lerrs...)
		}
		tracedRate, _ := passes[1].throughput()
		layers["trace_overhead"] = tracedRate / rate
		set(res.Metrics, perLayer, layers)
		if err := tr.write(spansPath); err != nil {
			res.Failed++
			errs = append(errs, err)
		} else {
			lines = append(lines, fmt.Sprintf("spans: %d written to %s", len(tr.spans), spansPath))
		}
	}
	for _, def := range append(endToEnd, perLayer...) {
		if v, ok := res.Metrics[def.Name]; ok {
			lines = append(lines, fmt.Sprintf("%-34s %14.6g %s", def.Name, v.Value, v.Unit))
		}
	}
	var speeds, busy []float64
	for _, s := range u.slices {
		speeds, busy = append(speeds, s.speed), append(busy, s.busy)
	}
	lines = append(lines,
		fmt.Sprintf("operations %d, trials %d, failed %d", res.Attempted, u.trials(), res.Failed),
		fmt.Sprintf("unscaled trials/s %.6g; machine speed %.3g of the reference, cores busy %.3g (medians over %d slices)",
			raw, median(speeds), median(busy), len(u.slices)))
	lines = append(lines, inst.notes()...)
	res.Correct = res.Failed == 0
	return res, lines, errs
}

// set copies the defined metrics from m with their units. A metric
// missing from m, or not finite because every operation failed, is left
// out; the smoke test catches the first.
func set(dst map[string]value, defs []metric, m map[string]float64) {
	for _, def := range defs {
		if v, ok := m[def.Name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			dst[def.Name] = value{Value: v, Unit: def.Unit}
		}
	}
}

func appendRecord(path string, r record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	return errors.Join(werr, f.Close())
}
