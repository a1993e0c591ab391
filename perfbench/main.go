// Command perfbench is the repository benchmark. It generates seeded
// inputs, drives one workload through the public functions of each
// layer, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload learn_cold --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, read
// from spans the benchmark records around each call into a layer. The
// metric names and units come from BENCHMARK.json itself, so the file
// and the program cannot drift apart. See README.md for the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchFile is the part of BENCHMARK.json the program reads.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// run is one invocation's settings.
type run struct {
	seed   int64
	budget time.Duration
	procs  int
	tr     *tracer // nil on an untraced run
	dir    string  // scratch directory inside the checkout
}

// outcome is what one workload run measured. e2e holds the end-to-end
// metrics and layer the per-layer ones; notes are identity lines
// (store hashes, chosen rates) printed before the result.
type outcome struct {
	attempted, failed int
	e2e, layer        map[string]float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// errMismatch marks a failed correctness gate; the run then reports
// correct=false instead of counting the op as failed.
var errMismatch = errors.New("correctness gate failed")

func mismatch(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMismatch, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) (*outcome, error){
	"learn_cold":      learnCold,
	"relearn_session": relearnSession,
	"check_serve":     checkServe,
	"learn_sharded":   learnSharded,
}

func main() {
	workload := flag.String("workload", "", "workload name from BENCHMARK.json")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "measured time per run")
	traceFlag := flag.Int("trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// mainErr runs one workload and prints its result. A failed gate still
// prints the result, with correct=false, and is returned as the error.
func mainErr(workload string, seed int64, seconds int, traced bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fn := workloads[workload]
	if fn == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r := &run{
		seed:   seed,
		budget: time.Duration(seconds) * time.Second,
		procs:  runtime.NumCPU(),
		dir:    dir,
	}
	if traced {
		r.tr = newTracer()
	}

	o, gateErr := fn(r)
	if gateErr != nil && !errors.Is(gateErr, errMismatch) {
		return gateErr
	}
	correct := gateErr == nil
	if o == nil {
		o = newOutcome()
	}
	if r.tr != nil {
		r.tr.summarize(o)
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
		if err := r.tr.write(path); err != nil {
			return err
		}
		o.note("spans written to %s", path)
	}

	defs, vals := bf.EndToEnd, o.e2e
	if traced {
		defs, vals = bf.PerLayer, o.layer
	}
	metrics := make(map[string]any, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !traced && correct {
			return fmt.Errorf("workload %s did not measure %s", workload, d.Name)
		}
		metrics[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	for _, n := range o.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return gateErr
}

// measureSetup runs build n times, timing each, and returns the value
// of the last build with the median build time; set-up repeats so its
// time is a median, not a single sample.
func measureSetup[T any](n int, build func() (T, error)) (T, float64, error) {
	var v T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var err error
		v, err = build()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return v, median(times), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// medianLayers folds per-op layer maps into their per-key medians.
func medianLayers(ops []map[string]float64, into map[string]float64) {
	vals := map[string][]float64{}
	for _, m := range ops {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	for k, v := range vals {
		into[k] = median(v)
	}
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// inputSeed derives the generator seed for one input stream of a run,
// so that distinct streams (the corpus, its second version, the request
// pool) never share a generator seed. Never zero: the corpus generator
// maps seed 0 to its default.
func (r *run) inputSeed(stream int64) int64 {
	return r.seed*16 + stream + 1
}
