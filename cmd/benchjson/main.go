// Command benchjson merges `go test -bench -benchmem` output into a
// metrics snapshot produced by -metrics-json, so one JSON file carries
// both the pipeline telemetry and the microbenchmark numbers. Each
// benchmark line becomes three gauges:
//
//	bench.<Name>.ns_op
//	bench.<Name>.b_op
//	bench.<Name>.allocs_op
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... | benchjson -into BENCH.json
//
// Non-benchmark lines (pkg headers, PASS/ok) pass through to stderr so
// the run stays inspectable; the snapshot file is rewritten in place.
//
// A second mode compares a single-process run against a sharded
// coordinator run (both captured with -metrics-json) and merges a
// "distributed" section — wall times, speedup, merge/exec costs, and
// artifact volume — into the snapshot, preserving any other sections
// already present:
//
//	benchjson -dist-single s.json -dist-shards d.json -shards 4 -into BENCH.json
//
// A third mode compares a from-scratch re-learn of a mutated corpus
// against an incremental-session re-learn of the same corpus (seldon
// -session-dir) and merges an "incremental" section — full vs delta
// wall, speedup, span/constraint reuse, and the from-scratch run's
// solver epochs:
//
//	benchjson -incr-full full.json -incr-delta delta.json -into BENCH.json
//
// A fourth mode captures the streaming coordinator: two -exec-shards
// runs over the same corpus — cold (empty caches) and warm (fpcache
// seeded by the cold run's shipped sidecars, flow cache persisted) —
// merge as a "distributed_stream" section: walls, peak decoded bytes
// against total artifact bytes (the streaming-memory headline), stream
// volume, and the flow-cache hit rate on the warm path:
//
//	benchjson -stream-cold cold.json -stream-warm warm.json -shards 4 -into BENCH.json
//
// And a guard mode for CI smoke tests, exiting nonzero unless the
// snapshot proves the coordinator streamed (0 < peak < total):
//
//	benchjson -check-stream coord.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"seldon/internal/obs"
)

func main() {
	into := flag.String("into", "", "metrics snapshot file to merge benchmark gauges into")
	distSingle := flag.String("dist-single", "", "metrics snapshot of a single-process seldon run (selects distributed-section mode)")
	distShards := flag.String("dist-shards", "", "metrics snapshot of a seldon -exec-shards coordinator run")
	shards := flag.Int("shards", 0, "shard count of the -dist-shards run")
	incrFull := flag.String("incr-full", "", "metrics snapshot of a from-scratch re-learn (selects incremental-section mode)")
	incrDelta := flag.String("incr-delta", "", "metrics snapshot of a session (-session-dir) re-learn of the same corpus")
	streamCold := flag.String("stream-cold", "", "metrics snapshot of a cold streaming coordinator run (selects distributed_stream mode)")
	streamWarm := flag.String("stream-warm", "", "metrics snapshot of a warm (cache-seeded) streaming coordinator run")
	checkStream := flag.String("check-stream", "", "coordinator metrics snapshot to assert streamed ingestion on (0 < peak < total); exits nonzero otherwise")
	flag.Parse()
	if *checkStream != "" {
		if err := checkStreamed(*checkStream); err != nil {
			fatal(err)
		}
		return
	}
	if *into == "" {
		fatal(fmt.Errorf("need -into <snapshot.json>"))
	}
	if *distSingle != "" || *distShards != "" {
		if err := mergeDistributed(*into, *distSingle, *distShards, *shards); err != nil {
			fatal(err)
		}
		return
	}
	if *incrFull != "" || *incrDelta != "" {
		if err := mergeIncremental(*into, *incrFull, *incrDelta); err != nil {
			fatal(err)
		}
		return
	}
	if *streamCold != "" || *streamWarm != "" {
		if err := mergeStream(*into, *streamCold, *streamWarm, *shards); err != nil {
			fatal(err)
		}
		return
	}

	data, err := os.ReadFile(*into)
	if err != nil {
		fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		fatal(fmt.Errorf("%s: %w", *into, err))
	}
	if snap.Gauges == nil {
		snap.Gauges = map[string]float64{}
	}

	merged := 0
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		name, values, ok := parseBenchLine(line)
		if !ok {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		for unit, v := range values {
			snap.Gauges["bench."+name+"."+unit] = v
		}
		merged++
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if merged == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}

	out, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*into, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("merged %d benchmarks into %s\n", merged, *into)
}

// parseBenchLine recognizes `BenchmarkName[-P] iters v unit v unit ...`
// and returns the bare name plus the snake_cased unit values.
func parseBenchLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix go test appends when procs > 1.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	// Sub-benchmarks (Name/case) become dotted gauge segments.
	name = strings.ReplaceAll(name, "/", ".")
	values := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		unit := strings.ReplaceAll(strings.ReplaceAll(fields[i+1], "/", "_"), "-", "_")
		values[unit] = v
	}
	if len(values) == 0 {
		return "", nil, false
	}
	return name, values, true
}

// mergeDistributed builds the "distributed" section from two metrics
// snapshots — the same corpus learned single-process and via N local
// shard workers — and merges it into the snapshot file. The file is
// handled as a generic JSON document (not obs.Snapshot) so sections
// other tools merged, like seldonload's "load", survive the rewrite.
func mergeDistributed(into, singlePath, shardsPath string, shards int) error {
	if singlePath == "" || shardsPath == "" {
		return fmt.Errorf("distributed mode needs both -dist-single and -dist-shards")
	}
	single, err := readSnapshot(singlePath)
	if err != nil {
		return err
	}
	dist, err := readSnapshot(shardsPath)
	if err != nil {
		return err
	}
	singleWall := single.Gauges[obs.GaugePipelineWall]
	shardWall := dist.Gauges[obs.GaugePipelineWall]
	if singleWall <= 0 || shardWall <= 0 {
		return fmt.Errorf("snapshots lack the %s gauge (need seldon runs with -metrics-json)", obs.GaugePipelineWall)
	}
	sec := map[string]any{
		"shards":         shards,
		"single_wall_s":  singleWall,
		"shard_wall_s":   shardWall,
		"speedup":        singleWall / shardWall,
		"exec_s":         dist.Timers[obs.StageShardExec].Sum,
		"merge_s":        dist.Timers[obs.TimerShardMerge].Sum,
		"files":          dist.Gauges[obs.GaugeShardFiles],
		"artifact_bytes": dist.Gauges[obs.GaugeShardBytes],
	}

	data, err := os.ReadFile(into)
	if err != nil {
		return err
	}
	doc := map[string]any{}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", into, err)
	}
	doc["distributed"] = sec
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(into, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged distributed section (%d shards, %.2fx) into %s\n",
		shards, singleWall/shardWall, into)
	return nil
}

// mergeIncremental builds the "incremental" section from two metrics
// snapshots of the same mutated corpus — one learned from scratch, one
// re-learned through a persistent session (seldon -session-dir) — and
// merges it into the snapshot file. delta_wall_s against full_wall_s is
// the headline: the session run re-analyzes only the changed files and
// reuses the persisted flow blocks of the unchanged ones, so its wall
// should stay well under the from-scratch wall; both runs pay the same
// solve.
func mergeIncremental(into, fullPath, deltaPath string) error {
	if fullPath == "" || deltaPath == "" {
		return fmt.Errorf("incremental mode needs both -incr-full and -incr-delta")
	}
	full, err := readSnapshot(fullPath)
	if err != nil {
		return err
	}
	delta, err := readSnapshot(deltaPath)
	if err != nil {
		return err
	}
	fullWall := full.Gauges[obs.GaugePipelineWall]
	deltaWall := delta.Gauges[obs.GaugePipelineWall]
	if fullWall <= 0 || deltaWall <= 0 {
		return fmt.Errorf("snapshots lack the %s gauge (need seldon runs with -metrics-json)", obs.GaugePipelineWall)
	}
	sec := map[string]any{
		"full_wall_s":        fullWall,
		"delta_wall_s":       deltaWall,
		"speedup":            fullWall / deltaWall,
		"files":              delta.Gauges[obs.GaugeIncrFiles],
		"files_changed":      delta.Gauges[obs.GaugeIncrFilesChanged],
		"spans_reused":       delta.Gauges[obs.GaugeIncrSpansReused],
		"constraints_reused": delta.Gauges[obs.GaugeIncrConstraintsReused],
		"cold_epochs":        full.Gauges[obs.GaugeSolverEpochs],
	}

	data, err := os.ReadFile(into)
	if err != nil {
		return err
	}
	doc := map[string]any{}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", into, err)
	}
	doc["incremental"] = sec
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(into, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged incremental section (%.2fx delta speedup) into %s\n", fullWall/deltaWall, into)
	return nil
}

// mergeStream builds the "distributed_stream" section from two
// streaming-coordinator snapshots of the same corpus: a cold run and a
// warm run whose fpcache was seeded by the cold run's shipped sidecars
// (and whose flow-constraint cache was persisted between them). The
// headline numbers are the warm/cold wall ratio, the peak decoded
// footprint against the total artifact volume (streaming holds one
// slice, not the corpus), and the flow-cache hit rate.
func mergeStream(into, coldPath, warmPath string, shards int) error {
	if coldPath == "" || warmPath == "" {
		return fmt.Errorf("stream mode needs both -stream-cold and -stream-warm")
	}
	cold, err := readSnapshot(coldPath)
	if err != nil {
		return err
	}
	warm, err := readSnapshot(warmPath)
	if err != nil {
		return err
	}
	coldWall := cold.Gauges[obs.GaugePipelineWall]
	warmWall := warm.Gauges[obs.GaugePipelineWall]
	if coldWall <= 0 || warmWall <= 0 {
		return fmt.Errorf("snapshots lack the %s gauge (need seldon runs with -metrics-json)", obs.GaugePipelineWall)
	}
	peak := warm.Gauges[obs.GaugeShardMergePeakBytes]
	total := warm.Gauges[obs.GaugeShardBytes]
	hits := warm.Counters[obs.CounterFlowCacheHits]
	misses := warm.Counters[obs.CounterFlowCacheMisses]
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	sec := map[string]any{
		"shards":             shards,
		"cold_wall_s":        coldWall,
		"warm_wall_s":        warmWall,
		"warm_speedup":       coldWall / warmWall,
		"exec_s":             warm.Timers[obs.StageShardExec].Sum,
		"merge_s":            warm.Timers[obs.TimerShardMerge].Sum,
		"stream_s":           warm.Timers[obs.StageShardStream].Sum,
		"artifact_bytes":     total,
		"peak_bytes":         peak,
		"peak_fraction":      safeDiv(peak, total),
		"stream_bytes":       warm.Counters[obs.CounterShardStreamBytes],
		"flowcache_hits":     hits,
		"flowcache_misses":   misses,
		"flowcache_hit_rate": hitRate,
	}

	data, err := os.ReadFile(into)
	if err != nil {
		return err
	}
	doc := map[string]any{}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%s: %w", into, err)
	}
	doc["distributed_stream"] = sec
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(into, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("merged distributed_stream section (%d shards, %.2fx warm, peak %.0f%% of artifacts, %.0f%% flowcache hits) into %s\n",
		shards, coldWall/warmWall, 100*safeDiv(peak, total), 100*hitRate, into)
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// checkStreamed asserts a coordinator snapshot proves pipelined
// ingestion: the peak decoded footprint must be positive and strictly
// below the total artifact volume. A whole-set buffering regression
// makes peak == total; a missing gauge makes it 0. Either exits 1.
func checkStreamed(path string) error {
	snap, err := readSnapshot(path)
	if err != nil {
		return err
	}
	peak := snap.Gauges[obs.GaugeShardMergePeakBytes]
	total := snap.Gauges[obs.GaugeShardBytes]
	if peak <= 0 || total <= 0 || peak >= total {
		return fmt.Errorf("%s: %s=%.0f vs %s=%.0f — coordinator did not stream (want 0 < peak < total)",
			path, obs.GaugeShardMergePeakBytes, peak, obs.GaugeShardBytes, total)
	}
	fmt.Printf("streamed: peak %.0f bytes of %.0f total (%.0f%%)\n", peak, total, 100*peak/total)
	return nil
}

func readSnapshot(path string) (*obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
