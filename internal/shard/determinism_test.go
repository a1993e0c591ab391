package shard

import (
	"bytes"
	"math/rand"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/propgraph"
	"seldon/internal/specio"
)

// TestMergeDeterminism is the subsystem's invariant as a unit test: for
// every shard count, with artifacts round-tripped through the wire
// format and ingested in shuffled order, the coordinator's merged graph
// is byte-identical to the single-process union of the whole corpus,
// and the manifest-derived corpus fingerprint equals the one computed
// from raw contents.
func TestMergeDeterminism(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 60}).FileMap()

	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	want := propgraph.Union(fe.Graphs...).AppendBinary(nil)
	wantFP := specio.Fingerprint(files)

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 4, 7} {
		arts := make([]*Artifact, n)
		for i := 0; i < n; i++ {
			a := buildSlice(t, files, i, n)
			// Round-trip through the wire format so the test covers what a
			// coordinator actually sees, not in-process structs.
			decoded, err := decode(a.Encode())
			if err != nil {
				t.Fatalf("n=%d slice %d: round-trip: %v", n, i, err)
			}
			arts[i] = decoded
		}
		rng.Shuffle(n, func(i, j int) { arts[i], arts[j] = arts[j], arts[i] })

		res, err := mergeAll(arts)
		if err != nil {
			t.Fatalf("n=%d: Merge: %v", n, err)
		}
		if got := res.Graph.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("n=%d: merged graph differs from single-process union (%d vs %d bytes)",
				n, len(got), len(want))
		}
		if res.CorpusFingerprint != wantFP {
			t.Errorf("n=%d: fingerprint %s, want %s", n, res.CorpusFingerprint, wantFP)
		}
		if len(res.Files) != len(files) {
			t.Errorf("n=%d: %d files, want %d", n, len(res.Files), len(files))
		}
		if res.Slices != n {
			t.Errorf("n=%d: Slices = %d", n, res.Slices)
		}
	}
}

// TestMergeLearnsIdentically pushes one shard count all the way through
// learning: the predictions from the merged graph equal those from the
// single-process pipeline, entry for entry and score for score.
func TestMergeLearnsIdentically(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 40}).FileMap()
	seed := corpus.ExperimentSeed()
	cfg := core.Config{Threshold: 0.1, Workers: 1}

	single := core.LearnFromSources(files, seed, cfg)

	arts := make([]*Artifact, 3)
	for i := range arts {
		arts[i] = buildSlice(t, files, i, 3)
	}
	res, err := mergeAll([]*Artifact{arts[2], arts[0], arts[1]})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	dist := core.Learn(res.Graph, seed, cfg)

	a := single.LearnedSpec(seed).Format()
	b := dist.LearnedSpec(seed).Format()
	if a != b {
		t.Errorf("learned specs differ:\nsingle:\n%s\ndistributed:\n%s", a, b)
	}
}

// TestMergeParseErrors: parse failures recorded in shard manifests
// surface in the merge result exactly as a single-process run reports
// them.
func TestMergeParseErrors(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 20}).FileMap()
	files["zzz_broken.py"] = "def broken(:\n"

	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	if len(fe.ParseErrorFiles) == 0 {
		t.Fatal("fixture did not produce a parse error")
	}

	arts := []*Artifact{buildSlice(t, files, 0, 2), buildSlice(t, files, 1, 2)}
	res, err := mergeAll(arts)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	if res.ParseErrors != len(fe.ParseErrorFiles) {
		t.Errorf("merge reports %d parse errors, single-process reports %d",
			res.ParseErrors, len(fe.ParseErrorFiles))
	}
	if len(res.ParseErrorFiles) == 0 || res.ParseErrorFiles[len(res.ParseErrorFiles)-1] != "zzz_broken.py" {
		t.Errorf("ParseErrorFiles = %v, want trailing zzz_broken.py", res.ParseErrorFiles)
	}
}
