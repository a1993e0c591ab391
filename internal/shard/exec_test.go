package shard

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/propgraph"
)

// buildWorkerBin compiles cmd/seldon-shard into a temp dir so the test
// exercises the real subprocess fan-out, pipes and all.
func buildWorkerBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skipping worker-binary build")
	}
	bin := filepath.Join(t.TempDir(), "seldon-shard")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, "seldon/cmd/seldon-shard")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build seldon-shard: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	return filepath.Dir(string(bytes.TrimSpace(out)))
}

// execLocal is the barrier fan-out: it runs one worker per slice,
// reads every artifact off its pipe in slice order, and returns them
// all for a later merge. A read error keeps the decoder's sentinel and
// names the slice; every pipe is closed and every worker reaped.
func execLocal(cfg ExecConfig) ([]*Artifact, error) {
	if cfg.Slices < 1 {
		return nil, fmt.Errorf("shard: exec: need at least 1 slice, got %d", cfg.Slices)
	}
	procs, err := startWorkers(cfg)
	if err != nil {
		return nil, err
	}
	arts := make([]*Artifact, 0, cfg.Slices)
	var first error
	for i := range procs {
		p := &procs[i]
		if first != nil {
			p.finish(cfg.Bin, cfg.Slices)
			continue
		}
		a, err := ReadArtifact(bufio.NewReaderSize(p.out, 64<<10), ReadOptions{})
		werr := p.finish(cfg.Bin, cfg.Slices)
		switch {
		case err != nil:
			first = fmt.Errorf("shard: exec: slice %d/%d: %w", p.idx, cfg.Slices, err)
		case werr != nil:
			first = werr
		default:
			arts = append(arts, a)
		}
	}
	if first != nil {
		return nil, first
	}
	return arts, nil
}

// TestExecLocal runs the barrier flow over real subprocesses: 3
// seldon-shard processes on a generated corpus, every artifact read
// off its pipe, then merged and compared against the in-process union
// of the same corpus.
func TestExecLocal(t *testing.T) {
	bin := buildWorkerBin(t)
	const nFiles, nSlices = 40, 3

	arts, err := execLocal(ExecConfig{
		Bin: bin, Slices: nSlices, Generate: nFiles,
		Workers: 1, Stderr: io.Discard,
	})
	if err != nil {
		t.Fatalf("execLocal: %v", err)
	}
	if len(arts) != nSlices {
		t.Fatalf("got %d artifacts, want %d", len(arts), nSlices)
	}
	for i, a := range arts {
		if a.Slice != i {
			t.Errorf("artifact %d claims slice %d", i, a.Slice)
		}
		if a.Size == 0 {
			t.Errorf("artifact %d has no recorded size", i)
		}
	}

	res, err := mergeAll(arts)
	if err != nil {
		t.Fatalf("mergeAll: %v", err)
	}
	files := corpus.Generate(corpus.Config{Files: nFiles}).FileMap()
	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	want := propgraph.Union(fe.Graphs...)
	if !bytes.Equal(res.Graph.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Error("subprocess-merged graph differs from in-process union")
	}
	if res.Bytes == 0 {
		t.Error("merge result records zero artifact bytes")
	}
}

// TestExecMerge runs the pipelined fan-out end to end: 3 subprocesses
// streaming into the commit queue, with the result byte-identical to
// the in-process union and peak decoded footprint below the whole-set
// total (the point of streaming).
func TestExecMerge(t *testing.T) {
	bin := buildWorkerBin(t)
	const nFiles, nSlices = 40, 3

	res, err := ExecMerge(ExecConfig{
		Bin: bin, Slices: nSlices, Generate: nFiles,
		Workers: 1, Stderr: io.Discard,
	}, MergeOptions{})
	if err != nil {
		t.Fatalf("ExecMerge: %v", err)
	}
	files := corpus.Generate(corpus.Config{Files: nFiles}).FileMap()
	fe := core.AnalyzeFiles(files, core.Config{Workers: 1})
	want := propgraph.Union(fe.Graphs...)
	if !bytes.Equal(res.Graph.AppendBinary(nil), want.AppendBinary(nil)) {
		t.Error("pipelined-merge graph differs from in-process union")
	}
	if len(res.Spans) != nFiles {
		t.Errorf("merge produced %d spans, want %d", len(res.Spans), nFiles)
	}
	if res.PeakBytes <= 0 || res.PeakBytes >= res.Bytes {
		t.Errorf("PeakBytes = %d, want within (0, %d): in-order streaming must not hold the whole set",
			res.PeakBytes, res.Bytes)
	}
}

// truncatingWorker writes a fake worker script that emits the first n
// bytes of a real artifact and then dies — a worker crashing mid-write.
func truncatingWorker(t *testing.T, n int) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("sh script worker")
	}
	dir := t.TempDir()
	art := filepath.Join(dir, "good.shard")
	data := buildSlice(t, testFiles(t, 12), 0, 2).Encode()
	if n >= len(data) {
		t.Fatalf("truncation point %d beyond artifact (%d bytes)", n, len(data))
	}
	if err := os.WriteFile(art, data[:n], 0o644); err != nil {
		t.Fatal(err)
	}
	script := filepath.Join(dir, "worker.sh")
	if err := os.WriteFile(script, []byte("#!/bin/sh\ncat "+art+"\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	return script
}

// TestExecLocalPipeDeath: a worker dying mid-stream must surface as its
// slice's streaming sentinel (ErrTruncated — the pipe ended inside the
// payload), with the slice index in the message, and must never hang.
func TestExecLocalPipeDeath(t *testing.T) {
	bin := truncatingWorker(t, 100)
	_, err := execLocal(ExecConfig{Bin: bin, Slices: 2, Stderr: io.Discard})
	if err == nil {
		t.Fatal("execLocal succeeded with a mid-stream worker death")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("execLocal error = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "slice 0/2") {
		t.Errorf("execLocal error %q does not name the failed slice", err)
	}
}

// TestExecMergePipeDeath: the same death through the pipelined merge
// path — the commit queue must report the sentinel promptly, not wait
// for slices that will never complete.
func TestExecMergePipeDeath(t *testing.T) {
	bin := truncatingWorker(t, 100)
	done := make(chan error, 1)
	go func() {
		_, err := ExecMerge(ExecConfig{Bin: bin, Slices: 2, Stderr: io.Discard}, MergeOptions{})
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ExecMerge hung on a dead worker")
	}
	if err == nil {
		t.Fatal("ExecMerge succeeded with a mid-stream worker death")
	}
	if !errors.Is(err, ErrTruncated) {
		t.Errorf("ExecMerge error = %v, want ErrTruncated", err)
	}
	if !strings.Contains(err.Error(), "slice 0/2") {
		t.Errorf("ExecMerge error %q does not name the failed slice", err)
	}
}

// TestExecMergeFaults: a fan-out that cannot complete fails with an
// error — never a partial merge, and never a hang waiting for slices
// that will not arrive.
func TestExecMergeFaults(t *testing.T) {
	tests := []struct {
		name    string
		cfg     func(t *testing.T) ExecConfig
		want    error  // sentinel the error must wrap; nil = any error
		wantMsg string // substring the error must contain
	}{
		{name: "worker failure", cfg: func(t *testing.T) ExecConfig {
			// No corpus designation: every worker exits nonzero.
			return ExecConfig{Bin: buildWorkerBin(t), Slices: 2, Stderr: io.Discard}
		}},
		{name: "zero slices", cfg: func(t *testing.T) ExecConfig {
			return ExecConfig{Bin: "true", Slices: 0}
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			type outcome struct {
				res *MergeResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := ExecMerge(cfg, MergeOptions{})
				done <- outcome{res, err}
			}()
			var got outcome
			select {
			case got = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("ExecMerge hung")
			}
			if got.err == nil || got.res != nil {
				t.Fatalf("ExecMerge = (%v, %v), want a nil result and an error", got.res, got.err)
			}
			if tc.want != nil && !errors.Is(got.err, tc.want) {
				t.Errorf("ExecMerge error = %v, want %v", got.err, tc.want)
			}
			if !strings.Contains(got.err.Error(), tc.wantMsg) {
				t.Errorf("ExecMerge error %q does not contain %q", got.err, tc.wantMsg)
			}
		})
	}
}
