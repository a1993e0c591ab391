package incr_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/incr"
	"seldon/internal/propgraph"
)

// savedState saves s and returns the state file's bytes.
func savedState(t testing.TB, s *incr.Session) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), incr.StateFile)
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStateWireGolden pins the state.bin bytes of a fixed session after
// a cold Relearn, a pin and a warm Relearn. A deliberate format change
// must bump stateVersion and re-pin.
func TestStateWireGolden(t *testing.T) {
	files, _ := testCorpus(t, 6, 11)
	s := sessionFrom(t, files, core.Config{Workers: 1})
	s.Relearn()
	s.Pin("shellrun.invoke()", propgraph.Sink, 0)
	s.Relearn()
	const want = "8c1590bb8948996a4cffcfbfcc86383f6a52e8cee72b23c48d2e90b116919073"
	if got := fmt.Sprintf("%x", sha256.Sum256(savedState(t, s))); got != want {
		t.Errorf("state.bin sha256 = %s, want %s", got, want)
	}
}

// hugeCountBody is a checksum-valid state body (trailer not yet
// appended) whose solution table declares 10^8 entries but carries
// only a few bytes of them.
func hugeCountBody(t testing.TB) []byte {
	t.Helper()
	data := savedState(t, incr.NewSession(corpus.ExperimentSeed(), core.Config{Workers: 1}))
	// An empty session's body ends in four u64s: file, solution and pin
	// counts, then the cold-epoch baseline. Keep the file count.
	body := data[:len(data)-envelope.TrailerSize-3*8]
	body = envelope.AppendU64(body, 1e8)
	return append(body, make([]byte, 64)...)
}

// TestLoadBoundsAllocation: a small, correctly sealed state file that
// declares a huge solution count must fail fast, without allocating for
// the declared count.
func TestLoadBoundsAllocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), incr.StateFile)
	if err := os.WriteFile(path, envelope.Seal(hugeCountBody(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := incr.Load(path, corpus.ExperimentSeed(), core.Config{Workers: 1})
	runtime.ReadMemStats(&after)
	if err == nil || s != nil {
		t.Fatalf("Load = (%v, %v), want an error", s, err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d > 64<<20 {
		t.Fatalf("Load allocated %d MiB for a small state file", d>>20)
	}
}

// FuzzLoadState drives the state decoder with arbitrary bodies. Each
// input is sealed before Load sees it, so mutations reach the body
// parser instead of all dying at the checksum; Load runs in adopt mode
// (nil seed) so they get past the seed and knob checks too. The
// invariant: every input yields an error or a session, never a panic,
// and a declared count cannot drive allocation beyond the input. The
// corpus is seeded with round-trip bodies and the rejection cases.
func FuzzLoadState(f *testing.F) {
	files, _ := testCorpus(f, 3, 5)
	s := sessionFrom(f, files, core.Config{Workers: 1})
	s.Relearn()
	s.Pin("shellrun.invoke()", propgraph.Sink, 0)
	full := savedState(f, s)
	full = full[:len(full)-envelope.TrailerSize]
	empty := savedState(f, incr.NewSession(corpus.ExperimentSeed(), core.Config{Workers: 1}))
	empty = empty[:len(empty)-envelope.TrailerSize]
	for _, body := range [][]byte{
		full,
		empty,
		hugeCountBody(f),
		full[:len(full)/2],
		append([]byte("XINC"), full[4:]...),
		append(full, 0),
	} {
		f.Add(body)
	}

	path := filepath.Join(f.TempDir(), incr.StateFile)
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, envelope.Seal(append([]byte(nil), body...)), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := incr.Load(path, nil, core.Config{Workers: 1})
		if (s == nil) == (err == nil) {
			t.Fatalf("Load = (%v, %v), want exactly one of a session and an error", s, err)
		}
	})
}
