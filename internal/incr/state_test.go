package incr_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// a Relearn, a pin and a second Relearn. A deliberate format change
// must bump stateVersion and re-pin.
func TestStateWireGolden(t *testing.T) {
	files, _ := testCorpus(t, 6, 11)
	s := sessionFrom(t, files, core.Config{Workers: 1})
	s.Relearn()
	s.Pin("shellrun.invoke()", propgraph.Sink, 0)
	s.Relearn()
	const want = "006e1c74b7dca849829a8aa20ef91e894f705481d18507c4039d9ba9b5334733"
	if got := fmt.Sprintf("%x", sha256.Sum256(savedState(t, s))); got != want {
		t.Errorf("state.bin sha256 = %s, want %s", got, want)
	}
}

// hugeCountBody is a checksum-valid state body (trailer not yet
// appended) whose pin table declares 10^8 entries but carries only a
// few bytes of them.
func hugeCountBody(t testing.TB) []byte {
	t.Helper()
	data := savedState(t, incr.NewSession(corpus.ExperimentSeed(), core.Config{Workers: 1}))
	// An empty session's body ends in two u64s, the file and pin counts.
	// Keep the file count.
	body := data[:len(data)-envelope.TrailerSize-8]
	body = envelope.AppendU64(body, 1e8)
	return append(body, make([]byte, 64)...)
}

// TestLoadBoundsAllocation: a small, correctly sealed state file that
// declares a huge pin count must fail fast, without allocating for
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

// TestLoadRejectsVersion1: a state file from before the solution table
// was dropped fails Load (its callers then start a cold session) even
// when it is otherwise well formed.
func TestLoadRejectsVersion1(t *testing.T) {
	data := savedState(t, incr.NewSession(corpus.ExperimentSeed(), core.Config{Workers: 1}))
	body := data[:len(data)-envelope.TrailerSize]
	v1 := append(envelope.AppendU64(append([]byte(nil), body[:4]...), 1), body[12:]...)
	path := filepath.Join(t.TempDir(), incr.StateFile)
	if err := os.WriteFile(path, envelope.Seal(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := incr.Load(path, corpus.ExperimentSeed(), core.Config{Workers: 1}); err == nil ||
		!strings.Contains(err.Error(), "state version 1") {
		t.Fatalf("Load of a version-1 file = %v, want a state version error", err)
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
