package constraints_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seldon/internal/constraints"
	"seldon/internal/corpus"
	"seldon/internal/envelope"
	"seldon/internal/fpcache"
)

// TestFlowCacheSaveLoadRoundTrip: a populated cache persisted and
// reloaded must drive a second incremental build to the byte-identical
// system with every span reused — cross-process warmth, not just
// cross-call warmth.
func TestFlowCacheSaveLoadRoundTrip(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 12, Seed: 7}).FileMap()
	seed := corpus.ExperimentSeed()
	opts := constraints.Options{Workers: 1}
	_, _, union, spans := corpusSpans(t, files, 1)

	cache := constraints.NewFlowCache()
	cold, st := constraints.BuildIncremental(union, seed, opts, spans, cache)
	if st.FellBack || st.SpansRebuilt != len(spans) {
		t.Fatalf("cold build: %+v", st)
	}
	want := encodeSystem(cold)

	path := filepath.Join(t.TempDir(), "flowcache.bin")
	if err := cache.Save(path, opts); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, ok := constraints.LoadFlowCache(path, opts)
	if !ok {
		t.Fatal("LoadFlowCache rejected its own Save")
	}
	if loaded.Len() != cache.Len() {
		t.Fatalf("loaded %d blocks, saved %d", loaded.Len(), cache.Len())
	}

	warm, st2 := constraints.BuildIncremental(union, seed, opts, spans, loaded)
	if st2.SpansReused != len(spans) || st2.SpansRebuilt != 0 {
		t.Fatalf("warm-from-disk build reused %d/%d spans, rebuilt %d",
			st2.SpansReused, st2.Spans, st2.SpansRebuilt)
	}
	if !bytes.Equal(encodeSystem(warm), want) {
		t.Fatal("system built from the persisted cache differs from the original")
	}

	// Save is deterministic: same cache, same bytes.
	path2 := filepath.Join(t.TempDir(), "flowcache2.bin")
	if err := loaded.Save(path2, opts); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if !bytes.Equal(b1, b2) {
		t.Error("Save is not deterministic across a load round-trip")
	}
}

// TestLoadFlowCacheRejects mirrors the incr state 4-way rejection: a
// stale analyzer version, skewed knobs, a corrupted trailer, and a
// truncated file must each load as an empty cache (miss) — never an
// error, never a poisoned cache.
func TestLoadFlowCacheRejects(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 8, Seed: 3}).FileMap()
	seed := corpus.ExperimentSeed()
	opts := constraints.Options{Workers: 1}
	_, _, union, spans := corpusSpans(t, files, 1)
	cache := constraints.NewFlowCache()
	constraints.BuildIncremental(union, seed, opts, spans, cache)
	if cache.Len() == 0 {
		t.Fatal("fixture cache is empty")
	}

	dir := t.TempDir()
	good := filepath.Join(dir, "flowcache.bin")
	if err := cache.Save(good, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	writeVariant := func(t *testing.T, b []byte) string {
		t.Helper()
		p := filepath.Join(t.TempDir(), "variant.bin")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	expectEmpty := func(t *testing.T, path string, loadOpts constraints.Options) {
		t.Helper()
		c, ok := constraints.LoadFlowCache(path, loadOpts)
		if ok {
			t.Error("LoadFlowCache accepted a skewed file")
		}
		if c == nil || c.Len() != 0 {
			t.Errorf("skewed load returned a non-empty cache (%d blocks)", c.Len())
		}
	}

	t.Run("missing file", func(t *testing.T) {
		expectEmpty(t, filepath.Join(dir, "nope.bin"), opts)
	})
	t.Run("corrupted trailer", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[len(b)-1] ^= 0x01
		expectEmpty(t, writeVariant(t, b), opts)
	})
	t.Run("corrupted body", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[len(b)/2] ^= 0x40
		expectEmpty(t, writeVariant(t, b), opts)
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, len(data) / 2, len(data) - 1} {
			expectEmpty(t, writeVariant(t, data[:n]), opts)
		}
	})
	t.Run("stale analyzer version", func(t *testing.T) {
		// Patch the embedded analyzer-version bytes in place and re-seal
		// the checksum: only the version check can catch this one.
		av := []byte(fpcache.AnalyzerVersion)
		i := bytes.Index(data, av)
		if i < 0 {
			t.Fatal("analyzer version not found in file")
		}
		b := append([]byte(nil), data...)
		b[i] ^= 0x20
		expectEmpty(t, writeVariant(t, resealFlowCache(b)), opts)
	})
	t.Run("knob mismatch", func(t *testing.T) {
		skew := opts
		skew.MaxComponent = 123
		expectEmpty(t, good, skew)
		skew = opts
		skew.Lambda = 0.5
		expectEmpty(t, good, skew)
	})
	t.Run("huge constraint count", func(t *testing.T) {
		// A sealed file whose one block declares 2^20 constraints over
		// 1 MiB of zeros: every constraint takes at least 16 bytes, so
		// the count must be rejected before it sizes an allocation.
		empty := filepath.Join(t.TempDir(), "empty.bin")
		if err := constraints.NewFlowCache().Save(empty, opts); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(empty)
		if err != nil {
			t.Fatal(err)
		}
		b = b[:len(b)-envelope.TrailerSize-8] // drop the trailer and the block count
		b = envelope.AppendU64(b, 1)
		b = envelope.AppendString64(b, "a.py")
		b = append(b, make([]byte, 32+4*8)...)
		b = envelope.AppendU64(b, 1<<20)
		path := writeVariant(t, envelope.Seal(append(b, make([]byte, 1<<20)...)))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		expectEmpty(t, path, opts)
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d > 8<<20 {
			t.Errorf("LoadFlowCache allocated %d MiB for a 1 MiB file", d>>20)
		}
	})
	t.Run("good file still loads", func(t *testing.T) {
		if _, ok := constraints.LoadFlowCache(good, opts); !ok {
			t.Fatal("pristine file rejected")
		}
	})
}

// resealFlowCache recomputes the sha256 trailer after an in-place body
// patch, so a test can present an internally-consistent file that is
// wrong about the world (stale analyzer version) rather than corrupt.
func resealFlowCache(b []byte) []byte {
	return envelope.Seal(b[:len(b)-envelope.TrailerSize])
}

// TestFlowCacheWireGolden pins the flowcache.bin bytes of a fixed
// corpus's flow blocks. A deliberate format change must bump
// flowCacheVersion and re-pin.
func TestFlowCacheWireGolden(t *testing.T) {
	files := corpus.Generate(corpus.Config{Files: 6, Seed: 5}).FileMap()
	opts := constraints.Options{Workers: 1}
	_, _, union, spans := corpusSpans(t, files, 1)
	cache := constraints.NewFlowCache()
	constraints.BuildIncremental(union, corpus.ExperimentSeed(), opts, spans, cache)
	path := filepath.Join(t.TempDir(), "flowcache.bin")
	if err := cache.Save(path, opts); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "fefedd047bcea79d926b46602b5bdd53c92965baab994fe6604ccb7c6367d5da"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Errorf("flowcache.bin sha256 = %s, want %s", got, want)
	}
}
