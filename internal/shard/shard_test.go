package shard

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/fpcache"
	"seldon/internal/propgraph"
)

// decode reads one artifact occupying the whole of data through the
// streaming reader, the only decoder the coordinator has.
func decode(data []byte) (*Artifact, error) {
	return ReadArtifact(bytes.NewReader(data), ReadOptions{})
}

// mergeAll commits arts to a fresh Merger in the given order and
// finishes it, returning the first error.
func mergeAll(arts []*Artifact) (*MergeResult, error) {
	m := NewMerger(MergeOptions{})
	for _, a := range arts {
		if err := m.Commit(a); err != nil {
			return nil, err
		}
	}
	return m.Finish()
}

// buildSlice analyzes slice i of n of a small synthetic corpus.
func buildSlice(t testing.TB, files map[string]string, i, n int) *Artifact {
	t.Helper()
	a, _, err := BuildFromCorpus(files, i, n, core.Config{Workers: 1})
	if err != nil {
		t.Fatalf("BuildFromCorpus(%d/%d): %v", i, n, err)
	}
	return a
}

func testFiles(t testing.TB, n int) map[string]string {
	t.Helper()
	return corpus.Generate(corpus.Config{Files: n}).FileMap()
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	files := testFiles(t, 20)
	want := buildSlice(t, files, 1, 3)
	data := want.Encode()

	got, err := decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.AnalyzerVersion != want.AnalyzerVersion {
		t.Errorf("analyzer version %q, want %q", got.AnalyzerVersion, want.AnalyzerVersion)
	}
	if got.Slice != want.Slice || got.Slices != want.Slices {
		t.Errorf("slice %d/%d, want %d/%d", got.Slice, got.Slices, want.Slice, want.Slices)
	}
	if got.Size != int64(len(data)) {
		t.Errorf("Size = %d, want %d", got.Size, len(data))
	}
	if len(got.Files) != len(want.Files) {
		t.Fatalf("%d manifest entries, want %d", len(got.Files), len(want.Files))
	}
	for i := range got.Files {
		if got.Files[i] != want.Files[i] {
			t.Errorf("manifest[%d] = %+v, want %+v", i, got.Files[i], want.Files[i])
		}
	}
	if !bytes.Equal(got.Graph.AppendBinary(nil), want.Graph.AppendBinary(nil)) {
		t.Error("decoded graph differs from the encoded one")
	}

	// Encoding is a pure function of the artifact.
	if !bytes.Equal(want.Encode(), data) {
		t.Error("Encode is not deterministic")
	}
}

func TestWriteFileReadFile(t *testing.T) {
	files := testFiles(t, 12)
	want := buildSlice(t, files, 0, 2)
	path := filepath.Join(t.TempDir(), "part0.shard")
	n, err := WriteFile(path, want)
	if err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("wrote %d bytes, stat says %v, %v", n, fi, err)
	}
	got, err := ReadFile(path, ReadOptions{})
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got.Graph.AppendBinary(nil), want.Graph.AppendBinary(nil)) {
		t.Error("graph round-trip through file differs")
	}
	// No temp droppings from the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the artifact", len(entries))
	}
}

// faultCase is one damaged input and the sentinel decoding must report.
type faultCase struct {
	name string
	data []byte
	want error
}

// decodeFaultCases damages a well-formed artifact in every way a
// transfer can: truncation at each layer, bad magic, a stale codec,
// flipped bytes, and trailing garbage.
func decodeFaultCases(good []byte) []faultCase {
	corrupt := func(mutate func([]byte) []byte) []byte {
		data := append([]byte(nil), good...)
		return mutate(data)
	}
	return []faultCase{
		{"empty", nil, ErrTruncated},
		{"shorter than magic", corrupt(func(d []byte) []byte { return d[:2] }), ErrTruncated},
		{"header cut", corrupt(func(d []byte) []byte { return d[:5] }), ErrTruncated},
		{"payload cut", corrupt(func(d []byte) []byte { return d[:len(d)/2] }), ErrTruncated},
		{"checksum cut", corrupt(func(d []byte) []byte { return d[:len(d)-1] }), ErrTruncated},
		{"bad magic", corrupt(func(d []byte) []byte { d[0] = 'X'; return d }), ErrMagic},
		{"stale codec version", corrupt(func(d []byte) []byte { d[4] = codecVersion + 1; return d }), ErrCodecVersion},
		{"flipped payload byte", corrupt(func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }), ErrChecksum},
		{"flipped checksum byte", corrupt(func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d }), ErrChecksum},
		{"trailing bytes", corrupt(func(d []byte) []byte { return append(d, 0xEE) }), ErrTrailing},
	}
}

// badPayloadCases are checksum-valid artifacts whose payload does not
// parse: a buggy or adversarial encoder, not line noise.
func badPayloadCases() []faultCase {
	out := func(a *Artifact) []byte { return a.Encode() }
	empty := propgraph.New()
	return []faultCase{
		{"slice out of range", out(&Artifact{AnalyzerVersion: "v", Slice: 5, Slices: 2, Graph: empty}), ErrEncoding},
		{"zero slices", out(&Artifact{AnalyzerVersion: "v", Slice: 0, Slices: 0, Graph: empty}), ErrEncoding},
		{"unsorted manifest", out(&Artifact{
			AnalyzerVersion: "v", Slice: 0, Slices: 1,
			Files:      []FileMeta{{Name: "b.py"}, {Name: "a.py"}},
			FileGraphs: []*propgraph.Graph{empty, empty},
			Graph:      empty,
		}), ErrEncoding},
		{"duplicate manifest name", out(&Artifact{
			AnalyzerVersion: "v", Slice: 0, Slices: 1,
			Files:      []FileMeta{{Name: "a.py"}, {Name: "a.py"}},
			FileGraphs: []*propgraph.Graph{empty, empty},
			Graph:      empty,
		}), ErrEncoding},
	}
}

// TestDecodeFaults checks that every way an artifact can be damaged in
// transit maps to its own named error — never a silent skip, never the
// wrong sentinel.
func TestDecodeFaults(t *testing.T) {
	good := buildSlice(t, testFiles(t, 12), 0, 1).Encode()
	for _, tc := range decodeFaultCases(good) {
		t.Run(tc.name, func(t *testing.T) {
			a, err := decode(tc.data)
			if a != nil {
				t.Fatal("damaged artifact decoded to a non-nil result")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("decode = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestDecodeBadPayload covers the checksum-holds-but-payload-is-garbage
// class.
func TestDecodeBadPayload(t *testing.T) {
	for _, tc := range badPayloadCases() {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decode(tc.data); !errors.Is(err, tc.want) {
				t.Fatalf("decode = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestMergeFaults checks the set-level validation: slice bookkeeping
// violations each get their own sentinel.
func TestMergeFaults(t *testing.T) {
	files := testFiles(t, 20)
	a0 := buildSlice(t, files, 0, 2)
	a1 := buildSlice(t, files, 1, 2)

	t.Run("duplicate slice", func(t *testing.T) {
		if _, err := mergeAll([]*Artifact{a0, a0}); !errors.Is(err, ErrDuplicateSlice) {
			t.Fatalf("merge = %v, want ErrDuplicateSlice", err)
		}
	})
	t.Run("missing slice", func(t *testing.T) {
		if _, err := mergeAll([]*Artifact{a0}); !errors.Is(err, ErrMissingSlice) {
			t.Fatalf("merge = %v, want ErrMissingSlice", err)
		}
	})
	t.Run("no artifacts", func(t *testing.T) {
		if _, err := mergeAll(nil); !errors.Is(err, ErrMissingSlice) {
			t.Fatalf("merge = %v, want ErrMissingSlice", err)
		}
	})
	t.Run("slice count mismatch", func(t *testing.T) {
		b0 := buildSlice(t, files, 0, 3)
		if _, err := mergeAll([]*Artifact{a0, b0}); !errors.Is(err, ErrSliceCount) {
			t.Fatalf("merge = %v, want ErrSliceCount", err)
		}
	})
	t.Run("analyzer version mismatch", func(t *testing.T) {
		stale := *a1
		stale.AnalyzerVersion = "seldon-frontend-v0"
		if _, err := mergeAll([]*Artifact{a0, &stale}); !errors.Is(err, ErrAnalyzerVersion) {
			t.Fatalf("merge = %v, want ErrAnalyzerVersion", err)
		}
	})
	t.Run("slice order violation", func(t *testing.T) {
		// Swap the claimed indices: each artifact is internally sorted,
		// but their concatenation in "slice order" is not.
		x0, x1 := *a0, *a1
		x0.Slice, x1.Slice = 1, 0
		if _, err := mergeAll([]*Artifact{&x0, &x1}); !errors.Is(err, ErrSliceOrder) {
			t.Fatalf("merge = %v, want ErrSliceOrder", err)
		}
	})
	t.Run("valid set still merges", func(t *testing.T) {
		res, err := mergeAll([]*Artifact{a1, a0}) // arrival order irrelevant
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		if len(res.Files) != len(files) {
			t.Errorf("merged %d files, want %d", len(res.Files), len(files))
		}
	})
}

func TestBuildRejectsBadSlice(t *testing.T) {
	files := testFiles(t, 8)
	for _, c := range [][2]int{{-1, 2}, {2, 2}, {0, 0}} {
		if _, _, err := Build(files, c[0], c[1], core.Config{Workers: 1}); err == nil {
			t.Errorf("Build(%d, %d) succeeded, want error", c[0], c[1])
		}
	}
}

func TestBuildAnalyzerVersion(t *testing.T) {
	files := testFiles(t, 8)
	a := buildSlice(t, files, 0, 1)
	if a.AnalyzerVersion != fpcache.AnalyzerVersion {
		t.Errorf("artifact carries analyzer version %q, want %q", a.AnalyzerVersion, fpcache.AnalyzerVersion)
	}
}

// TestArtifactWireGolden pins the SSHD bytes of a fixed slice, with and
// without the fpcache sidecar. The sidecar costs are fixed here because
// Build records wall times. A deliberate format change must bump
// codecVersion and re-pin.
func TestArtifactWireGolden(t *testing.T) {
	files := testFiles(t, 6)
	a := buildSlice(t, files, 0, 2)
	const wantPlain = "9d297d4edf4cebae99bdbe25dff06ec7e9e7c4452bf9da340837a0f1295f7661"
	if got := fmt.Sprintf("%x", sha256.Sum256(a.Encode())); got != wantPlain {
		t.Errorf("artifact sha256 = %s, want %s", got, wantPlain)
	}
	costs := make([]time.Duration, len(a.Files))
	for j := range costs {
		costs[j] = time.Duration(j+1) * time.Millisecond
	}
	a.AttachSidecar(files, &core.FrontEnd{Costs: costs})
	const wantSidecar = "d8b594418e2657932af33d4917e7bd477c724bac0d24dcbba436ef7e230694be"
	if got := fmt.Sprintf("%x", sha256.Sum256(a.Encode())); got != wantSidecar {
		t.Errorf("sidecar artifact sha256 = %s, want %s", got, wantSidecar)
	}
}
