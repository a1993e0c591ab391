package shard

import (
	"errors"
	"testing"

	"seldon/internal/core"
	"seldon/internal/propgraph"
)

// sentinels lists every named error the decoder may report.
var sentinels = []error{
	ErrTruncated, ErrMagic, ErrCodecVersion, ErrChecksum, ErrTrailing,
	ErrEncoding, ErrAnalyzerVersion, ErrSliceCount, ErrDuplicateSlice,
	ErrMissingSlice, ErrSliceOrder,
}

// FuzzReadArtifact drives the shard decoder with arbitrary bytes. The
// invariant: ReadArtifact returns either an error wrapping one of the
// package sentinels (and no artifact), or an artifact whose checksum
// settled and whose per-file facts tile its graph. It never panics, and
// a corrupt length field cannot make it allocate far beyond the input.
//
// The corpus is seeded with round-trip artifacts (plain, with an fpcache
// sidecar, a middle slice, an empty manifest) and the whole fault
// matrix: damaged transfers, truncation at every section boundary,
// checksum-valid artifacts with unparseable payloads, and length fields
// far beyond the input.
func FuzzReadArtifact(f *testing.F) {
	files := testFiles(f, 8)
	plain := buildSlice(f, files, 0, 1).Encode()
	side, fe, err := BuildFromCorpus(files, 0, 1, core.Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	side.AttachSidecar(files, fe)
	seeds := [][]byte{
		plain,
		side.Encode(),
		buildSlice(f, files, 1, 3).Encode(),
		(&Artifact{AnalyzerVersion: "v", Slice: 0, Slices: 1, Graph: propgraph.New()}).Encode(),
	}
	for _, off := range sectionBoundaries(f, plain) {
		seeds = append(seeds, plain[:off])
	}
	faults := append(decodeFaultCases(plain), badPayloadCases()...)
	for _, tc := range append(faults, hugeLengthCases()...) {
		seeds = append(seeds, tc.data)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decode(data)
		if err != nil {
			if a != nil {
				t.Fatalf("error %v with a non-nil artifact", err)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("error wraps no package sentinel: %v", err)
		}
		if a.Size != int64(len(data)) {
			t.Fatalf("artifact Size %d, input %d bytes", a.Size, len(data))
		}
		if len(a.FileHashes) != len(a.Files) || len(a.FileEvents) != len(a.Files) {
			t.Fatalf("%d files, %d hashes, %d event counts", len(a.Files), len(a.FileHashes), len(a.FileEvents))
		}
		events := 0
		for _, n := range a.FileEvents {
			events += n
		}
		if events != len(a.Graph.Events) {
			t.Fatalf("file event counts sum to %d, graph has %d events", events, len(a.Graph.Events))
		}
	})
}
