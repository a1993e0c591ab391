package propgraph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"testing"

	"seldon/internal/envelope"
	"seldon/internal/pytoken"
)

// binaryTestGraph builds a graph exercising every encoded feature:
// multiple kinds, positions, backoff rep lists, role sets, edge
// insertion order, and argument labels (including the receiver/keyword
// sentinels).
func binaryTestGraph() *Graph {
	g := New()
	a := g.AddEvent(KindCall, "app.py", pytoken.Pos{Line: 3, Col: 4},
		[]string{"flask.request.args.get()", "request.args.get()", "args.get()"})
	b := g.AddEvent(KindRead, "app.py", pytoken.Pos{Line: 5, Col: 0},
		[]string{"flask.request.form"})
	c := g.AddEvent(KindParam, "app.py", pytoken.Pos{Line: 1, Col: 8}, []string{"handler:q"})
	d := g.AddEvent(KindCall, "app.py", pytoken.Pos{Line: 9, Col: 2}, []string{"os.system()"})
	_ = c
	// Deliberately non-ascending insertion order on d's predecessors.
	g.AddEdgeArg(b.ID, d.ID, 1)
	g.AddEdgeArg(a.ID, d.ID, 0)
	g.AddEdgeArg(a.ID, d.ID, ArgReceiver)
	g.AddEdge(c.ID, b.ID)
	g.Events[b.ID].Roles = SourceOnly
	return g
}

func TestBinaryRoundTrip(t *testing.T) {
	g := binaryTestGraph()
	enc := g.AppendBinary(nil)
	got, rest, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("decode left %d unconsumed bytes", len(rest))
	}

	// The decoded graph must re-encode to the same bytes...
	if !bytes.Equal(got.AppendBinary(nil), enc) {
		t.Error("re-encode differs from original encoding")
	}
	// ...and agree with the JSON codec, which covers events, succ order,
	// and edge labels.
	var a, b bytes.Buffer
	if err := g.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("JSON of decoded graph differs:\n got %s\nwant %s", b.String(), a.String())
	}
	// Edge labels survive, sorted as AddEdgeArg keeps them.
	if args := got.EdgeArgs(0, 3); len(args) != 2 || args[0] != ArgReceiver || args[1] != 0 {
		t.Errorf("EdgeArgs(0,3) = %v", args)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	g := binaryTestGraph()
	first := g.AppendBinary(nil)
	for i := 0; i < 16; i++ {
		if !bytes.Equal(g.AppendBinary(nil), first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

func TestBinaryEmptyGraphAndRest(t *testing.T) {
	enc := New().AppendBinary(nil)
	trailer := []byte("tail")
	g, rest, err := DecodeBinary(append(enc, trailer...))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Events) != 0 || g.NumEdges() != 0 {
		t.Errorf("decoded empty graph has %d events, %d edges", len(g.Events), g.NumEdges())
	}
	if !bytes.Equal(rest, trailer) {
		t.Errorf("rest = %q, want %q", rest, trailer)
	}
}

// malformedBinaryCases are encodings DecodeBinary must reject.
func malformedBinaryCases() map[string][]byte {
	enc := binaryTestGraph().AppendBinary(nil)
	return map[string][]byte{
		"empty":       {},
		"bad tag":     append([]byte{0x00}, enc[1:]...),
		"bad version": append([]byte{binaryTag, 99}, enc[2:]...),
		"truncated":   enc[:len(enc)/2],
		"giant event count": append([]byte{binaryTag, binaryVersion,
			0xff, 0xff, 0xff, 0xff, 0x0f}, enc[3:]...),
	}
}

func TestBinaryRejectsMalformedInput(t *testing.T) {
	for name, data := range malformedBinaryCases() {
		if _, _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// Version-1 entries (pre-symbol-table layout) must be rejected outright —
// the fpcache turns that error into a miss and re-analyzes.
func TestBinaryRejectsVersion1(t *testing.T) {
	enc := binaryTestGraph().AppendBinary(nil)
	v1 := append([]byte{binaryTag, 1}, enc[2:]...)
	if _, _, err := DecodeBinary(v1); err == nil {
		t.Error("version-1 input accepted")
	}
}

// A symbol table with a duplicate string would silently shift every later
// symbol ID on decode; it must be treated as corruption.
func TestBinaryRejectsDuplicateSymbols(t *testing.T) {
	data := []byte{binaryTag, binaryVersion}
	data = binary.AppendUvarint(data, 2)
	data = envelope.AppendString(data, "f()")
	data = envelope.AppendString(data, "f()")
	data = binary.AppendUvarint(data, 0) // files
	data = binary.AppendUvarint(data, 0) // events
	data = binary.AppendUvarint(data, 0) // edge args
	if _, _, err := DecodeBinary(data); err == nil {
		t.Error("duplicate symbol table accepted")
	}
}

// TestBinarySharesStrings pins the v2 size win: a graph whose events
// repeat representations and file names must encode smaller than the sum
// of its per-occurrence strings.
func TestBinaryStringTableCompression(t *testing.T) {
	g := New()
	for i := 0; i < 50; i++ {
		g.AddEvent(KindCall, "pkg/very/long/path/to/module.py",
			pytoken.Pos{Line: i + 1}, []string{"package.module.function()", "module.function()"})
	}
	enc := g.AppendBinary(nil)
	perOccurrence := 0
	for _, e := range g.Events {
		perOccurrence += len(e.File)
		for _, r := range e.Reps() {
			perOccurrence += len(r)
		}
	}
	if len(enc) >= perOccurrence {
		t.Errorf("encoding %dB, not smaller than %dB of per-occurrence strings",
			len(enc), perOccurrence)
	}
	got, _, err := DecodeBinary(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendBinary(nil), enc) {
		t.Error("round trip changed bytes")
	}
}

// TestBinaryWireGolden pins the v2 codec's bytes for a fixed graph. The
// round-trip tests above cannot see a change that both sides agree on;
// this one fails on any byte of drift (a deliberate change must bump
// binaryVersion and re-pin).
func TestBinaryWireGolden(t *testing.T) {
	const want = "79428a4f3e5a9a699f3e544d05403b2fdd2dfca3b95e8272f04721b34a42779e"
	if got := fmt.Sprintf("%x", sha256.Sum256(binaryTestGraph().AppendBinary(nil))); got != want {
		t.Errorf("AppendBinary sha256 = %s, want %s", got, want)
	}
}

// FuzzDecodeBinary drives the graph decoder with arbitrary bytes. The
// invariant: every input yields an error or a graph, never a panic, and
// a decoded graph's encoding decodes again to a graph that re-encodes
// to the same bytes. (The input itself need not be canonical: an unused
// file-table entry, say, decodes but is not re-emitted.)
// The corpus is seeded with round-trip encodings and the rejection
// cases above.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(binaryTestGraph().AppendBinary(nil))
	f.Add(New().AppendBinary(nil))
	for _, data := range malformedBinaryCases() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, rest, err := DecodeBinary(data)
		if err != nil {
			if g != nil {
				t.Fatalf("error %v with a non-nil graph", err)
			}
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("rest of %d bytes from a %d-byte input", len(rest), len(data))
		}
		enc := g.AppendBinary(nil)
		g2, rest2, err := DecodeBinary(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-decode of the encoder's output: %v (%d bytes left)", err, len(rest2))
		}
		if !bytes.Equal(g2.AppendBinary(nil), enc) {
			t.Fatal("encoding is not stable across a decode round trip")
		}
	})
}
