package propgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// goldenUnionInputs and goldenUnionSHA256 pin the union's bytes
// (AppendBinary) over fixed inputs: goldenUnionSHA256[i] is the sha256 of
// the union of goldenUnionInputs()[:i+1]. Global event IDs and symbol
// IDs flow into every constraint system, store and shard merge, so a
// changed hash is a format change, not a test to re-record.
func goldenUnionInputs() []*Graph {
	return []*Graph{
		pseudoGraph(1, 12),
		New(), // empty input mid-sequence
		pseudoGraph(2, 25),
		pseudoGraph(3, 1),
		pseudoGraph(1, 7), // repeated symbols translate to existing IDs
	}
}

var goldenUnionSHA256 = []string{
	"16565fbbc79c70e462d4c9c53f732d1dc4b15a2bdf9dd5e51012895c862a3319",
	"16565fbbc79c70e462d4c9c53f732d1dc4b15a2bdf9dd5e51012895c862a3319",
	"5f32d23a741d428c3cc2ea83575f1d0061e2f1b4d284ce7598c9f30aa84531a5",
	"fc92ce8e240299b3fc06fe574abe810372a7e172e55a03a1152b28daa564607e",
	"d22b1240e0c5ddc7ae500a43092b0f61c1cc28e77cb4ddda5eedba55265cecff",
}

// goldenEmptyUnionSHA256 is the sha256 of the union of no graphs.
const goldenEmptyUnionSHA256 = "0cf810d270dd66100b1ad1ad6dee4c919c0f06d12c84421c4d770bde8227b2cd"

func unionSHA(g *Graph) string {
	sum := sha256.Sum256(g.AppendBinary(nil))
	return hex.EncodeToString(sum[:])
}

// TestUnionBuilderMatchesUnion checks both entry points against the
// golden hashes at every prefix: Union over the first i+1 inputs, and a
// builder after its (i+1)-th Add.
func TestUnionBuilderMatchesUnion(t *testing.T) {
	inputs := goldenUnionInputs()
	b := NewUnionBuilder()
	for i, in := range inputs {
		want := goldenUnionSHA256[i]
		if got := unionSHA(Union(inputs[:i+1]...)); got != want {
			t.Errorf("Union of %d inputs: sha256 %s, want %s", i+1, got, want)
		}
		b.Add(in)
		if got := unionSHA(b.Graph()); got != want {
			t.Errorf("builder after %d adds: sha256 %s, want %s", i+1, got, want)
		}
	}
}

// TestUnionBuilderEmpty: a builder with no adds, and Union of nothing,
// are the golden empty union.
func TestUnionBuilderEmpty(t *testing.T) {
	got := NewUnionBuilder().Graph()
	if len(got.Events) != 0 {
		t.Fatalf("empty builder has %d events", len(got.Events))
	}
	if sha := unionSHA(got); sha != goldenEmptyUnionSHA256 {
		t.Errorf("empty builder: sha256 %s, want %s", sha, goldenEmptyUnionSHA256)
	}
	if sha := unionSHA(Union()); sha != goldenEmptyUnionSHA256 {
		t.Errorf("Union(): sha256 %s, want %s", sha, goldenEmptyUnionSHA256)
	}
}
