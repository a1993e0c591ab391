package specio

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleSpec builds a specification exercising every store feature:
// multiple entries per role, an argument-restricted sink, and glob
// blacklist patterns.
func sampleSpec() *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.args.get()")
	s.Add(propgraph.Source, "flask.request.files['f'].filename")
	s.Add(propgraph.Sanitizer, "werkzeug.secure_filename()")
	s.Add(propgraph.Sink, "os.system()")
	s.Add(propgraph.Sink, "webdb.runquery()")
	s.RestrictSinkArgs("webdb.runquery()", 0, 2)
	s.AddBlacklist("*.append()")
	s.AddBlacklist("builtins.len()")
	return s
}

func sampleMeta() Meta {
	return Meta{
		CorpusFingerprint: "sha256:deadbeef",
		CorpusFiles:       240,
		Events:            1234,
		SeedEntries:       5,
		LearnedEntries:    17,
		Generator:         "seldon",
	}
}

func TestRoundTrip(t *testing.T) {
	s := sampleSpec()
	var buf bytes.Buffer
	if err := Encode(&buf, s, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	got, meta, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, got) {
		t.Errorf("round trip changed the spec:\nin:  %s\nout: %s", s.Format(), got.Format())
	}
	if meta != sampleMeta() {
		t.Errorf("meta round trip: got %+v", meta)
	}
	if args := got.SinkArgsOf("webdb.runquery()"); len(args) != 2 || args[0] != 0 || args[1] != 2 {
		t.Errorf("sink args lost: %v", args)
	}
	if !got.Blacklisted("items.append()") {
		t.Error("blacklist glob lost")
	}
}

func TestByteStableAcrossSaves(t *testing.T) {
	s := sampleSpec()
	var a, b bytes.Buffer
	if err := Encode(&a, s, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, s, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two consecutive encodes differ")
	}
	// And across a reload: save(load(save(s))) == save(s).
	reloaded, meta, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := Encode(&c, reloaded, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Errorf("encode after reload differs:\n%s\nvs\n%s", a.String(), c.String())
	}
}

func TestGolden(t *testing.T) {
	path := filepath.Join("testdata", "store_v1.json")
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSpec(), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/specio -update` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	// The golden file must itself load: format changes that break old
	// stores fail here, not in production.
	s, meta, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, sampleSpec()) || meta != sampleMeta() {
		t.Error("golden file decodes to a different spec")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	if err := Save(path, sampleSpec(), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	s, meta, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, sampleSpec()) {
		t.Error("file round trip changed the spec")
	}
	if meta.CorpusFiles != 240 {
		t.Errorf("meta lost: %+v", meta)
	}
}

// badStores are inputs Decode must reject; they also seed
// FuzzDecodeStore.
func badStores() map[string]string {
	valid := validStore()
	return map[string]string{
		"not json":          "o: flask.request.args.get()\n",
		"missing schema":    `{"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"future schema":     `{"schema":999,"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"unknown field":     `{"schema":1,"bogus":true,"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"negative schema":   `{"schema":-3,"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"trailing garbage":  valid + "trailing garbage {",
		"second object":     valid + valid,
		"trailing brace":    valid + "}",
		"truncated":         valid[:len(valid)/2],
		"empty":             "",
		"schema not number": `{"schema":"1","meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
	}
}

// validStore is sampleSpec's encoding.
func validStore() string {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSpec(), sampleMeta()); err != nil {
		panic(err)
	}
	return buf.String()
}

func TestDecodeRejectsBadInput(t *testing.T) {
	for name, in := range badStores() {
		if _, _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Decode accepted bad input", name)
		}
	}
}

// TestDecodeAcceptsWhitespaceAndNegativeArgs: whitespace after the store
// is not trailing data, and negative sink-argument positions are valid
// (propgraph.ArgReceiver is -1, propgraph.ArgKeyword -2).
func TestDecodeAcceptsWhitespaceAndNegativeArgs(t *testing.T) {
	s := sampleSpec()
	s.RestrictSinkArgs("os.system()", propgraph.ArgReceiver, propgraph.ArgKeyword)
	var buf bytes.Buffer
	if err := Encode(&buf, s, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	got, _, err := Decode(strings.NewReader(buf.String() + " \n\t\r\n"))
	if err != nil {
		t.Fatalf("Decode rejected a valid store followed by whitespace: %v", err)
	}
	if !Equal(got, s) {
		t.Errorf("negative sink args lost: %v", got.SinkArgsOf("os.system()"))
	}
}

// FuzzDecodeStore drives Decode with arbitrary bytes. The invariant:
// Decode returns an error, or a spec whose Encode→Decode round trip is
// Equal to it. The corpus is seeded with the golden store and the
// rejection cases.
func FuzzDecodeStore(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "store_v1.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, in := range badStores() {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s, meta, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, s, meta); err != nil {
			t.Fatalf("Encode of a decoded store: %v", err)
		}
		again, _, err := Decode(&buf)
		if err != nil {
			t.Fatalf("re-decode of an encoded store: %v", err)
		}
		if !Equal(s, again) {
			t.Fatalf("round trip changed the spec:\nin:  %s\nout: %s", s.Format(), again.Format())
		}
	})
}

func TestFingerprint(t *testing.T) {
	a := map[string]string{"a.py": "x = 1\n", "b.py": "y = 2\n"}
	b := map[string]string{"b.py": "y = 2\n", "a.py": "x = 1\n"}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint depends on map order")
	}
	c := map[string]string{"a.py": "x = 1\n", "b.py": "y = 3\n"}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint ignores content")
	}
	// Length prefixing: moving a boundary must change the hash.
	d := map[string]string{"a.pyx": " = 1\n", "b.py": "y = 2\n"}
	if Fingerprint(a) == Fingerprint(d) {
		t.Error("fingerprint is boundary-ambiguous")
	}
	if !strings.HasPrefix(Fingerprint(a), "sha256:") {
		t.Error("fingerprint missing algorithm prefix")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base := sampleSpec()
	if !Equal(base, sampleSpec()) {
		t.Fatal("Equal(s, s) = false")
	}
	mutations := []func(*spec.Spec){
		func(s *spec.Spec) { s.Add(propgraph.Source, "extra.source()") },
		func(s *spec.Spec) { s.Add(propgraph.Sink, "extra.sink()") },
		func(s *spec.Spec) { s.RestrictSinkArgs("os.system()", 1) },
		func(s *spec.Spec) { s.AddBlacklist("*.extra()") },
	}
	for i, mutate := range mutations {
		m := sampleSpec()
		mutate(m)
		if Equal(base, m) {
			t.Errorf("mutation %d not detected", i)
		}
	}
}

func TestFingerprintStore(t *testing.T) {
	s := sampleSpec()
	meta := Meta{Generator: "seldon", SeedEntries: 2}
	fp, err := FingerprintStore(s, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fp, "sha256:") {
		t.Errorf("fingerprint = %q, want sha256: prefix", fp)
	}
	again, err := FingerprintStore(sampleSpec(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if again != fp {
		t.Error("fingerprint is not stable across identical stores")
	}
	changed := sampleSpec()
	changed.Add(propgraph.Source, "extra.source()")
	if cfp, _ := FingerprintStore(changed, meta); cfp == fp {
		t.Error("fingerprint ignores spec entries")
	}
	if mfp, _ := FingerprintStore(s, Meta{Generator: "other"}); mfp == fp {
		t.Error("fingerprint ignores metadata")
	}
}

// TestSaveReplacesAtomically: Save must put a new file in place rather
// than rewrite the old one, so a reader that opened the old store
// (seldond's /v1/reload loads this same path) keeps reading the
// complete old bytes instead of a truncated mix of old and new.
func TestSaveReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	if err := Save(path, sampleSpec(), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	next := sampleSpec()
	next.Add(propgraph.Sink, "subprocess.call()")
	if err := Save(path, next, Meta{Generator: "next"}); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(f); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), old) {
		t.Fatalf("old descriptor read %d bytes that are not the old %d-byte store", got.Len(), len(old))
	}
	if s, _, err := Load(path); err != nil || !Equal(s, next) {
		t.Fatalf("path does not hold the new store: %v", err)
	}
}
