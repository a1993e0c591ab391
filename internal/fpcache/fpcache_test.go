package fpcache

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"seldon/internal/dataflow"
)

const testSrc = `from flask import request
import os

def handler():
    q = request.args.get('q')
    os.system(q)
`

func testEntry(t *testing.T) *Entry {
	t.Helper()
	g, err := dataflow.AnalyzeSource("app.py", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	return &Entry{Graph: g, Cost: 123 * time.Microsecond}
}

func openTemp(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyDerivation(t *testing.T) {
	k := Key("app.py", testSrc)
	if k != Key("app.py", testSrc) {
		t.Error("key is not stable")
	}
	if Key("other.py", testSrc) == k {
		t.Error("key ignores the file name")
	}
	if Key("app.py", testSrc+"\n") == k {
		t.Error("key ignores the content")
	}
	// No length-prefix confusion: moving a byte across the name/content
	// boundary must change the key.
	if Key("app.pyx", testSrc[1:]) == Key("app.py", "x"+testSrc[1:]) {
		t.Error("name/content boundary is ambiguous")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTemp(t)
	want := testEntry(t)
	want.ParseError = "app.py:3:1: unexpected token"

	if _, ok := c.Get("app.py", testSrc); ok {
		t.Fatal("hit on an empty cache")
	}
	n, err := c.Put("app.py", testSrc, want)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("Put wrote %d bytes", n)
	}

	got, ok := c.Get("app.py", testSrc)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.ParseError != want.ParseError || got.Cost != want.Cost || got.Size != n {
		t.Errorf("entry = {err:%q cost:%v size:%d}, want {err:%q cost:%v size:%d}",
			got.ParseError, got.Cost, got.Size, want.ParseError, want.Cost, n)
	}
	if !bytes.Equal(got.Graph.AppendBinary(nil), want.Graph.AppendBinary(nil)) {
		t.Error("graph changed through the cache")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.BytesRead != n || st.BytesWritten != n {
		t.Errorf("stats = %+v", st)
	}
	if entries, err := c.Len(); err != nil || entries != 1 {
		t.Errorf("Len = %d, %v", entries, err)
	}
}

// corrupt applies fn to the single entry file in the cache directory.
func corrupt(t *testing.T, c *Cache, fn func([]byte) []byte) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(c.Dir(), "*"+entrySuffix))
	if err != nil || len(paths) != 1 {
		t.Fatalf("entry files = %v (err %v), want exactly one", paths, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[0], fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionIsAMissNeverAnError(t *testing.T) {
	cases := map[string]func([]byte) []byte{
		"truncated":    func(d []byte) []byte { return d[:len(d)/2] },
		"bit flip":     func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d },
		"empty":        func([]byte) []byte { return nil },
		"garbage":      func([]byte) []byte { return []byte("not a cache entry") },
		"bad checksum": func(d []byte) []byte { d[len(d)-1] ^= 0x01; return d },
		"stale codec version": func(d []byte) []byte {
			d[len(magic)] = codecVersion + 1 // single-byte uvarint
			return d
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			c := openTemp(t)
			if _, err := c.Put("app.py", testSrc, testEntry(t)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, c, fn)
			if _, ok := c.Get("app.py", testSrc); ok {
				t.Fatal("corrupted entry was a hit")
			}
			// The write-back path repairs it.
			if _, err := c.Put("app.py", testSrc, testEntry(t)); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("app.py", testSrc); !ok {
				t.Fatal("repaired entry still misses")
			}
		})
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := testEntry(t)
	first := e.encode()
	for i := 0; i < 8; i++ {
		if !bytes.Equal(e.encode(), first) {
			t.Fatal("entry encoding is not deterministic")
		}
	}
}

func TestClear(t *testing.T) {
	c := openTemp(t)
	for _, name := range []string{"a.py", "b.py"} {
		if _, err := c.Put(name, testSrc, testEntry(t)); err != nil {
			t.Fatal(err)
		}
	}
	// A stray temp file from a crashed writer is cleaned up too.
	if err := os.WriteFile(filepath.Join(c.Dir(), ".put-stray"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Fatalf("Len after Clear = %d, %v", n, err)
	}
	if des, _ := os.ReadDir(c.Dir()); len(des) != 0 {
		t.Errorf("directory not empty after Clear: %v", des)
	}
	if _, ok := c.Get("a.py", testSrc); ok {
		t.Error("hit after Clear")
	}
}

func TestOpenCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("app.py", testSrc, testEntry(t)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("app.py", testSrc); !ok {
		t.Fatal("miss in freshly created nested dir")
	}
}

// TestPutMatchesPutRawKey: Put and the sidecar path (PutRawKey over
// EncodeRawEntry of the graph's encoding) write byte-identical files.
func TestPutMatchesPutRawKey(t *testing.T) {
	e := testEntry(t)
	e.ParseError = "app.py:3:1: unexpected token"
	put, raw := openTemp(t), openTemp(t)
	if _, err := put.Put("app.py", testSrc, e); err != nil {
		t.Fatal(err)
	}
	data := EncodeRawEntry(e.Graph.AppendBinary(nil), e.ParseError, e.Cost)
	if _, err := raw.PutRawKey(KeyBytes("app.py", testSrc), data); err != nil {
		t.Fatal(err)
	}
	name := Key("app.py", testSrc) + entrySuffix
	a, err := os.ReadFile(filepath.Join(put.Dir(), name))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(raw.Dir(), name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Put wrote %d bytes, PutRawKey(EncodeRawEntry) %d; contents differ", len(a), len(b))
	}
}

// TestEntryWireGolden pins the SFPC bytes of a fixed entry. A
// deliberate format change must bump codecVersion and re-pin.
func TestEntryWireGolden(t *testing.T) {
	e := testEntry(t)
	e.ParseError = "app.py:3:1: unexpected token"
	const want = "dbc481259a6e693746b9f02d49b7692d41ec7832de9fb878344e01f606f1b6bc"
	if got := fmt.Sprintf("%x", sha256.Sum256(e.encode())); got != want {
		t.Errorf("entry sha256 = %s, want %s", got, want)
	}
}
