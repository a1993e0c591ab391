package envelope

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	b := []byte("TEST")
	b = AppendU64(b, math.MaxUint64)
	b = AppendF64(b, -0.75)
	b = AppendString(b, "uvarint-prefixed")
	b = AppendString64(b, []byte("u64-prefixed"))
	b = append(b, 7)
	sealed := Seal(b)
	if len(sealed) != len(b)+TrailerSize {
		t.Fatalf("Seal appended %d bytes, want %d", len(sealed)-len(b), TrailerSize)
	}

	r, err := Open(sealed, "TEST")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.U64(); v != math.MaxUint64 {
		t.Errorf("U64 = %d", v)
	}
	if v := r.F64(); v != -0.75 {
		t.Errorf("F64 = %v", v)
	}
	if s := r.String(); s != "uvarint-prefixed" {
		t.Errorf("String = %q", s)
	}
	if s := r.String64(); s != "u64-prefixed" {
		t.Errorf("String64 = %q", s)
	}
	if v := r.Byte(); v != 7 {
		t.Errorf("Byte = %d", v)
	}
	if r.Err() != nil || len(r.Rest()) != 0 {
		t.Errorf("err %v, %d bytes left", r.Err(), len(r.Rest()))
	}
}

func TestOpenRejects(t *testing.T) {
	sealed := Seal(append([]byte("TEST"), "payload"...))
	flipped := bytes.Clone(sealed)
	flipped[5] ^= 1
	for name, tc := range map[string]struct {
		data []byte
		want error
	}{
		"short":     {sealed[:TrailerSize], ErrShort},
		"truncated": {sealed[:len(sealed)-1], ErrChecksum},
		"flipped":   {flipped, ErrChecksum},
		"magic":     {Seal([]byte("XEST")), ErrMagic},
	} {
		if _, err := Open(tc.data, "TEST"); !errors.Is(err, tc.want) {
			t.Errorf("%s: Open = %v, want %v", name, err, tc.want)
		}
	}
}

// A failed read latches: later reads return zero values and the first
// error sticks.
func TestReaderLatches(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if v := r.U64(); v != 0 || r.Err() == nil {
		t.Fatalf("U64 on 3 bytes = %d, %v", v, r.Err())
	}
	first := r.Err()
	if b := r.Byte(); b != 0 || r.Err() != first {
		t.Errorf("Byte after failure = %d, err %v", b, r.Err())
	}
	if r.Fixed(1) != nil || r.Rest() != nil {
		t.Error("reads after failure returned data")
	}
	r = NewReader([]byte{0x80})
	if r.Uvarint(); r.Err() == nil {
		t.Error("unterminated uvarint accepted")
	}
}

// Count bounds a declared count by the bytes that remain, at the
// caller's minimum size per element.
func TestCountBoundsByRemainingBytes(t *testing.T) {
	b := AppendU64(nil, 4)
	b = append(b, make([]byte, 32)...)
	if n := NewReader(b).Count64("item", 8); n != 4 {
		t.Errorf("4 items of 8 bytes in 32: Count64 = %d", n)
	}
	r := NewReader(b)
	if n := r.Count64("item", 9); n != 0 || r.Err() == nil {
		t.Errorf("4 items of 9 bytes in 32: Count64 = %d, %v", n, r.Err())
	}
	r = NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})
	if n := r.Count("item", 1); n != 0 || r.Err() == nil {
		t.Errorf("huge uvarint count = %d, %v", n, r.Err())
	}
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	for _, data := range []string{"old contents", "new"} {
		if err := WriteFile(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("read back %q, %v; want %q", got, err, data)
		}
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != 1 {
		t.Errorf("directory holds %d entries, want only the target", len(des))
	}
	if err := WriteFile(filepath.Join(dir, "missing", "x"), nil); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func TestIsTemp(t *testing.T) {
	for name, want := range map[string]bool{
		".state.bin.tmp-123": true,
		"state.bin":          false,
		"abc.fpc":            false,
		".hidden":            false,
	} {
		if IsTemp(name) != want {
			t.Errorf("IsTemp(%q) = %v, want %v", name, !want, want)
		}
	}
}
