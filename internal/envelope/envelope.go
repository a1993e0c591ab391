// Package envelope is the one binary envelope shared by every on-disk
// format in the repository: fpcache entries (SFPC), shard artifacts
// (SSHD), session state (SINC) and the flow-constraint cache (SFLC), plus
// the propagation-graph codec they embed.
//
// A sealed file is
//
//	magic (4 bytes) | payload | sha256 over everything before it (32 bytes)
//
// Seal appends the trailer, Open checks length, trailer and magic and
// hands back a Reader over the payload, and WriteFile puts the sealed
// bytes in place atomically. Each format owns its payload layout; this
// package only supplies the primitives they are written in:
// fixed-width little-endian u64/f64, uvarint/varint, and strings with
// either a uvarint or a fixed-width u64 length prefix.
package envelope

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// TrailerSize is the length of the sha256 trailer Seal appends.
const TrailerSize = sha256.Size

// Errors Open reports for a file that is not a sealed envelope.
var (
	ErrShort    = errors.New("envelope: too short")
	ErrChecksum = errors.New("envelope: checksum mismatch")
	ErrMagic    = errors.New("envelope: bad magic")
)

// AppendU64 appends v as 8 little-endian bytes.
func AppendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

// AppendF64 appends v's IEEE-754 bits as 8 little-endian bytes.
func AppendF64(dst []byte, v float64) []byte {
	return AppendU64(dst, math.Float64bits(v))
}

// AppendString appends s with a uvarint length prefix (Reader.String).
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendString64 appends s with a fixed-width u64 length prefix
// (Reader.Bytes64), the string form of the SINC and SFLC payloads.
func AppendString64[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = AppendU64(dst, uint64(len(s)))
	return append(dst, s...)
}

// Seal appends the sha256 of b to b.
func Seal(b []byte) []byte {
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

// Open checks that data is a sealed envelope starting with magic and
// returns a Reader over the payload between the magic and the trailer.
func Open(data []byte, magic string) (*Reader, error) {
	if len(data) < len(magic)+TrailerSize {
		return nil, fmt.Errorf("%w (%d bytes)", ErrShort, len(data))
	}
	body, trailer := data[:len(data)-TrailerSize], data[len(data)-TrailerSize:]
	if sum := sha256.Sum256(body); string(sum[:]) != string(trailer) {
		return nil, ErrChecksum
	}
	if string(body[:len(magic)]) != magic {
		return nil, ErrMagic
	}
	return NewReader(body[len(magic):]), nil
}

// WriteFile writes data to path atomically: a temp file in path's
// directory, then a rename over path. Readers of path (and a writer
// that crashes) never see a partial file; at worst a crash leaves a temp
// file that IsTemp recognises.
func WriteFile(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, "."+base+tempInfix+"*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Chmod(0o644)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

const tempInfix = ".tmp-"

// IsTemp reports whether a directory entry name is a WriteFile temp file.
func IsTemp(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, tempInfix)
}

// Reader is a cursor over an in-memory payload. The first failed read
// latches an error and turns every later read into a no-op returning
// zero values, so a decoder reads a whole record and checks Err once.
type Reader struct {
	data []byte
	err  error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf latches a decoder-detected corruption as the Reader's error
// unless one is already latched.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Rest returns the bytes not yet consumed (nil after a failure).
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.data
}

// Fixed consumes the next n bytes and returns them without copying.
func (r *Reader) Fixed(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data) {
		r.Failf("truncated input (%d bytes wanted, %d left)", n, len(r.data))
		return nil
	}
	p := r.data[:n:n]
	r.data = r.data[n:]
	return p
}

// Byte consumes one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.data) == 0 {
		r.Failf("truncated input")
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// U64 consumes 8 little-endian bytes.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.Failf("truncated input")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

// F64 consumes 8 little-endian bytes as IEEE-754 bits.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Uvarint consumes one uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.Failf("bad uvarint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// Varint consumes one zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data)
	if n <= 0 {
		r.Failf("bad varint")
		return 0
	}
	r.data = r.data[n:]
	return v
}

// String consumes a uvarint-length-prefixed string (AppendString).
func (r *Reader) String() string {
	return string(r.Fixed(r.bound("string byte", r.Uvarint(), 1)))
}

// Bytes64 consumes a u64-length-prefixed byte string (AppendString64)
// and returns it without copying.
func (r *Reader) Bytes64() []byte {
	return r.Fixed(r.bound("string byte", r.U64(), 1))
}

// String64 is Bytes64 as a string.
func (r *Reader) String64() string { return string(r.Bytes64()) }

// Count consumes a uvarint element count and bounds it by the bytes
// that remain: every element occupies at least minBytesPerItem bytes of
// input, so a corrupt count cannot drive an allocation larger than the
// input can fill.
func (r *Reader) Count(what string, minBytesPerItem int) int {
	return r.bound(what, r.Uvarint(), minBytesPerItem)
}

// Count64 is Count for a fixed-width u64 count.
func (r *Reader) Count64(what string, minBytesPerItem int) int {
	return r.bound(what, r.U64(), minBytesPerItem)
}

func (r *Reader) bound(what string, n uint64, minBytesPerItem int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.data)/minBytesPerItem) {
		r.Failf("%s count %d exceeds remaining %d bytes", what, n, len(r.data))
		return 0
	}
	return int(n)
}
