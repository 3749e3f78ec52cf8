// Fault injection: the corruption harness the cache's test suite
// drives. It lives in the package proper (not a _test file) so the
// engine- and explorer-level tests can mangle cache entries through
// the same canonical mutation set, and so future storage layers can
// reuse it.
package btcache

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Mutation is one way of damaging an encoded cache entry. Apply never
// modifies its input; it returns the damaged copy.
type Mutation struct {
	Name  string
	Apply func(data []byte) []byte
}

// FlipBit flips one bit of the entry (offsets beyond the end are
// ignored, returning an exact copy — callers bound offsets to len).
func FlipBit(off int, bit uint) Mutation {
	return Mutation{
		Name: fmt.Sprintf("flip-bit@%d.%d", off, bit%8),
		Apply: func(data []byte) []byte {
			out := append([]byte(nil), data...)
			if off >= 0 && off < len(out) {
				out[off] ^= 1 << (bit % 8)
			}
			return out
		},
	}
}

// Truncate cuts the entry to its first n bytes.
func Truncate(n int) Mutation {
	return Mutation{
		Name: fmt.Sprintf("truncate@%d", n),
		Apply: func(data []byte) []byte {
			if n < 0 {
				n = 0
			}
			if n > len(data) {
				n = len(data)
			}
			return append([]byte(nil), data[:n]...)
		},
	}
}

// ZeroChecksum zeroes the header's payload CRC.
func ZeroChecksum() Mutation {
	return Mutation{
		Name: "zero-checksum",
		Apply: func(data []byte) []byte {
			out := append([]byte(nil), data...)
			if len(out) >= headerSize {
				binary.LittleEndian.PutUint32(out[24:], 0)
			}
			return out
		},
	}
}

// BumpVersion rewrites the header's format version to FormatVersion+1,
// simulating an entry written by a future build.
func BumpVersion() Mutation {
	return Mutation{
		Name: "bump-version",
		Apply: func(data []byte) []byte {
			out := append([]byte(nil), data...)
			if len(out) >= headerSize {
				binary.LittleEndian.PutUint16(out[4:], FormatVersion+1)
			}
			return out
		},
	}
}

// AppendGarbage extends the entry with trailing bytes, simulating a
// partially overwritten larger predecessor.
func AppendGarbage(n int) Mutation {
	return Mutation{
		Name: fmt.Sprintf("append-garbage@%d", n),
		Apply: func(data []byte) []byte {
			out := append([]byte(nil), data...)
			for i := 0; i < n; i++ {
				out = append(out, byte(0xA5+i))
			}
			return out
		},
	}
}

// Mutations returns the canonical corruption suite for one encoded
// entry: a version bump, a zeroed checksum, truncation at every
// section boundary (plus one byte into each section and the empty
// file), trailing garbage, and bit flips covering the whole header and
// sampled across the payload. Every mutation must decode to a clean
// miss — the fault-injection tests assert exactly that.
func Mutations(data []byte) ([]Mutation, error) {
	bounds, err := SectionBoundaries(data)
	if err != nil {
		return nil, err
	}
	muts := []Mutation{
		BumpVersion(),
		ZeroChecksum(),
		Truncate(0),
		AppendGarbage(7),
	}
	for _, b := range bounds {
		// The final boundary is the entry length itself — truncating
		// there is the identity, not a fault.
		if b < len(data) {
			muts = append(muts, Truncate(b))
		}
		if b+1 < len(data) {
			muts = append(muts, Truncate(b+1))
		}
	}
	// Every header bit position matters; flip each header byte, then
	// sample the payload with a stride coprime to the record sizes so
	// the flips land in every field of a record over a long entry.
	for off := 0; off < headerSize && off < len(data); off++ {
		muts = append(muts, FlipBit(off, uint(off)%8))
	}
	const stride = 131
	for off := headerSize; off < len(data); off += stride {
		muts = append(muts, FlipBit(off, uint(off)%8))
	}
	muts = append(muts, FlipBit(len(data)-1, 7))
	return muts, nil
}

// CorruptingWriter wraps an io.Writer and flips one bit of the stream
// as it passes through, simulating a torn or bit-rotted write path.
// FlipOffset addresses the byte within the total stream; a negative
// offset disables the fault.
type CorruptingWriter struct {
	W          io.Writer
	FlipOffset int64
	FlipBit    uint

	written int64
}

// Write implements io.Writer, damaging the configured byte in flight.
func (c *CorruptingWriter) Write(p []byte) (int, error) {
	start := c.written
	c.written += int64(len(p))
	if c.FlipOffset >= start && c.FlipOffset < c.written {
		q := append([]byte(nil), p...)
		q[c.FlipOffset-start] ^= 1 << (c.FlipBit % 8)
		p = q
	}
	return c.W.Write(p)
}
