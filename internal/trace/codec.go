package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace formats. Every file starts with the same header:
//
//	magic   [4]byte  "MTR2" (or "MTR1")
//	nameLen uint16, name bytes
//	nDS     uint16
//	  per DS: nameLen uint16, name bytes, base uint32, size uint32, elem uint32
//	nAcc    uint64
//
// followed by nAcc access records. Write emits MTR2, whose compact
// delta records are described in codec2.go. Read also accepts the
// original MTR1 format, whose records are fixed 8 bytes:
//
//	per access: addr uint32, ds uint16, kind uint8, size uint8
//
// so existing MTR1 files still load. All integers little-endian. The
// formats exist so that long traces can be generated once
// (cmd/tracegen) and replayed by many exploration runs.

var magic = [4]byte{'M', 'T', 'R', '1'}

// ErrBadMagic is returned by Read when the stream is not a trace file.
var ErrBadMagic = errors.New("trace: bad magic (not an MTR1 or MTR2 stream)")

const maxSaneAccesses = 1 << 32 // decoder sanity bound

// maxPrealloc bounds the accesses a decoder allocates room for before
// reading them: the count in a header is only a claim, and room for 2^32
// accesses is 32 GiB. Longer traces grow as their records arrive.
const maxPrealloc = 1 << 16

// writeHeader encodes the format-independent header of t, magic first.
func writeHeader(w io.Writer, m [4]byte, t *Trace) error {
	if _, err := w.Write(m[:]); err != nil {
		return err
	}
	if err := writeString(w, t.Name); err != nil {
		return err
	}
	if len(t.DS) > 0xFFFF {
		return fmt.Errorf("trace: too many data structures (%d)", len(t.DS))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(t.DS))); err != nil {
		return err
	}
	for _, d := range t.DS {
		if err := writeString(w, d.Name); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, [3]uint32{d.Base, d.Size, d.Elem}); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, uint64(len(t.Accesses)))
}

// readHeader decodes the header after the magic bytes: the trace with
// its data structures and no accesses yet, and the claimed access count.
func readHeader(br *bufio.Reader) (*Trace, uint64, error) {
	name, err := readString(br)
	if err != nil {
		return nil, 0, err
	}
	var nDS uint16
	if err := binary.Read(br, binary.LittleEndian, &nDS); err != nil {
		return nil, 0, err
	}
	t := &Trace{Name: name, DS: make([]DSInfo, nDS)}
	for i := range t.DS {
		dsName, err := readString(br)
		if err != nil {
			return nil, 0, err
		}
		var f [3]uint32
		if err := binary.Read(br, binary.LittleEndian, &f); err != nil {
			return nil, 0, err
		}
		t.DS[i] = DSInfo{Name: dsName, Base: f[0], Size: f[1], Elem: f[2]}
	}
	var nAcc uint64
	if err := binary.Read(br, binary.LittleEndian, &nAcc); err != nil {
		return nil, 0, err
	}
	if nAcc > maxSaneAccesses {
		return nil, 0, fmt.Errorf("trace: implausible access count %d", nAcc)
	}
	t.Accesses = make([]Access, 0, min(nAcc, maxPrealloc))
	return t, nAcc, nil
}

// Read decodes an MTR1 or MTR2 stream into a Trace and validates it,
// auto-detecting the format from the magic bytes.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	switch m {
	case magic:
		return readBody(br)
	case magic2:
		return readCompressedBody(br)
	default:
		return nil, ErrBadMagic
	}
}

// readBody decodes the MTR1 stream after the magic bytes.
func readBody(br *bufio.Reader) (*Trace, error) {
	t, nAcc, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	var rec [8]byte
	for range nAcc {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, err
		}
		t.Accesses = append(t.Accesses, Access{
			Addr: binary.LittleEndian.Uint32(rec[0:]),
			DS:   DSID(binary.LittleEndian.Uint16(rec[4:])),
			Kind: Kind(rec[6]),
			Size: rec[7],
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("trace: string too long (%d bytes)", len(s))
	}
	if err := binary.Write(w, binary.LittleEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
