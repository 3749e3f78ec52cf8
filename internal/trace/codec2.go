package trace

import (
	"bufio"
	"encoding/binary"
	"io"
)

// Compressed binary trace format ("MTR2"): the shared header (see
// codec.go), then each access encoded as
//
//	uvarint  dsID
//	svarint  address delta vs. the previous access of the same DS
//	byte     kind<<4 | log2(size)
//
// Memory traces are dominated by small per-structure strides (streams,
// probe walks), so per-DS deltas compress 3-6x against MTR1's fixed
// 8-byte records.

var magic2 = [4]byte{'M', 'T', 'R', '2'}

// Write encodes t to w in the MTR2 format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw, magic2, t); err != nil {
		return err
	}
	last := make([]uint32, len(t.DS))
	for i := range last {
		last[i] = t.DS[i].Base
	}
	var buf [2 * binary.MaxVarintLen64]byte
	for _, a := range t.Accesses {
		n := binary.PutUvarint(buf[:], uint64(a.DS))
		var delta int64
		if int(a.DS) < len(last) {
			delta = int64(a.Addr) - int64(last[a.DS])
			last[a.DS] = a.Addr
		} else {
			delta = int64(a.Addr)
		}
		n += binary.PutVarint(buf[n:], delta)
		buf[n] = uint8(a.Kind)<<4 | sizeLog2(a.Size)
		n++
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func sizeLog2(size uint8) uint8 {
	switch size {
	case 1:
		return 0
	case 2:
		return 1
	case 4:
		return 2
	default:
		return 3
	}
}

// readCompressedBody decodes the MTR2 stream after the magic bytes.
func readCompressedBody(br *bufio.Reader) (*Trace, error) {
	t, nAcc, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	last := make([]uint32, len(t.DS))
	for i := range last {
		last[i] = t.DS[i].Base
	}
	for range nAcc {
		ds, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		meta, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		var addr uint32
		if int(ds) < len(last) {
			addr = uint32(int64(last[ds]) + delta)
			last[ds] = addr
		} else {
			addr = uint32(delta)
		}
		t.Accesses = append(t.Accesses, Access{
			Addr: addr,
			DS:   DSID(ds),
			Kind: Kind(meta >> 4),
			Size: 1 << (meta & 0x0F),
		})
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
