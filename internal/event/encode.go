package event

import (
	"encoding/binary"
	"fmt"
)

// This file implements the two on-wire piggyback encodings for real. The
// simulator itself passes determinants as Go values and only charges the
// byte counts from FactoredSize/FlatSize. The codecs exist so property
// tests can check that accounting against a byte-accurate format, which
// keeps it from drifting; the benchmark also times them.

// EncodeFactored serializes ds in the factored {rid, nb, events...} format.
// Adjacent determinants of the same creator share a group header.
func EncodeFactored(ds []Determinant) []byte {
	return AppendFactored(make([]byte, 0, FactoredSize(ds)), ds)
}

// AppendFactored appends the factored encoding of ds to buf and returns the
// extended buffer. Encoding into a caller-owned scratch buffer keeps the
// codec's timing allocation-free in steady state.
//
//mpichv:noalloc
func AppendFactored(buf []byte, ds []Determinant) []byte {
	i := 0
	for i < len(ds) {
		j := i
		for j < len(ds) && ds[j].ID.Creator == ds[i].ID.Creator {
			j++
		}
		n := j - i
		buf = binary.LittleEndian.AppendUint16(buf, uint16(ds[i].ID.Creator))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(n))
		for ; i < j; i++ {
			buf = appendEventBody(buf, ds[i])
		}
	}
	return buf
}

//mpichv:noalloc
func appendEventBody(buf []byte, d Determinant) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.ID.Clock))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(d.Sender))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.SendSeq))
	parentCreator := uint16(0xffff)
	if !d.Parent.Zero() {
		parentCreator = uint16(d.Parent.Creator)
	}
	buf = binary.LittleEndian.AppendUint16(buf, parentCreator)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Parent.Clock))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Lamport))
	return buf
}

// DecodeFactored parses a buffer produced by EncodeFactored.
func DecodeFactored(buf []byte) ([]Determinant, error) {
	var out []Determinant
	off := 0
	for off < len(buf) {
		if off+FactoredGroupHeader > len(buf) {
			return nil, fmt.Errorf("event: truncated factored group header at offset %d", off)
		}
		creator := Rank(binary.LittleEndian.Uint16(buf[off:]))
		n := int(binary.LittleEndian.Uint16(buf[off+2:]))
		off += FactoredGroupHeader
		if off+n*FactoredEventSize > len(buf) {
			return nil, fmt.Errorf("event: truncated factored group body at offset %d", off)
		}
		for i := 0; i < n; i++ {
			d, adv := decodeEventBody(buf[off:])
			d.ID.Creator = creator
			out = append(out, d)
			off += adv
		}
	}
	return out, nil
}

func decodeEventBody(buf []byte) (Determinant, int) {
	var d Determinant
	d.ID.Clock = uint64(binary.LittleEndian.Uint32(buf))
	d.Sender = Rank(binary.LittleEndian.Uint16(buf[4:]))
	d.SendSeq = uint64(binary.LittleEndian.Uint32(buf[6:]))
	pc := binary.LittleEndian.Uint16(buf[10:])
	clk := uint64(binary.LittleEndian.Uint32(buf[12:]))
	if pc != 0xffff {
		d.Parent = EventID{Creator: Rank(pc), Clock: clk}
	}
	d.Lamport = uint64(binary.LittleEndian.Uint32(buf[16:]))
	return d, FactoredEventSize
}

// EncodeFlat serializes ds in the LogOn flat format, preserving order
// (the partial order of the piggyback is significant to the receiver).
func EncodeFlat(ds []Determinant) []byte {
	return AppendFlat(make([]byte, 0, FlatSize(ds)), ds)
}

// AppendFlat appends the flat (LogOn) encoding of ds to buf and returns the
// extended buffer.
//
//mpichv:noalloc
func AppendFlat(buf []byte, ds []Determinant) []byte {
	for _, d := range ds {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(d.ID.Creator))
		buf = appendEventBody(buf, d)
		buf = append(buf, 0, 0) // framing bytes factoring would amortize
	}
	return buf
}

// DecodeFlat parses a buffer produced by EncodeFlat.
func DecodeFlat(buf []byte) ([]Determinant, error) {
	if len(buf)%FlatEventSize != 0 {
		return nil, fmt.Errorf("event: flat buffer length %d not a multiple of %d", len(buf), FlatEventSize)
	}
	out := make([]Determinant, 0, len(buf)/FlatEventSize)
	for off := 0; off < len(buf); off += FlatEventSize {
		creator := Rank(binary.LittleEndian.Uint16(buf[off:]))
		d, _ := decodeEventBody(buf[off+2:])
		d.ID.Creator = creator
		out = append(out, d)
	}
	return out, nil
}
