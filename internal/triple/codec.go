package triple

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
)

// WriteJSONL writes entities as newline-delimited JSON, the interchange
// format of ingestion exports (the paper's analogue of JSON-LD dumps).
func WriteJSONL(w io.Writer, entities []*Entity) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range entities {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("triple: encode entity %s: %w", e.ID, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL reads newline-delimited JSON entities until EOF.
func ReadJSONL(r io.Reader) ([]*Entity, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var out []*Entity
	for {
		var e Entity
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("triple: decode entity %d: %w", len(out), err)
		}
		out = append(out, &e)
	}
}

// Binary encoding. Records are length-prefixed and CRC-protected so the
// operation log can detect torn writes. Layout:
//
//	uint32 payloadLen | uint32 crc32(payload) | payload
//
// The payload encodes one entity with varint-prefixed strings. Encoders
// append in place (AppendBinary, BeginRecord/EndRecord) after an exact size
// pre-pass (EncodedLen, RecordLen), so each hop of the publish path writes an
// entity's bytes once; decoders of in-memory payloads iterate the frames in
// place (NextRecord).

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// Reader reads the codec's fields — canonical uvarints, bounded counts,
// length-prefixed strings — from a buffer's front; the first error sticks.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Rest returns the bytes not read yet.
func (r *Reader) Rest() []byte { return r.buf[r.off:] }

// Err returns the first error met.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("triple: truncated binary record reading %s at offset %d", what, r.off)
	}
}

// Uvarint reads a canonical uvarint. An overlong encoding (trailing zero
// group) is rejected: every accepted record is then exactly what
// AppendBinary produces for the decoded entity, which is what lets replay
// hand a store the frame's bytes instead of re-encoding.
func (r *Reader) Uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 || (n > 1 && r.buf[r.off+n-1] == 0) {
		r.fail(what)
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) i64(what string) int64 {
	u := r.Uvarint(what)
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// Count reads an element count and bounds it by the bytes left, each element
// taking at least size bytes: a corrupt count can never size an allocation
// past the input.
func (r *Reader) Count(what string, size int) int {
	n := r.Uvarint(what)
	if r.err == nil && n > uint64((len(r.buf)-r.off)/size) {
		r.fail(what)
		return 0
	}
	return int(n)
}

// Bytes returns the next length-prefixed field as a sub-slice of the input.
func (r *Reader) Bytes(what string) []byte {
	n := r.Count(what, 1)
	if r.err != nil {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) str(what string) string { return string(r.Bytes(what)) }

func (r *Reader) f64(what string) float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.buf) {
		r.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *Reader) byteVal(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail(what)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func appendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindString, KindRef:
		dst = appendStr(dst, v.str)
	case KindInt, KindBool, KindTime:
		dst = binary.AppendVarint(dst, v.num)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.flt))
	}
	return dst
}

func valueLen(v Value) int {
	switch v.kind {
	case KindString, KindRef:
		return 1 + strLen(v.str)
	case KindInt, KindBool, KindTime:
		return 1 + varintLen(v.num)
	case KindFloat:
		return 1 + 8
	}
	return 1
}

func readValue(r *Reader) Value {
	kind := Kind(r.byteVal("value kind"))
	v := Value{kind: kind}
	switch kind {
	case KindString, KindRef:
		v.str = r.str("value string")
	case KindInt, KindBool, KindTime:
		v.num = r.i64("value int")
	case KindFloat:
		v.flt = r.f64("value float")
	case KindNull:
	default:
		r.fail(fmt.Sprintf("value kind %d", kind))
	}
	return v
}

// EncodedLen returns the exact length of the entity's binary encoding.
func (e *Entity) EncodedLen() int {
	n := strLen(string(e.ID)) + uvarintLen(uint64(len(e.Triples)))
	for i := range e.Triples {
		t := &e.Triples[i]
		n += strLen(string(t.Subject)) + strLen(t.Predicate) + strLen(t.RelID) + strLen(t.RelPred) +
			valueLen(t.Object) + strLen(t.Locale) +
			uvarintLen(uint64(len(t.Sources))) + uvarintLen(uint64(len(t.Trust))) + 8*len(t.Trust)
		for _, s := range t.Sources {
			n += strLen(s)
		}
	}
	return n
}

// AppendBinary appends the entity's compact binary record encoding to dst
// (encoding.BinaryAppender). With EncodedLen bytes of spare capacity it
// allocates nothing.
func (e *Entity) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendStr(dst, string(e.ID))
	dst = binary.AppendUvarint(dst, uint64(len(e.Triples)))
	for i := range e.Triples {
		t := &e.Triples[i]
		dst = appendStr(dst, string(t.Subject))
		dst = appendStr(dst, t.Predicate)
		dst = appendStr(dst, t.RelID)
		dst = appendStr(dst, t.RelPred)
		dst = appendValue(dst, t.Object)
		dst = appendStr(dst, t.Locale)
		dst = binary.AppendUvarint(dst, uint64(len(t.Sources)))
		for _, s := range t.Sources {
			dst = appendStr(dst, s)
		}
		dst = binary.AppendUvarint(dst, uint64(len(t.Trust)))
		for _, f := range t.Trust {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst, nil
}

// MarshalBinary encodes the entity into the compact binary record format:
// one allocation of exactly the output size.
func (e *Entity) MarshalBinary() ([]byte, error) {
	return e.AppendBinary(make([]byte, 0, e.EncodedLen()))
}

// UnmarshalBinary decodes an entity encoded by MarshalBinary. Only canonical
// encodings are accepted, so an accepted record re-encodes to the same
// bytes. The entity does not retain data.
func (e *Entity) UnmarshalBinary(data []byte) error {
	r := NewReader(data)
	e.ID = EntityID(r.str("entity id"))
	// A triple takes at least 8 bytes: six empty strings, a null value and
	// two zero counts.
	n := r.Count("triple count", 8)
	if r.err != nil {
		return r.err
	}
	e.Triples = make([]Triple, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		var t Triple
		// Validate requires every subject to equal the entity ID: share the
		// one string instead of allocating it again per triple.
		if subj := r.Bytes("subject"); string(subj) == string(e.ID) {
			t.Subject = e.ID
		} else {
			t.Subject = EntityID(subj)
		}
		t.Predicate = r.str("predicate")
		t.RelID = r.str("rel id")
		t.RelPred = r.str("rel pred")
		t.Object = readValue(r)
		t.Locale = r.str("locale")
		if ns := r.Count("source count", 1); ns > 0 {
			t.Sources = make([]string, 0, ns)
			for j := 0; j < ns; j++ {
				t.Sources = append(t.Sources, r.str("source"))
			}
		}
		if nt := r.Count("trust count", 8); nt > 0 {
			t.Trust = make([]float64, 0, nt)
			for j := 0; j < nt; j++ {
				t.Trust = append(t.Trust, r.f64("trust"))
			}
		}
		e.Triples = append(e.Triples, t)
	}
	if r.err == nil && r.off != len(data) {
		return fmt.Errorf("triple: %d trailing bytes after entity record", len(data)-r.off)
	}
	return r.err
}

// recordHeaderLen is the size of a frame's length|crc header.
const recordHeaderLen = 8

// RecordLen returns the framed size of a payload of n bytes.
func RecordLen(n int) int { return recordHeaderLen + n }

// BeginRecord reserves a frame header at the end of dst and returns the
// extended slice with the header's offset. The caller appends the payload in
// place and passes both to EndRecord.
func BeginRecord(dst []byte) ([]byte, int) {
	return append(dst, make([]byte, recordHeaderLen)...), len(dst)
}

// EndRecord back-fills the header BeginRecord reserved at mark with the
// length and CRC of everything appended since.
func EndRecord(dst []byte, mark int) []byte {
	payload := dst[mark+recordHeaderLen:]
	hdr := FrameHeader(uint32(len(payload)), crc32.Checksum(payload, castagnoli))
	copy(dst[mark:], hdr[:])
	return dst
}

// FrameHeader returns the header of a frame whose n payload bytes have the
// CRC crc, for writers that stream a payload past a running UpdateCRC and
// patch its header in afterwards.
func FrameHeader(n, crc uint32) (hdr [recordHeaderLen]byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], n)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	return hdr
}

// UpdateCRC returns a frame CRC extended by p; a payload's CRC is the
// UpdateCRC of its pieces in order, starting from 0.
func UpdateCRC(crc uint32, p []byte) uint32 { return crc32.Update(crc, castagnoli, p) }

// AppendRecord appends one framed payload to dst.
func AppendRecord(dst, payload []byte) []byte {
	dst, mark := BeginRecord(dst)
	return EndRecord(append(dst, payload...), mark)
}

// ErrCorruptRecord is returned when a framed record fails its CRC check.
var ErrCorruptRecord = fmt.Errorf("triple: record checksum mismatch")

// frameEnd returns where the first frame of buf ends, or false when the
// header, or the length it claims, runs past the end of buf.
func frameEnd(buf []byte) (int, bool) {
	if len(buf) < recordHeaderLen {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if uint64(n) > uint64(len(buf)-recordHeaderLen) {
		return 0, false
	}
	return recordHeaderLen + int(n), true
}

// NextRecord returns the payload of the first frame of buf and the bytes
// after it, both as sub-slices of buf (nothing is copied), verifying the
// frame's CRC. io.EOF is returned when buf is empty, io.ErrUnexpectedEOF when
// the header or the length it claims runs past the end of buf.
func NextRecord(buf []byte) (rec, rest []byte, err error) {
	if len(buf) == 0 {
		return nil, nil, io.EOF
	}
	end, ok := frameEnd(buf)
	if !ok {
		return nil, nil, io.ErrUnexpectedEOF
	}
	rec = buf[recordHeaderLen:end:end]
	if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, nil, ErrCorruptRecord
	}
	return rec, buf[end:], nil
}

// CountRecords returns the number of whole frames at the head of buf, hopping
// from header to header without verifying payloads: a cheap pre-pass for
// decoders to size their result before NextRecord does the checking.
func CountRecords(buf []byte) int {
	n := 0
	for end, ok := frameEnd(buf); ok; end, ok = frameEnd(buf) {
		buf = buf[end:]
		n++
	}
	return n
}

// ReadRecord reads one framed binary payload from a stream, verifying its
// CRC. limit is the number of bytes the input can still hold, this frame's
// header included: a length prefix claiming more is a torn or corrupt header
// and is refused before anything is allocated for it. The payload is read
// into buf's storage when it fits (a scanner passes its last payload back).
// io.EOF is returned at a clean end of stream; io.ErrUnexpectedEOF on a torn
// record.
func ReadRecord(r io.Reader, limit int64, buf []byte) ([]byte, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if int64(n) > limit-recordHeaderLen {
		return nil, io.ErrUnexpectedEOF
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, ErrCorruptRecord
	}
	return payload, nil
}
