package triple

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomEntity(r *rand.Rand, id EntityID) *Entity {
	e := NewEntity(id)
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		tr := Triple{
			Subject:   id,
			Predicate: "p" + randString(r),
		}
		if tr.Predicate == "p" {
			tr.Predicate = "pred"
		}
		if r.Intn(3) == 0 {
			tr.RelID = "r" + randString(r) + "x"
			tr.RelPred = "a" + randString(r) + "y"
		}
		tr.Object = randomValue(r)
		if r.Intn(2) == 0 {
			tr.Locale = []string{"en", "fr", "ja"}[r.Intn(3)]
		}
		ns := r.Intn(3)
		for j := 0; j < ns; j++ {
			tr.Sources = append(tr.Sources, "src"+randString(r))
			tr.Trust = append(tr.Trust, float64(r.Intn(100))/100)
		}
		e.Triples = append(e.Triples, tr)
	}
	return e
}

func entitiesEqual(a, b *Entity) bool {
	if a.ID != b.ID || len(a.Triples) != len(b.Triples) {
		return false
	}
	for i := range a.Triples {
		x, y := a.Triples[i], b.Triples[i]
		if x.Subject != y.Subject || x.Predicate != y.Predicate ||
			x.RelID != y.RelID || x.RelPred != y.RelPred ||
			x.Locale != y.Locale || !x.Object.Equal(y.Object) {
			return false
		}
		if !reflect.DeepEqual(x.Sources, y.Sources) {
			return false
		}
		if len(x.Trust) != len(y.Trust) {
			return false
		}
		for j := range x.Trust {
			if x.Trust[j] != y.Trust[j] {
				return false
			}
		}
	}
	return true
}

func TestBinaryRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		e := randomEntity(r, EntityID("kg:E"+randString(r)+"z"))
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var got Entity
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal: %v (entity %+v)", err, e)
		}
		if !entitiesEqual(e, &got) {
			t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", e, &got)
		}
	}
}

func TestBinaryRejectsTruncation(t *testing.T) {
	e := paperEntity()
	data, _ := e.MarshalBinary()
	for cut := 1; cut < len(data); cut += 3 {
		var got Entity
		if err := got.UnmarshalBinary(data[:len(data)-cut]); err == nil {
			t.Fatalf("truncation by %d bytes accepted", cut)
		}
	}
	var got Entity
	if err := got.UnmarshalBinary(append(data, 0x00)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var in []*Entity
	for i := 0; i < 20; i++ {
		in = append(in, randomEntity(r, EntityID("kg:J"+randString(r)+"q")))
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d entities, want %d", len(out), len(in))
	}
	for i := range in {
		if !entitiesEqual(in[i], out[i]) {
			t.Fatalf("entity %d mismatch", i)
		}
	}
}

func TestRecordFraming(t *testing.T) {
	payloads := [][]byte{[]byte("hello"), {}, []byte("a longer payload with bytes \x00\x01\x02")}
	var buf []byte
	for _, p := range payloads {
		buf = AppendRecord(buf, p)
	}
	if got := CountRecords(buf); got != len(payloads) {
		t.Fatalf("CountRecords = %d, want %d", got, len(payloads))
	}
	// The streaming reader and the in-place iterator see the same records.
	r := bytes.NewReader(buf)
	rest := buf
	for i, want := range payloads {
		got, err := ReadRecord(r, int64(r.Len()), nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
		var rec []byte
		if rec, rest, err = NextRecord(rest); err != nil {
			t.Fatalf("record %d in place: %v", i, err)
		}
		if !bytes.Equal(rec, want) {
			t.Fatalf("record %d in place = %q, want %q", i, rec, want)
		}
	}
	if _, err := ReadRecord(r, 0, nil); err != io.EOF {
		t.Fatalf("expected io.EOF at end, got %v", err)
	}
	if _, _, err := NextRecord(rest); err != io.EOF {
		t.Fatalf("expected io.EOF at end in place, got %v", err)
	}
}

func TestRecordDetectsCorruption(t *testing.T) {
	data := AppendRecord(nil, []byte("payload"))
	both := func(b []byte) (stream, inPlace error) {
		_, stream = ReadRecord(bytes.NewReader(b), int64(len(b)), nil)
		_, _, inPlace = NextRecord(b)
		return
	}

	// Flip a payload byte: CRC must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xff
	if s, p := both(corrupt); s != ErrCorruptRecord || p != ErrCorruptRecord {
		t.Fatalf("corruption not detected: %v, %v", s, p)
	}
	// Torn write: header promises more bytes than present.
	if s, p := both(data[:len(data)-2]); s != io.ErrUnexpectedEOF || p != io.ErrUnexpectedEOF {
		t.Fatalf("torn record: %v, %v", s, p)
	}
	// Torn header.
	if s, p := both(data[:3]); s != io.ErrUnexpectedEOF || p != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: %v, %v", s, p)
	}
}

// TestReadRecordBoundsLength: a header claiming ~4 GiB at the tail of a short
// input is a torn record, refused before anything is allocated for it.
func TestReadRecordBoundsLength(t *testing.T) {
	data := AppendRecord(nil, []byte("good"))
	data = append(data, 0xF0, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4, 'x')
	allocs := testing.AllocsPerRun(10, func() {
		r := bytes.NewReader(data)
		if rec, err := ReadRecord(r, int64(r.Len()), nil); err != nil || string(rec) != "good" {
			t.Fatalf("good prefix: %q, %v", rec, err)
		}
		if _, err := ReadRecord(r, int64(r.Len()), nil); err != io.ErrUnexpectedEOF {
			t.Fatalf("oversized header: %v", err)
		}
	})
	if allocs > 4 {
		t.Fatalf("bounded read allocated %v objects", allocs)
	}
	_, rest, _ := NextRecord(data)
	if _, _, err := NextRecord(rest); err != io.ErrUnexpectedEOF {
		t.Fatalf("oversized header in place: %v", err)
	}
}

// TestUnmarshalRejectsHostileCounts: lengths and counts read from the input
// are bounded by the input, so corrupt bytes fail instead of sizing an
// allocation or an index (each case panicked or over-allocated before the
// bound).
func TestUnmarshalRejectsHostileCounts(t *testing.T) {
	wraps := binary.AppendUvarint(nil, math.MaxUint64) // negative as an int: indexed out of range
	huge := binary.AppendUvarint(nil, 1<<40)           // sized a make
	cases := map[string][]byte{
		"id length":       wraps,
		"source count":    append([]byte{1, 'e', 1, 0, 0, 0, 0, 0, 0}, huge...),
		"trust count":     append([]byte{1, 'e', 1, 0, 0, 0, 0, 0, 0, 0}, huge...),
		"negative trust":  append([]byte{1, 'e', 1, 0, 0, 0, 0, 0, 0, 0}, wraps...),
		"overlong varint": {0x81, 0x00, 'e', 0},
	}
	for name, data := range cases {
		var e Entity
		if err := e.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCodecAllocations(t *testing.T) {
	e := paperEntity()
	dst := make([]byte, 0, RecordLen(e.EncodedLen()))
	if n := testing.AllocsPerRun(100, func() {
		out, mark := BeginRecord(dst[:0])
		out, _ = e.AppendBinary(out)
		dst = EndRecord(out, mark)
	}); n != 0 {
		t.Errorf("AppendBinary into sufficient capacity allocated %v objects", n)
	}
	if len(dst) != RecordLen(e.EncodedLen()) {
		t.Fatalf("frame is %d bytes, RecordLen says %d", len(dst), RecordLen(e.EncodedLen()))
	}
	buf := append(append([]byte(nil), dst...), dst...)
	if n := testing.AllocsPerRun(100, func() {
		rest := buf
		for {
			rec, next, err := NextRecord(rest)
			if err != nil {
				break
			}
			if id, err := PeekID(rec); err != nil || string(id) != string(e.ID) {
				t.Fatalf("PeekID = %q, %v", id, err)
			}
			rest = next
		}
	}); n != 0 {
		t.Errorf("frame iteration allocated %v objects", n)
	}
}

// The fuzz targets' seed corpora, past crashers among them, are under
// testdata/fuzz/.

func FuzzNextRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var reframed []byte
		rest, frames := data, 0
		for {
			rec, next, err := NextRecord(rest)
			if err != nil {
				break
			}
			reframed = AppendRecord(reframed, rec)
			rest = next
			frames++
		}
		if consumed := data[:len(data)-len(rest)]; !bytes.Equal(reframed, consumed) {
			t.Fatalf("accepted frames do not re-frame to the bytes consumed")
		}
		// The streaming reader accepts exactly the same prefix, and the
		// unverified count never falls short of it.
		r, streamed := bytes.NewReader(data), 0
		for {
			if _, err := ReadRecord(r, int64(r.Len()), nil); err != nil {
				break
			}
			streamed++
		}
		if streamed != frames || CountRecords(data) < frames {
			t.Fatalf("in place %d frames, streamed %d, counted %d", frames, streamed, CountRecords(data))
		}
	})
}

func FuzzEntityUnmarshalBinary(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Entity
		if err := e.UnmarshalBinary(data); err != nil {
			return
		}
		again, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted input re-encodes differently\n in %x\nout %x", data, again)
		}
	})
}
