package ingest

import (
	"bytes"
	"encoding/csv"
	"testing"
)

// FuzzImport feeds arbitrary bytes to every source reader: the CSV importer
// (comma and tab), the JSON and JSONL importers and ReadSnapshot. None may
// panic, and every CSV row must have exactly the header's columns.
func FuzzImport(f *testing.F) {
	for _, seed := range []string{
		"id,name,genres\na1,Adele,pop|soul\na2,Sia,pop\n",
		"id,name\na1\n",
		"id\tname\nx\tThe Weeknd\n",
		"id,title,year\ns1,Hello,2015\n",
		`{"id":"s1","title":"Hello","plays":123,"tags":["a","b"]}` + "\n" + `{"id":"s2","title":"Halo","live":true}`,
		`[{"id":"1","v":null},{"id":"2","v":"x"}]`,
		`[{"id":12345678901234567890,"big":1e400,"o":{"x":1}}]`,
		`{"a":1,"b":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, comma := range []rune{0, '\t'} {
			rows, err := CSVImporter{Comma: comma}.Import(bytes.NewReader(data))
			if err != nil || len(rows) == 0 {
				continue
			}
			cr := csv.NewReader(bytes.NewReader(data))
			if comma != 0 {
				cr.Comma = comma
			}
			cr.FieldsPerRecord = -1
			header, err := cr.Read()
			if err != nil {
				t.Fatalf("import succeeded but the header does not read: %v", err)
			}
			cols := make(map[string]bool, len(header))
			for _, c := range header {
				cols[c] = true
			}
			for i, row := range rows {
				if len(row) != len(cols) {
					t.Fatalf("row %d has %d columns, header %d", i, len(row), len(cols))
				}
				for c := range row {
					if !cols[c] {
						t.Fatalf("row %d has column %q the header lacks", i, c)
					}
				}
			}
		}
		_, _ = JSONImporter{}.Import(bytes.NewReader(data))
		_, _ = JSONLImporter{}.Import(bytes.NewReader(data))
		_, _ = ReadSnapshot(bytes.NewReader(data))
	})
}
