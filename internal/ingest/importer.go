// Package ingest implements Saga's data source ingestion module (§2.2): the
// pluggable adapter pipeline that onboards a provider's data into the KG
// format. A pipeline imports raw upstream artifacts into rows, transforms
// rows into entity-centric views, aligns source predicates to the KG ontology
// through config-driven predicate generation functions (PGFs), eagerly
// computes deltas against the previously consumed snapshot, and exports
// extended triples for knowledge construction.
package ingest

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Row is one imported record: a flat map of source column names to raw string
// values. Importers normalize heterogeneous upstream formats to rows.
type Row map[string]string

// Importer reads an upstream data artifact into the standard row-based
// dataset format. Implementations exist for CSV/TSV, JSON arrays, and JSONL;
// new formats plug in by implementing this interface.
type Importer interface {
	Import(r io.Reader) ([]Row, error)
}

// CSVImporter imports delimiter-separated files whose first record is the
// header row. The zero value reads comma-separated data.
type CSVImporter struct {
	// Comma is the field delimiter; 0 means ','. Use '\t' for TSV.
	Comma rune
}

// Import implements Importer.
func (c CSVImporter) Import(r io.Reader) ([]Row, error) {
	cr := csv.NewReader(r)
	if c.Comma != 0 {
		cr.Comma = c.Comma
	}
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("ingest: csv import: %w", err)
	}
	if len(records) == 0 {
		return nil, nil
	}
	header := records[0]
	rows := make([]Row, 0, len(records)-1)
	for i, rec := range records[1:] {
		if len(rec) > len(header) {
			return nil, fmt.Errorf("ingest: csv row %d has %d fields for %d columns", i+2, len(rec), len(header))
		}
		row := make(Row, len(header))
		for j, col := range header {
			if j < len(rec) {
				row[col] = rec[j]
			} else {
				row[col] = ""
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// JSONLImporter imports newline-delimited JSON objects, one row per line.
// Non-string values are rendered to their JSON text; a number keeps the
// digits it was written with.
type JSONLImporter struct{}

// Import implements Importer.
func (JSONLImporter) Import(r io.Reader) ([]Row, error) {
	dec := newDecoder(r)
	var rows []Row
	for {
		var obj map[string]any
		if err := dec.Decode(&obj); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("ingest: jsonl import row %d: %w", len(rows)+1, err)
		}
		rows = append(rows, flattenObject(obj))
	}
	return rows, nil
}

// JSONImporter imports a single JSON array of objects.
type JSONImporter struct{}

// Import implements Importer.
func (JSONImporter) Import(r io.Reader) ([]Row, error) {
	var objs []map[string]any
	if err := newDecoder(r).Decode(&objs); err != nil {
		return nil, fmt.Errorf("ingest: json import: %w", err)
	}
	rows := make([]Row, len(objs))
	for i, obj := range objs {
		rows[i] = flattenObject(obj)
	}
	return rows, nil
}

// newDecoder decodes numbers as json.Number, not float64: an integer id
// above 2^53 would lose digits, and two upstream ids could become one.
func newDecoder(r io.Reader) *json.Decoder {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	return dec
}

// flattenObject renders a decoded JSON object to a Row. Scalars render
// naturally; arrays join with the multi-value separator so the transformer
// can split them back; nested objects render as compact JSON.
func flattenObject(obj map[string]any) Row {
	row := make(Row, len(obj))
	for k, v := range obj {
		row[k] = renderJSONValue(v)
	}
	return row
}

func renderJSONValue(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case json.Number:
		return string(x)
	case []any:
		out := ""
		for i, e := range x {
			if i > 0 {
				out += MultiValueSep
			}
			out += renderJSONValue(e)
		}
		return out
	default:
		b, err := json.Marshal(x)
		if err != nil {
			return fmt.Sprintf("%v", x)
		}
		return string(b)
	}
}

// MultiValueSep separates multiple values packed into one row cell, for
// example several genres in one CSV column.
const MultiValueSep = "|"
