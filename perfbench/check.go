package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"qfusor/internal/data"
)

// result is a query result reduced to a comparable form: its column
// count and its rows as a sorted multiset of row keys.
type result struct {
	cols int
	rows []string
}

// canon reduces a table to a result. Floats keep twelve significant
// digits: a parallel aggregate may add the same floats in another order
// than the serial reference, which changes only the last bits.
func canon(t *data.Table) result {
	n := t.NumRows()
	rows := make([]string, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.Reset()
		for _, c := range t.Cols {
			v := c.Get(i)
			if v.Kind == data.KindFloat {
				b.WriteString("f")
				b.WriteString(strconv.FormatFloat(v.F, 'g', 12, 64))
			} else {
				b.WriteString(v.Key())
			}
			b.WriteByte('|')
		}
		rows[i] = b.String()
	}
	sort.Strings(rows)
	return result{cols: len(t.Cols), rows: rows}
}

// diff describes how got differs from want, or returns "" when they are
// the same multiset of rows.
func diff(want, got result) string {
	if want.cols != got.cols {
		return fmt.Sprintf("%d columns, want %d", got.cols, want.cols)
	}
	if len(want.rows) != len(got.rows) {
		return fmt.Sprintf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		if want.rows[i] != got.rows[i] {
			return fmt.Sprintf("row %q, want %q", got.rows[i], want.rows[i])
		}
	}
	return ""
}

// jsonValue renders a value the way the query server's JSON encoding
// does, so an in-process result can be compared with served rows.
func jsonValue(v data.Value) any {
	switch v.Kind {
	case data.KindNull:
		return nil
	case data.KindInt:
		return v.I
	case data.KindFloat:
		return v.F
	case data.KindString:
		return v.S
	case data.KindBool:
		return v.AsBool()
	default:
		return v.String()
	}
}

// jsonRows encodes a table's rows as the query server sends them.
func jsonRows(t *data.Table) ([]byte, error) {
	n := t.NumRows()
	rows := make([][]any, n)
	for i := range rows {
		row := make([]any, len(t.Cols))
		for j, c := range t.Cols {
			row[j] = jsonValue(c.Get(i))
		}
		rows[i] = row
	}
	return json.Marshal(rows)
}

// sameJSONRows reports whether two JSON row arrays hold the same
// multiset of rows. Equal bytes are the common case; otherwise both are
// decoded and compared row by row in sorted order.
func sameJSONRows(want, got []byte) bool {
	if bytes.Equal(want, got) {
		return true
	}
	keys := func(b []byte) ([]string, bool) {
		var rows []json.RawMessage
		if err := json.Unmarshal(b, &rows); err != nil {
			return nil, false
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			var v any
			if err := json.Unmarshal(r, &v); err != nil {
				return nil, false
			}
			k, _ := json.Marshal(v)
			out[i] = string(k)
		}
		sort.Strings(out)
		return out, true
	}
	w, ok1 := keys(want)
	g, ok2 := keys(got)
	return ok1 && ok2 && diff(result{rows: w}, result{rows: g}) == ""
}
