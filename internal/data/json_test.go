package data

import (
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strings"
	"testing"
)

// referenceJSONValue is the reference decoder UnmarshalJSONValue is
// checked against: encoding/json into an any tree (numbers kept as
// literals), then a second pass converting that tree to a Value.
// Anything but whitespace after the first value is an error.
func referenceJSONValue(s string) (Value, error) {
	dec := json.NewDecoder(strings.NewReader(s))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null, err
	}
	if strings.TrimLeft(s[dec.InputOffset():], " \t\r\n") != "" {
		return Null, errors.New("extra data")
	}
	return fromJSONAny(raw), nil
}

func fromJSONAny(raw any) Value {
	switch x := raw.(type) {
	case nil:
		return Null
	case bool:
		return Bool(x)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return Int(i)
		}
		f, _ := x.Float64()
		return Float(f)
	case string:
		return Str(x)
	case []any:
		items := make([]Value, len(x))
		for i, it := range x {
			items[i] = fromJSONAny(it)
		}
		return NewList(items)
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d := NewDict()
		for _, k := range keys {
			d.Dict().Set(k, fromJSONAny(x[k]))
		}
		return d
	}
	panic("unreachable")
}

// checkJSONDecode asserts UnmarshalJSONValue agrees with the reference:
// both fail, or both succeed with the same Kind and Repr.
func checkJSONDecode(t *testing.T, s string) {
	t.Helper()
	want, werr := referenceJSONValue(s)
	got, gerr := UnmarshalJSONValue(s)
	switch {
	case werr != nil && gerr != nil:
		return
	case werr != nil:
		t.Fatalf("decode %q = %s, reference fails: %v", s, got.Repr(), werr)
	case gerr != nil:
		t.Fatalf("decode %q fails (%v), reference = %s", s, gerr, want.Repr())
	}
	if got.Kind != want.Kind || got.Repr() != want.Repr() {
		t.Fatalf("decode %q = %v %s, reference = %v %s", s, got.Kind, got.Repr(), want.Kind, want.Repr())
	}
}

var jsonDecodeCases = []string{
	// every Kind
	`null`, `true`, `false`, `0`, `42`, `-7`, `3.5`, `"s"`, `[]`, `{}`,
	`[1,"a",null,true,2.5,[],{}]`, `{"k":[1,{"x":null}]}`,
	// escapes, surrogate pairs, lone surrogates
	`"a\"b\\c\/d\be\ff\ng\rh\ti"`, `"Aé€"`, `"😀"`,
	`"\ud83d"`, `"\ude00"`, `"\ud83dx"`, `"\ud83dA"`, `"\ud83d😀"`,
	`"😀"`, `"\u12"`, `"\u12g4"`, `"\x"`, `"\'"`, `"\"`, `"abc`,
	// invalid UTF-8 and control characters
	"\"\xff\"", "\"a\xc3\"", "\"\xe2\x82\"", "\"ok\xed\xa0\x80\"", "\"\x01\"", "\"tab\there\"",
	"\xff", "[\"\xff\", \"\xfe\xfe\"]", "{\"\xff\":1}",
	// numbers: leading zeros, exponents, -0, 1.0, int64 edges, overflow
	`01`, `-01`, `00`, `0.5`, `-0`, `-0.0`, `1.0`, `1.`, `.5`, `+1`, `-`, `1e3`, `1E+3`,
	`1e-3`, `2.5e10`, `1e`, `1e+`, `9223372036854775807`, `-9223372036854775808`,
	`9223372036854775808`, `-9223372036854775809`, `123456789012345678901234567890`,
	`1e400`, `-1e400`, `1e-400`, `0x10`, `NaN`, `Infinity`,
	// duplicate keys and key order
	`{"b":1,"a":2}`, `{"a":1,"a":2}`, `{"a":1,"b":2,"a":3}`, `{"a":1,"a":2}`,
	`{"id":"P0001","funder":"EC","class":"H2020","start":"2014-01-01","end":"2016-12-31"}`,
	// malformed structure and trailing data
	`[1,]`, `[,1]`, `{"a":1,}`, `{"a" 1}`, `{a:1}`, `{"a":}`, `[1 2]`, `[`, `{`, `]`, `}`,
	`{"a":1} x`, `[1]]`, `1 2`, `truex`, `nul`, `tru`, `[true false]`, ``, `   `,
	// whitespace
	" \t\r\n[ 1 , { \"a\" : 2 } ]\n ", " null ", "\v1", " 1",
}

func TestJSONDecodeMatchesReference(t *testing.T) {
	for _, s := range jsonDecodeCases {
		checkJSONDecode(t, s)
	}
	for _, depth := range []int{1, 100, 9999, 10000, 10001, 20000} {
		checkJSONDecode(t, strings.Repeat("[", depth)+strings.Repeat("]", depth))
		checkJSONDecode(t, strings.Repeat(`{"a":`, depth)+"1"+strings.Repeat("}", depth))
	}
}

func TestJSONDecodeSemantics(t *testing.T) {
	cases := []struct {
		in   string
		kind Kind
		repr string
	}{
		{`-0`, KindInt, "0"},
		{`1.0`, KindFloat, "1.0"},
		{`1e2`, KindFloat, "100.0"},
		{`9223372036854775808`, KindFloat, "9.223372036854776e+18"},
		{`1e400`, KindFloat, "+Inf"},
		{`{"b":1,"a":2,"b":3}`, KindDict, `{"a": 2, "b": 3}`},
		{"\"\xff\"", KindString, `"�"`},
		{`"\ud83d"`, KindString, `"�"`},
		{`"😀"`, KindString, `"😀"`},
	}
	for _, c := range cases {
		v, err := UnmarshalJSONValue(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if v.Kind != c.kind || v.Repr() != c.repr {
			t.Errorf("%q = %v %s, want %v %s", c.in, v.Kind, v.Repr(), c.kind, c.repr)
		}
	}
	for _, bad := range []string{`{"a":1} x`, `[1]]`, `1 2`} {
		_, err := UnmarshalJSONValue(bad)
		if err == nil || !strings.Contains(err.Error(), "extra data") {
			t.Errorf("%q: err = %v, want extra data", bad, err)
		}
	}
	if v, _ := UnmarshalJSONValue(`1e400`); !math.IsInf(v.F, 1) {
		t.Errorf("1e400 = %v", v)
	}
}

// TestJSONDecodedDictIsUsable: decoded dicts index lazily; lookups,
// updates and deletes behave like a dict built with Set.
func TestJSONDecodedDictIsUsable(t *testing.T) {
	v, err := UnmarshalJSONValue(`{"c":3,"a":1,"b":2}`)
	if err != nil {
		t.Fatal(err)
	}
	d := v.Dict()
	if got, ok := d.Get("b"); !ok || got.I != 2 {
		t.Fatalf("Get(b) = %v %v", got, ok)
	}
	d.Set("a", Int(10))
	d.Set("d", Int(4))
	d.Delete("b")
	if got, ok := d.Get("a"); !ok || got.I != 10 {
		t.Fatalf("Get(a) = %v %v", got, ok)
	}
	if v.Repr() != `{"a": 10, "c": 3, "d": 4}` {
		t.Fatalf("dict = %s", v.Repr())
	}
}

func FuzzJSONDecode(f *testing.F) {
	for _, s := range jsonDecodeCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkJSONDecode(t, s)
	})
}

// benchDocs mirrors the UDFBench pubs.authors lists and pubs.project
// dicts (unsorted keys, as the generator writes them).
var benchDocs = []string{
	`["Zoe Abbott","Al Smith","Bo Lee","Kim Park"]`,
	`{"id":"P0007","funder":"European Commission","class":"H2020-MSCA","start":"2014-01-01","end":"2016-12-31"}`,
	`["Ana Lopez","Ivan Petrov"]`,
	`{"id":"P0012","funder":"NSF","class":"CAREER","start":"2011-01-01","end":"2014-12-31"}`,
	`[12,7,993,41,5,600]`,
}

func BenchmarkJSONDecode(b *testing.B) {
	n := 0
	for _, d := range benchDocs {
		n += len(d)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range benchDocs {
			if _, err := UnmarshalJSONValue(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkJSONDecodeReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range benchDocs {
			if _, err := referenceJSONValue(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
