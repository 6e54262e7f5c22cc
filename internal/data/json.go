package data

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// MarshalJSONValue serializes a Value to JSON text. This is the format
// complex types (lists/dicts) use when stored inside engine columns —
// i.e. the (de)serialization overhead QFusor's wrapper layer removes.
func MarshalJSONValue(v Value) string {
	b, err := json.Marshal(toJSONAny(v))
	if err != nil {
		return "null"
	}
	return string(b)
}

func toJSONAny(v Value) any {
	switch v.Kind {
	case KindNull:
		return nil
	case KindBool:
		return v.I != 0
	case KindInt:
		return v.I
	case KindFloat:
		if math.IsInf(v.F, 0) || math.IsNaN(v.F) {
			return nil
		}
		return v.F
	case KindString:
		return v.S
	case KindList:
		items := v.List().Items
		out := make([]any, len(items))
		for i, it := range items {
			out[i] = toJSONAny(it)
		}
		return out
	case KindDict:
		d := v.Dict()
		out := make(map[string]any, d.Len())
		for i, k := range d.Keys {
			out[k] = toJSONAny(d.Vals[i])
		}
		return out
	default:
		return fmt.Sprintf("%v", v.P)
	}
}

// maxJSONDepth bounds array/object nesting, as encoding/json does.
const maxJSONDepth = 10000

// UnmarshalJSONValue parses JSON text into a Value in one pass, straight
// from the text: no intermediate tree, and strings without escapes or
// invalid UTF-8 are sliced from s rather than copied. It keeps Python
// json semantics: a number is an int when its literal parses as an
// int64 and a float otherwise; object keys come back sorted and a
// duplicate key keeps its last value; invalid UTF-8 and lone surrogates
// in strings become U+FFFD; anything but whitespace after the value is
// an error ("extra data", as CPython's json.loads).
func UnmarshalJSONValue(s string) (Value, error) {
	d := jsonDecoders.Get().(*jsonDecoder)
	d.s, d.i = s, 0
	v, err := d.document()
	clear(d.vals) // non-empty only after an error
	clear(d.keys)
	d.s, d.vals, d.keys = "", d.vals[:0], d.keys[:0]
	if cap(d.vals) <= maxPooledItems {
		jsonDecoders.Put(d)
	}
	return v, err
}

// jsonDecoders recycles decoders so their scratch stacks are allocated
// once, not grown again on every call. A decoder whose stack grew past
// maxPooledItems (one huge document) is dropped instead of pinned.
var jsonDecoders = sync.Pool{New: func() any { return new(jsonDecoder) }}

const maxPooledItems = 1 << 12

// jsonDecoder is a recursive-descent decoder over s. vals and keys are
// stacks of the items of the containers being decoded; a finished
// container copies its items out into exactly-sized slices and clears
// its stack slots, so a pooled decoder retains no decoded values.
type jsonDecoder struct {
	s    string
	i    int
	vals []Value
	keys []string
	buf  []byte
}

func (d *jsonDecoder) document() (Value, error) {
	d.skipSpace()
	v, err := d.value(0)
	if err != nil {
		return Null, err
	}
	d.skipSpace()
	if d.i < len(d.s) {
		return Null, d.errorf("extra data")
	}
	return v, nil
}

func (d *jsonDecoder) errorf(msg string) error {
	return fmt.Errorf("data: invalid json: %s at offset %d", msg, d.i)
}

func (d *jsonDecoder) unexpected() error {
	if d.i >= len(d.s) {
		return d.errorf("unexpected end of input")
	}
	return d.errorf(fmt.Sprintf("invalid character %q", d.s[d.i]))
}

func (d *jsonDecoder) skipSpace() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *jsonDecoder) value(depth int) (Value, error) {
	if d.i >= len(d.s) {
		return Null, d.unexpected()
	}
	switch c := d.s[d.i]; {
	case c == '"':
		s, err := d.str()
		return Str(s), err
	case c == '[':
		return d.array(depth + 1)
	case c == '{':
		return d.object(depth + 1)
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true", Bool(true))
	case c == 'f':
		return d.literal("false", Bool(false))
	case c == 'n':
		return d.literal("null", Null)
	}
	return Null, d.unexpected()
}

func (d *jsonDecoder) literal(word string, v Value) (Value, error) {
	if !strings.HasPrefix(d.s[d.i:], word) {
		for j := 0; j < len(word) && d.i < len(d.s) && d.s[d.i] == word[j]; j++ {
			d.i++
		}
		return Null, d.unexpected()
	}
	d.i += len(word)
	return v, nil
}

func (d *jsonDecoder) array(depth int) (Value, error) {
	if depth > maxJSONDepth {
		return Null, d.errorf("exceeded max depth")
	}
	d.i++ // [
	d.skipSpace()
	base := len(d.vals)
	if d.i < len(d.s) && d.s[d.i] == ']' {
		d.i++
		return NewList([]Value{}), nil
	}
	for {
		v, err := d.value(depth)
		if err != nil {
			return Null, err
		}
		d.vals = append(d.vals, v)
		d.skipSpace()
		if d.i >= len(d.s) {
			return Null, d.unexpected()
		}
		switch d.s[d.i] {
		case ',':
			d.i++
			d.skipSpace()
			continue
		case ']':
			d.i++
			items := make([]Value, len(d.vals)-base)
			copy(items, d.vals[base:])
			clear(d.vals[base:])
			d.vals = d.vals[:base]
			return NewList(items), nil
		}
		return Null, d.unexpected()
	}
}

// object decodes a JSON object into a dict with no key index: Get scans
// the (small) key list, and the first Set builds the index.
func (d *jsonDecoder) object(depth int) (Value, error) {
	if depth > maxJSONDepth {
		return Null, d.errorf("exceeded max depth")
	}
	d.i++ // {
	d.skipSpace()
	base := len(d.vals)
	if d.i < len(d.s) && d.s[d.i] == '}' {
		d.i++
		return Value{Kind: KindDict, P: &Dict{}}, nil
	}
	for {
		if d.i >= len(d.s) || d.s[d.i] != '"' {
			return Null, d.unexpected()
		}
		k, err := d.str()
		if err != nil {
			return Null, err
		}
		d.skipSpace()
		if d.i >= len(d.s) || d.s[d.i] != ':' {
			return Null, d.unexpected()
		}
		d.i++
		d.skipSpace()
		v, err := d.value(depth)
		if err != nil {
			return Null, err
		}
		d.keys = append(d.keys, k)
		d.vals = append(d.vals, v)
		d.skipSpace()
		if d.i >= len(d.s) {
			return Null, d.unexpected()
		}
		switch d.s[d.i] {
		case ',':
			d.i++
			d.skipSpace()
			continue
		case '}':
			d.i++
			n := len(d.vals) - base
			kbase := len(d.keys) - n
			dict := &Dict{Keys: make([]string, n), Vals: make([]Value, n)}
			copy(dict.Keys, d.keys[kbase:])
			copy(dict.Vals, d.vals[base:])
			clear(d.vals[base:])
			clear(d.keys[kbase:])
			d.vals, d.keys = d.vals[:base], d.keys[:kbase]
			dict.sortDedup()
			return Value{Kind: KindDict, P: dict}, nil
		}
		return Null, d.unexpected()
	}
}

// sortDedup orders the entries by key with a stable sort, then keeps
// the last of each run of equal keys — the value a JSON object's last
// duplicate assigns.
func (d *Dict) sortDedup() {
	sort.Stable(dictByKey{d})
	w := 0
	for r := range d.Keys {
		if w > 0 && d.Keys[r] == d.Keys[w-1] {
			d.Vals[w-1] = d.Vals[r]
			continue
		}
		d.Keys[w], d.Vals[w] = d.Keys[r], d.Vals[r]
		w++
	}
	clear(d.Vals[w:])
	d.Keys, d.Vals = d.Keys[:w], d.Vals[:w]
}

type dictByKey struct{ d *Dict }

func (s dictByKey) Len() int           { return len(s.d.Keys) }
func (s dictByKey) Less(i, j int) bool { return s.d.Keys[i] < s.d.Keys[j] }
func (s dictByKey) Swap(i, j int) {
	s.d.Keys[i], s.d.Keys[j] = s.d.Keys[j], s.d.Keys[i]
	s.d.Vals[i], s.d.Vals[j] = s.d.Vals[j], s.d.Vals[i]
}

// number scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (d *jsonDecoder) number() (Value, error) {
	s, start := d.s, d.i
	if s[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(s) && s[d.i] == '0':
		d.i++
	case d.i < len(s) && s[d.i] >= '1' && s[d.i] <= '9':
		d.skipDigits()
	default:
		return Null, d.unexpected()
	}
	intLit := true
	if d.i < len(s) && s[d.i] == '.' {
		intLit = false
		d.i++
		if !d.skipDigits() {
			return Null, d.unexpected()
		}
	}
	if d.i < len(s) && (s[d.i] == 'e' || s[d.i] == 'E') {
		intLit = false
		d.i++
		if d.i < len(s) && (s[d.i] == '+' || s[d.i] == '-') {
			d.i++
		}
		if !d.skipDigits() {
			return Null, d.unexpected()
		}
	}
	lit := s[start:d.i]
	if intLit {
		if n, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return Int(n), nil
		}
	}
	f, _ := strconv.ParseFloat(lit, 64) // out of range → ±Inf or 0
	return Float(f), nil
}

// skipDigits advances over [0-9]* and reports whether it moved.
func (d *jsonDecoder) skipDigits() bool {
	start := d.i
	for d.i < len(d.s) && d.s[d.i] >= '0' && d.s[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

// str decodes the string literal at d.i (an opening quote). The common
// case — no escapes, valid UTF-8 — returns a slice of the input.
func (d *jsonDecoder) str() (string, error) {
	d.i++ // "
	start := d.i
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return d.s[start : d.i-1], nil
		case c == '\\' || c < ' ':
			return d.strSlow(start)
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.strSlow(start)
			}
			d.i += size
		}
	}
	return "", d.unexpected()
}

// strSlow finishes a string that needs unescaping or UTF-8 repair; the
// bytes from start to d.i are plain and copy through unchanged.
func (d *jsonDecoder) strSlow(start int) (string, error) {
	b := append(d.buf[:0], d.s[start:d.i]...)
	defer func() { d.buf = b[:0] }()
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return string(b), nil
		case c < ' ':
			return "", d.unexpected()
		case c == '\\':
			if d.i+1 >= len(d.s) {
				d.i++
				return "", d.unexpected()
			}
			esc := d.s[d.i+1]
			d.i += 2
			switch esc {
			case '"', '\\', '/':
				b = append(b, esc)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(d.s, d.i)
				if r < 0 {
					return "", d.errorf("invalid \\u escape")
				}
				d.i += 4
				if utf16.IsSurrogate(r) {
					// A pair consumes the following \uXXXX; anything
					// else leaves it and replaces the lone half.
					r2 := rune(-1)
					if d.i+1 < len(d.s) && d.s[d.i] == '\\' && d.s[d.i+1] == 'u' {
						r2 = hex4(d.s, d.i+2)
					}
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						d.i += 6
						r = dec
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.i--
				return "", d.errorf("invalid escape")
			}
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.i++
		default:
			r, size := utf8.DecodeRuneInString(d.s[d.i:])
			b = utf8.AppendRune(b, r) // invalid byte → U+FFFD
			d.i += size
		}
	}
	return "", d.unexpected()
}

// hex4 parses the four hex digits at s[i:], or returns -1.
func hex4(s string, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range []byte(s[i : i+4]) {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}
