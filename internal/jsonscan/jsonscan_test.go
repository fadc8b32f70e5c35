package jsonscan

import (
	"encoding/json"
	"reflect"
	"testing"
)

// value reads one JSON value at data[i] with the package's scanners alone:
// objects become map[string]any (a repeated key's last value wins, as when
// encoding/json decodes into an any), arrays []any, strings string, numbers
// float64. true, false and null have no scanner, so they refuse.
func value(data string, i int) (v any, next int, ok bool) {
	if i >= len(data) {
		return nil, 0, false
	}
	switch data[i] {
	case '{':
		m := map[string]any{}
		next, ok = Object(data, i, func(key string, i int) (int, bool) {
			v, next, ok := value(data, i)
			m[key] = v
			return next, ok
		})
		return m, next, ok
	case '[':
		a := []any{}
		next, ok = Array(data, i, func(i int) (int, bool) {
			v, next, ok := value(data, i)
			a = append(a, v)
			return next, ok
		})
		return a, next, ok
	case '"':
		return String(data, i)
	}
	return Float(data, i)
}

// checkScan asserts one scanner result against a table row: want < 0 means
// the scanner must refuse, otherwise next must be want and val wantVal.
func checkScan[T comparable](t *testing.T, name, in string, i int, val T, next int, ok bool, want int, wantVal T) {
	t.Helper()
	switch {
	case want < 0 && ok:
		t.Errorf("%s(%q, %d) = %v, %d, accepted; want a refusal", name, in, i, val, next)
	case want >= 0 && !ok:
		t.Errorf("%s(%q, %d) refused; want next %d", name, in, i, want)
	case want >= 0 && (next != want || val != wantVal):
		t.Errorf("%s(%q, %d) = %v, %d; want %v, %d", name, in, i, val, next, wantVal, want)
	}
}

func TestString(t *testing.T) {
	for _, c := range []struct {
		in   string
		i    int
		next int // -1: refuse
		val  string
	}{
		{`""`, 0, 2, ""},
		{`"abc"`, 0, 5, "abc"},
		{`"abc" , 1`, 0, 5, "abc"},
		{`  "x"`, 2, 5, "x"},
		{`"ユーザー 🎉"`, 0, len(`"ユーザー 🎉"`), "ユーザー 🎉"},
		{`  "x"`, 0, -1, ""}, // whitespace is the caller's to skip
		{``, 0, -1, ""},
		{`"`, 0, -1, ""},
		{`"abc`, 0, -1, ""},
		{`abc`, 0, -1, ""},
		{`'a'`, 0, -1, ""},
		{`"a\"b"`, 0, -1, ""},
		{`"a\nb"`, 0, -1, ""},
		{`"a\u0041"`, 0, -1, ""},
		{"\"a\tb\"", 0, -1, ""},
		{"\"a\x00b\"", 0, -1, ""},
		{"\"bad \xff byte\"", 0, -1, ""},
		{"\"cut \xe3\x83\"", 0, -1, ""},
	} {
		val, next, ok := String(c.in, c.i)
		checkScan(t, "String", c.in, c.i, val, next, ok, c.next, c.val)
	}
}

func TestInt(t *testing.T) {
	for _, c := range []struct {
		in   string
		i    int
		next int
		val  int
	}{
		{`0`, 0, 1, 0},
		{`-0`, 0, 2, 0},
		{`42`, 0, 2, 42},
		{`42,`, 0, 2, 42},
		{`-7]`, 0, 2, -7},
		{`[ 13 ]`, 2, 4, 13},
		{`2147483647`, 0, 10, 2147483647},
		{`-2147483648`, 0, 11, -2147483648},
		{``, 0, -1, 0},
		{`-`, 0, -1, 0},
		{`+1`, 0, -1, 0},
		{` 1`, 0, -1, 0},
		{`01`, 0, -1, 0},
		{`-01`, 0, -1, 0},
		{`1.5`, 0, -1, 0},
		{`1.`, 0, -1, 0},
		{`1e3`, 0, -1, 0},
		{`1E3`, 0, -1, 0},
		{`99999999999999999999`, 0, -1, 0},
		{`x`, 0, -1, 0},
	} {
		val, next, ok := Int(c.in, c.i)
		checkScan(t, "Int", c.in, c.i, val, next, ok, c.next, c.val)
	}
}

func TestFloat(t *testing.T) {
	for _, c := range []struct {
		in   string
		i    int
		next int
		val  float64
	}{
		{`0`, 0, 1, 0},
		{`-0.5`, 0, 4, -0.5},
		{`12.5}`, 0, 4, 12.5},
		{`1e3`, 0, 3, 1000},
		{`1E+3`, 0, 4, 1000},
		{`1.25e-2`, 0, 7, 0.0125},
		{`0.0`, 0, 3, 0},
		{`:  7`, 3, 4, 7},
		{``, 0, -1, 0},
		{`-`, 0, -1, 0},
		{`+1`, 0, -1, 0},
		{`.5`, 0, -1, 0},
		{`1.`, 0, -1, 0},
		{`1.e3`, 0, -1, 0},
		{`01`, 0, -1, 0},
		{`-01.5`, 0, -1, 0},
		{`1e`, 0, -1, 0},
		{`1e+`, 0, -1, 0},
		{`1e400`, 0, -1, 0},
		{`NaN`, 0, -1, 0},
		{`Infinity`, 0, -1, 0},
		{`"1"`, 0, -1, 0},
	} {
		val, next, ok := Float(c.in, c.i)
		checkScan(t, "Float", c.in, c.i, val, next, ok, c.next, c.val)
	}
}

// walkCases are documents for the Object and Array tables: next is the
// offset value must return (just past the outer close), or -1 for a
// refusal. An accepted document must decode as encoding/json decodes
// in[:next].
var walkCases = []struct {
	in   string
	next int
}{
	// Objects.
	{`{}`, 2},
	{`{ }`, 3},
	{"{\n\t\r }", 6},
	{`{"a":1}`, 7},
	{`{"a":1}}`, 7},
	{`{"a":1} , tail`, 7},
	{` { "a" : 1 , "b" : "x" } `, -1}, // the walk starts at the brace
	{`{ "a" : 1 , "b" : "x" } `, 23},
	{"{\n\"a\"\t:\r1\n,\n\"b\":\"x\"\n}", 21},
	{`{"a":{"b":[1,{},[]]},"c":[{"d":"e"}]}`, 37},
	{`{"a":1,"a":2}`, 13},
	{`{"a":1,}`, -1},
	{`{,}`, -1},
	{`{,"a":1}`, -1},
	{`{"a" 1}`, -1},
	{`{"a"}`, -1},
	{`{"a":}`, -1},
	{`{"a":1 "b":2}`, -1},
	{`{"a":1;"b":2}`, -1},
	{`{"a":1]`, -1},
	{`{a:1}`, -1},
	{`{1:1}`, -1},
	{`{"k\"":1}`, -1},
	{`{"a":1`, -1},
	{`{"a":1,`, -1},
	{`{"a":`, -1},
	{`{"a"`, -1},
	{`{`, -1},
	{`{"a":{"b":1}`, -1},
	// Arrays.
	{`[]`, 2},
	{`[ ]`, 3},
	{`[] tail`, 2},
	{`[1]`, 3},
	{`[ 1 , "x" ]`, 11},
	{"[\n1,\t-2.5e1\r]", 13},
	{`[[],[[]],[{}]]`, 14},
	{`[{"a":[]},{"b":[1,2]}]`, 22},
	{`[1,]`, -1},
	{`[,1]`, -1},
	{`[,]`, -1},
	{`[1 2]`, -1},
	{`[1}`, -1},
	{`[1`, -1},
	{`[1,`, -1},
	{`[`, -1},
	{`[[]`, -1},
	{`]`, -1},
	{`[true]`, -1},
	{``, -1},
}

func TestObjectAndArray(t *testing.T) {
	for _, c := range walkCases {
		v, next, ok := value(c.in, 0)
		if c.next < 0 {
			if ok {
				t.Errorf("value(%q) = %v, %d, accepted; want a refusal", c.in, v, next)
			}
			continue
		}
		if !ok || next != c.next {
			t.Errorf("value(%q) = %d, ok %v; want next %d", c.in, next, ok, c.next)
			continue
		}
		var want any
		if err := json.Unmarshal([]byte(c.in[:next]), &want); err != nil {
			t.Fatalf("encoding/json refused %q: %v", c.in[:next], err)
		}
		if !reflect.DeepEqual(v, want) {
			t.Errorf("value(%q) = %#v; encoding/json decodes %#v", c.in, v, want)
		}
	}
}

// TestObjectHandsEveryMember checks what Object gives its callback: each
// key in document order, repeats included (the policy is the caller's),
// with the value offset past the whitespace after the colon. A refusing
// callback ends the walk with a refusal.
func TestObjectHandsEveryMember(t *testing.T) {
	data := `{"a": 1, "b" :"x","a":  2}`
	var got []string
	next, ok := Object(data, 0, func(key string, i int) (int, bool) {
		_, next, ok := value(data, i)
		got = append(got, key+"="+data[i:next])
		return next, ok
	})
	want := []string{"a=1", `b="x"`, "a=2"}
	if !ok || next != len(data) || !reflect.DeepEqual(got, want) {
		t.Fatalf("Object(%q) = %d, %v, members %q; want %d, true, %q", data, next, ok, got, len(data), want)
	}

	calls := 0
	_, ok = Object(data, 0, func(key string, i int) (int, bool) {
		calls++
		_, next, _ := value(data, i)
		return next, key != "b"
	})
	if ok || calls != 2 {
		t.Fatalf("Object with a callback refusing %q: ok %v after %d calls; want a refusal after 2", "b", ok, calls)
	}

	calls = 0
	_, ok = Array(`[1,2,3]`, 0, func(i int) (int, bool) {
		calls++
		return i + 1, calls < 2
	})
	if ok || calls != 2 {
		t.Fatalf("Array with a callback refusing its second element: ok %v after %d calls; want a refusal after 2", ok, calls)
	}
}

// FuzzScalars holds String, Int and Float to encoding/json: where a scanner
// accepts a token, json.Unmarshal decodes the same token to the same value,
// and where json.Unmarshal refuses a whole input, no scanner reads the whole
// input as one token.
func FuzzScalars(f *testing.F) {
	for _, s := range []string{
		`""`, `"abc"`, `"a\"b"`, "\"\xff\"", `"ユーザー"`, `0`, `-0`, `42`, `-7`,
		`01`, `1.5`, `1.`, `.5`, `1e3`, `1E+3`, `1e-2`, `1e400`, `+1`, `-`,
		`99999999999999999999`, `9223372036854775807`, `12 `, `3,`, `NaN`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		whole := func(next int, ok bool) bool { return ok && SkipSpace(s, next) == len(s) }

		if v, next, ok := String(s, 0); ok {
			var std string
			if err := json.Unmarshal([]byte(s[:next]), &std); err != nil || std != v {
				t.Fatalf("String(%q) = %q, %d; json.Unmarshal(%q) = %q, %v", s, v, next, s[:next], std, err)
			}
		} else if next != 0 || v != "" {
			t.Fatalf("String(%q) refused but returned %q, %d", s, v, next)
		}
		if v, next, ok := Int(s, 0); ok {
			var std int
			if err := json.Unmarshal([]byte(s[:next]), &std); err != nil || std != v {
				t.Fatalf("Int(%q) = %d, %d; json.Unmarshal(%q) = %d, %v", s, v, next, s[:next], std, err)
			}
		}
		if v, next, ok := Float(s, 0); ok {
			var std float64
			if err := json.Unmarshal([]byte(s[:next]), &std); err != nil || std != v {
				t.Fatalf("Float(%q) = %v, %d; json.Unmarshal(%q) = %v, %v", s, v, next, s[:next], std, err)
			}
		}

		var str string
		if json.Unmarshal([]byte(s), &str) != nil {
			if _, next, ok := String(s, 0); whole(next, ok) {
				t.Fatalf("json.Unmarshal refuses %q as a string, String accepts it", s)
			}
		}
		var n int
		if json.Unmarshal([]byte(s), &n) != nil {
			if _, next, ok := Int(s, 0); whole(next, ok) {
				t.Fatalf("json.Unmarshal refuses %q as an int, Int accepts it", s)
			}
		}
		var x float64
		if json.Unmarshal([]byte(s), &x) != nil {
			if _, next, ok := Float(s, 0); whole(next, ok) {
				t.Fatalf("json.Unmarshal refuses %q as a float64, Float accepts it", s)
			}
		}
	})
}

// FuzzWalk walks an arbitrary document of objects, arrays, strings and
// numbers with Object and Array. A document the walk accepts must be valid
// JSON, must end just past its outer close, and must decode to what
// encoding/json decodes it to.
func FuzzWalk(f *testing.F) {
	for _, c := range walkCases {
		f.Add(c.in)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, next, ok := value(s, 0)
		if !ok {
			return
		}
		if next <= 0 || next > len(s) {
			t.Fatalf("value(%q) accepted with next %d", s, next)
		}
		doc := s[:next]
		if !json.Valid([]byte(doc)) {
			t.Fatalf("value(%q) accepted %q, which json.Valid refuses", s, doc)
		}
		if c, ok := map[byte]byte{'{': '}', '[': ']'}[doc[0]]; ok && doc[next-1] != c {
			t.Fatalf("value(%q) ended at %d, not just past a close", s, next)
		}
		var want any
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatalf("json.Unmarshal(%q): %v", doc, err)
		}
		if !reflect.DeepEqual(v, want) {
			t.Fatalf("value(%q) = %#v; encoding/json decodes %#v", doc, v, want)
		}
	})
}
