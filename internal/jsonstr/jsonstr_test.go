package jsonstr

import (
	"encoding/json"
	"testing"
)

func TestCutMatchesEncodingJSON(t *testing.T) {
	for _, tok := range []string{
		`""`, `"plain"`, `"a\"b\\c\/d"`, `"\b\f\n\r\t"`, `"\u0000\u001F\u003c\u00e9"`,
		`"\ud83d\ude00"`, `"\ud800"`, `"\ud800x"`, `"\ud800\u0041"`, `"\udc00\ud800"`,
		`"é 😀"`,
	} {
		var want string
		if err := json.Unmarshal([]byte(tok), &want); err != nil {
			t.Fatalf("%s: %v", tok, err)
		}
		got, rest, ok := Cut([]byte(tok + `,"next"`))
		if !ok || got != want || string(rest) != `,"next"` {
			t.Errorf("Cut(%s) = %q, %q, %v; encoding/json %q", tok, got, rest, ok, want)
		}
	}
}

// TestCutRejects covers tokens encoding/json rejects, and raw invalid
// UTF-8, which it accepts but rewrites to U+FFFD.
func TestCutRejects(t *testing.T) {
	for _, tok := range []string{
		``, `x`, `"`, `"abc`, `"a\`, `"a\x"`, `"\u12"`, `"\u12g4"`, "\"a\nb\"", "\"\x00\"",
		"\"\xff\"", "\"\\n\xff\"",
	} {
		if s, _, ok := Cut([]byte(tok)); ok {
			t.Errorf("Cut(%q) accepted: %q", tok, s)
		}
	}
}

func TestCutInvertsAppend(t *testing.T) {
	for _, s := range []string{"", "analyze\x00a<b>&\"c\\\n\t\u2028é", "x\x7f\x1e"} {
		got, rest, ok := Cut(Append(nil, s))
		if !ok || got != s || len(rest) != 0 {
			t.Errorf("Cut(Append(%q)) = %q, %q, %v", s, got, rest, ok)
		}
	}
}
