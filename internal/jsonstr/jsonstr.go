// Package jsonstr writes and reads JSON string tokens exactly as
// encoding/json does, without reflection. The hand-written encoders and
// decoders elsewhere (serve's response renderer, the store's envelope
// reader, core's stable-result decoder) share it, so there is one
// escaper and one unescaper in the tree.
package jsonstr

import (
	"unicode/utf16"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes a JSON string carries unescaped when
// HTML escaping is on.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

// Append appends s as a JSON string escaped as encoding/json escapes
// with HTML escaping on: '"' and '\\' backslashed; \b \f \n \r \t short
// forms; other control bytes and '<', '>', '&' as \u00XX; U+2028 and
// U+2029 as \u2028 and \u2029; each invalid UTF-8 byte as \ufffd.
// Everything else is copied.
func Append[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		n := len(s) - i
		if n > utf8.UTFMax {
			n = utf8.UTFMax
		}
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// Cut reads the JSON string token at the start of data and returns its
// value and the bytes after it. A token without a backslash is copied as
// is; escapes are decoded as encoding/json decodes them, an unpaired
// surrogate escape included (it becomes U+FFFD). ok is false when data
// does not start with a complete, valid token, and also when the token
// holds raw invalid UTF-8, which encoding/json would silently rewrite
// and which no encoder in this tree writes.
func Cut(data []byte) (s string, rest []byte, ok bool) {
	if len(data) == 0 || data[0] != '"' {
		return "", nil, false
	}
	for i := 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			if raw := data[1:i]; utf8.Valid(raw) {
				return string(raw), data[i+1:], true
			}
			return "", nil, false
		case c == '\\':
			return cutEscaped(data, i)
		case c < ' ':
			return "", nil, false
		}
	}
	return "", nil, false
}

// cutEscaped is Cut's slow path, entered at the token's first backslash
// (data[i]).
func cutEscaped(data []byte, i int) (string, []byte, bool) {
	b := append([]byte(nil), data[1:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			if !utf8.Valid(b) {
				return "", nil, false
			}
			return string(b), data[i+1:], true
		case c < ' ':
			return "", nil, false
		case c != '\\':
			b = append(b, c)
			i++
			continue
		}
		if i+1 >= len(data) {
			return "", nil, false
		}
		switch e := data[i+1]; e {
		case '"', '\\', '/':
			b = append(b, e)
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
			r := hex4(data[i+2:])
			if r < 0 {
				return "", nil, false
			}
			i += 6
			if utf16.IsSurrogate(r) {
				if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
					if dec := utf16.DecodeRune(r, hex4(data[i+2:])); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						i += 6
						continue
					}
				}
				r = utf8.RuneError
			}
			b = utf8.AppendRune(b, r)
			continue
		default:
			return "", nil, false
		}
		i += 2
	}
	return "", nil, false
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
