// Package jsonstr writes JSON string literals byte-identical to
// encoding/json with HTML escaping on (its default): the characters
// <, > and & as six-byte \u escapes, invalid UTF-8 as the escaped
// replacement character U+FFFD, and U+2028 and U+2029 escaped. The
// /api/query encoder and the summary memo in internal/core share it, so
// an escaped summary stored once is what the encoder would have written.
package jsonstr

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// Append appends src as a quoted JSON string literal.
func Append[T string | []byte](dst []byte, src T) []byte {
	dst = append(dst, '"')
	dst = AppendEscaped(dst, src)
	return append(dst, '"')
}

// AppendEscaped appends the inside of src's JSON string literal: Append
// without the quotes. Escaping two strings one after the other equals
// escaping their concatenation whenever the second starts with a byte
// that is not a UTF-8 continuation byte and the first does not end in
// an incomplete multi-byte sequence, since the decoder then starts a
// rune at the boundary either way.
func AppendEscaped[T string | []byte](dst []byte, src T) []byte {
	start := 0
	for i := 0; i < len(src); {
		if b := src[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, src[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
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
				// Other control bytes, and <, > and & so the JSON is safe
				// to embed in HTML.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// At most UTFMax bytes, so the conversion needs no allocation.
		c, size := utf8.DecodeRuneInString(string(src[i:min(i+utf8.UTFMax, len(src))]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case c == 0x2028 || c == 0x2029:
			// Valid JSON, but line terminators in JavaScript source.
			dst = append(dst, src[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, src[start:]...)
}
