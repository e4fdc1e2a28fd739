package jsonstr

import (
	"bytes"
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// FuzzAppendJSONString: Append, over a string or a byte slice and after
// existing bytes, writes exactly what encoding/json does, and
// AppendEscaped writes the same without the quotes.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "«john,vcr»\n  └─ part[key=1005 name=TV]",
		`<a href="x">&amp;</a>`, "back\\slash \"quote\"",
		"\x00\x01\x08\x0c\x1f\x7f", "tab\tnl\nret\r",
		"\xff\xfe", "\xe2\x80", "truncated \xe2\x80\xa8x",
		"\xe2\x80\xa8\xe2\x80\xa9", "line\xe2\x80\xa8sep", "\xef\xbf\xbd", "\U0001F600",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := Append(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("string %q: %s, want %s", s, got, want)
		}
		if got := Append([]byte("x:"), []byte(s)); !bytes.Equal(got, append([]byte("x:"), want...)) {
			t.Fatalf("bytes %q: %s, want x:%s", s, got, want)
		}
		inner := want[1 : len(want)-1]
		if got := AppendEscaped([]byte("x:"), s); !bytes.Equal(got, append([]byte("x:"), inner...)) {
			t.Fatalf("escaped %q: %s, want x:%s", s, got, inner)
		}
	})
}

// TestEscapedConcatenation pins the splitting rule AppendEscaped
// documents: at every cut where the tail starts a rune and the head does
// not end in an incomplete sequence, escaping the halves one after the
// other equals escaping the whole. At the other cuts of these strings
// it does not, which is why the rule has two conditions.
func TestEscapedConcatenation(t *testing.T) {
	broken := 0
	for _, s := range []string{
		"«john,vcr»\n  └─ part[key=1005 name=TV]\n",
		"a\xe2\x80\n\xff<b>& c\x00\t\"",
		"\xe2\x80\xa8\xe2\x80 \xf0\x9f\x98\x80\xf0\x9f",
	} {
		whole := AppendEscaped(nil, s)
		for cut := 0; cut <= len(s); cut++ {
			head, tail := s[:cut], s[cut:]
			got := AppendEscaped(AppendEscaped(nil, head), tail)
			if (tail == "" || utf8.RuneStart(tail[0])) && completeEnd(head) {
				if !bytes.Equal(got, whole) {
					t.Fatalf("%q cut at %d: %s, want %s", s, cut, got, whole)
				}
			} else if !bytes.Equal(got, whole) {
				broken++
			}
		}
	}
	if broken == 0 {
		t.Fatal("no cut outside the rule changed the escaping")
	}
}

// completeEnd reports whether s does not end in a proper prefix of a
// multi-byte sequence, which continuation bytes after it could complete.
func completeEnd(s string) bool {
	for n := 1; n <= utf8.UTFMax && n <= len(s); n++ {
		if utf8.RuneStart(s[len(s)-n]) {
			return utf8.FullRuneInString(s[len(s)-n:])
		}
	}
	return true
}
