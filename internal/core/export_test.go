package core

import (
	"repro/internal/cn"
	"repro/internal/jsonstr"
)

// TemplateSegments returns net's layout split at its summaries: the
// template text before each summary, then the text after the last one —
// the pieces AppendResultJSON copies escaped. escapedOK reports whether
// the layout's escaped pieces equal jsonstr's escaping of those
// segments, the last one with its trailing newlines trimmed.
func (rd *Renderer) TemplateSegments(net *cn.TSSNetwork) (segs []string, escapedOK bool) {
	t := rd.tree(net)
	var want []byte
	prev := t.start
	for _, sl := range rd.slots[t.slot0:t.slotEnd] {
		segs = append(segs, string(rd.text[prev:sl.cut]))
		want = jsonstr.AppendEscaped(want, rd.text[prev:sl.cut])
		prev = sl.cut
	}
	tail := rd.text[prev:t.end]
	segs = append(segs, string(tail))
	for len(tail) > 0 && tail[len(tail)-1] == '\n' {
		tail = tail[:len(tail)-1]
	}
	want = jsonstr.AppendEscaped(want, tail)
	return segs, string(rd.esc[t.escStart:t.escEnd]) == string(want)
}
