package webdemo

import (
	"encoding/json"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/exec"
	"repro/internal/qserve"
)

// The /api/query body is appended into a pooled buffer instead of
// reflected over by encoding/json. The bytes are exactly what
// json.NewEncoder(w).Encode wrote for the map
// {"degraded", "relaxed", "results", "scorer"} of the structs
// {"score", "rendered", "objects"}: keys in sorted order, strings
// escaped as encoding/json escapes them (HTML-safe, invalid UTF-8 as
// \ufffd, U+2028/U+2029 escaped), and a trailing newline.

// queryBuf is the pooled per-request scratch.
type queryBuf struct {
	body     []byte
	rendered []byte // one result's rendering, before escaping
}

var queryBufs = sync.Pool{New: func() any { return new(queryBuf) }}

// maxPooledBody keeps a rare huge response from pinning its buffer in
// the pool.
const maxPooledBody = 1 << 20

func getQueryBuf() *queryBuf { return queryBufs.Get().(*queryBuf) }

func putQueryBuf(b *queryBuf) {
	if cap(b.body) > maxPooledBody {
		return
	}
	b.body, b.rendered = b.body[:0], b.rendered[:0]
	queryBufs.Put(b)
}

// appendQueryBody appends the /api/query response body to buf.body.
func (s *Server) appendQueryBody(buf *queryBuf, results []exec.Result, scorer string, ann *qserve.Annotations) error {
	dst := append(buf.body, '{')
	if ann != nil && ann.Degraded != nil {
		v, err := json.Marshal(ann.Degraded)
		if err != nil {
			return err
		}
		dst = append(append(dst, `"degraded":`...), v...)
		dst = append(dst, ',')
	}
	if ann != nil && ann.Relaxed != nil {
		v, err := json.Marshal(ann.Relaxed)
		if err != nil {
			return err
		}
		dst = append(append(dst, `"relaxed":`...), v...)
		dst = append(dst, ',')
	}
	dst = append(dst, `"results":[`...)
	rd := s.sys.NewRenderer()
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"score":`...)
		dst = strconv.AppendInt(dst, int64(res.Score), 10)
		dst = append(dst, `,"rendered":`...)
		buf.rendered = rd.AppendResult(buf.rendered[:0], res)
		dst = appendJSONString(dst, buf.rendered)
		dst = append(dst, `,"objects":[`...)
		for j, to := range res.Bind {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, s.sys.SummaryOf(to))
		}
		dst = append(dst, "]}"...)
	}
	dst = append(dst, ']')
	if scorer != "" {
		dst = append(dst, `,"scorer":`...)
		dst = appendJSONString(dst, scorer)
	}
	buf.body = append(dst, "}\n"...)
	return nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends src as a JSON string literal, byte-identical
// to encoding/json with HTML escaping on (its default).
func appendJSONString[T string | []byte](dst []byte, src T) []byte {
	dst = append(dst, '"')
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
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
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
	dst = append(dst, src[start:]...)
	return append(dst, '"')
}
