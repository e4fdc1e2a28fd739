package webdemo

import (
	"encoding/json"
	"strconv"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/jsonstr"
	"repro/internal/pipeline"
)

// The /api/query body is appended into a pooled buffer instead of
// reflected over by encoding/json. The bytes are exactly what
// json.NewEncoder(w).Encode wrote for the map
// {"relaxed", "results", "scorer"} of the structs
// {"score", "rendered", "objects"}: keys in sorted order, strings
// escaped as encoding/json escapes them (HTML-safe, invalid UTF-8 as
// \ufffd, U+2028/U+2029 escaped), and a trailing newline. Little is
// escaped per response: object-graph summaries come pre-escaped from
// core.System's memo, and each rendering is spliced from escaped
// template segments by core.Renderer.AppendResultJSON. Summaries a live
// index supplies, and the scorer name, are escaped on every response.

// queryBuf is the pooled per-request scratch: the body, and a Renderer
// whose layout buffers outlive the response (Reset empties it).
type queryBuf struct {
	body []byte
	rd   *core.Renderer
}

// maxPooledBody keeps a rare huge response from pinning its buffer in
// the pool.
const maxPooledBody = 1 << 20

// getQueryBuf takes scratch from the server's pool. The pool is per
// Server because its Renderers belong to the server's System.
func (s *Server) getQueryBuf() *queryBuf {
	if b, ok := s.bufs.Get().(*queryBuf); ok {
		return b
	}
	return &queryBuf{rd: s.sys.NewRenderer()}
}

func (s *Server) putQueryBuf(b *queryBuf) {
	if cap(b.body) > maxPooledBody {
		return
	}
	b.body = b.body[:0]
	b.rd.Reset()
	s.bufs.Put(b)
}

// appendQueryBody appends the /api/query response body to buf.body.
func (s *Server) appendQueryBody(buf *queryBuf, results []exec.Result, scorer string, rx *pipeline.Relaxation) error {
	dst := append(buf.body, '{')
	if rx != nil {
		v, err := json.Marshal(rx)
		if err != nil {
			return err
		}
		dst = append(append(dst, `"relaxed":`...), v...)
		dst = append(dst, ',')
	}
	dst = append(dst, `"results":[`...)
	rd := buf.rd
	for i, res := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"score":`...)
		dst = strconv.AppendInt(dst, int64(res.Score), 10)
		dst = append(dst, `,"rendered":`...)
		dst = rd.AppendResultJSON(dst, res)
		dst = append(dst, `,"objects":[`...)
		for j, to := range res.Bind {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = s.sys.AppendSummaryJSON(dst, to)
		}
		dst = append(dst, "]}"...)
	}
	dst = append(dst, ']')
	if scorer != "" {
		dst = append(dst, `,"scorer":`...)
		dst = jsonstr.Append(dst, scorer)
	}
	buf.body = append(dst, "}\n"...)
	return nil
}
