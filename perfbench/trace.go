package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run's spans. They are recorded only by this benchmark, around
// its calls into each layer's public functions; the program itself carries
// no benchmark spans. Spans are kept in memory and written out when the run
// ends.

// span is one timed call. Req groups the spans of one request (the id of
// its root span); Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanHeader carries the client span id to the handler wrapper, so the
// server.handler span is parented under the request that caused it.
const spanHeader = "X-Perfbench-Span"

type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() int64 { return r.ids.Add(1) }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// time runs fn under a span named name, child of parent (0 for a root), and
// returns fn's duration.
func (r *recorder) time(name string, parent, req int64, fn func()) time.Duration {
	id := r.newID()
	if parent == 0 {
		req = id
	}
	start := time.Now()
	fn()
	end := time.Now()
	r.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: r.ns(start), End: r.ns(end)})
	return end.Sub(start)
}

// wrapHandler records a server.handler span around every request that
// carries a client span id.
func (r *recorder) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		parent, err := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		r.time("server.handler", parent, parent, func() { h.ServeHTTP(w, req) })
	})
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeTrace writes the spans and the run's stamp as one JSON document.
func writeTrace(path string, st stamp, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
