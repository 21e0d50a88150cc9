package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"umine/internal/core"
	"umine/internal/dataset"
	"umine/internal/server"
	"umine/internal/telemetry"
)

// env is one served instance of a workload: the server behind a loopback
// listener, as command userve runs it with its default flags.
type env struct {
	w       *workload
	srv     *server.Server
	hs      *http.Server
	url     string
	base    *core.Database
	version uint64 // dataset version at registration
	serveWG sync.WaitGroup

	setup    time.Duration // start of set-up to the first timed request
	generate time.Duration // dataset generation alone
}

// newServer configures a server like userve's defaults: default cache,
// default in-flight limit, serial mines unless a request asks for workers,
// and the telemetry hub on.
func newServer(telemetryOn bool) *server.Server {
	cfg := server.Config{}
	if telemetryOn {
		cfg.Telemetry = telemetry.NewHub(telemetry.HubConfig{})
	}
	return server.New(cfg)
}

// setupEnv generates the dataset, registers it, builds its vertical index,
// starts the listener and warms the server up. rec, when non-nil, wraps the
// handler so the traced run records server.handler spans.
func setupEnv(w *workload, workers int, rec *recorder) (*env, error) {
	t0 := time.Now()
	db := dataset.Profiles[w.profile].GenerateUncertain(w.scale, dataSeed)
	e := &env{w: w, base: db, generate: time.Since(t0)}
	e.srv = newServer(true)
	info, err := e.srv.RegisterDatabase(w.profile, db, server.RegisterOptions{Shards: w.shards})
	if err != nil {
		return nil, fmt.Errorf("register %s: %w", w.profile, err)
	}
	e.version = info.Version
	db.Vertical()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.url = "http://" + ln.Addr().String()
	var h http.Handler = e.srv.Handler()
	if rec != nil {
		h = rec.wrapHandler(h)
	}
	e.hs = &http.Server{Handler: h}
	e.serveWG.Add(1)
	go func() {
		defer e.serveWG.Done()
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	// Warm-up: one uncached mine per algorithm, at twice the first
	// threshold the workload asks of it so it stays cheap, loads every code
	// path without touching the result cache.
	c := newClient()
	defer c.CloseIdleConnections()
	warmed := map[string]bool{}
	for _, q := range w.queries {
		if warmed[q.Algo] {
			continue
		}
		warmed[q.Algo] = true
		wq := q
		wq.Th.MinESup *= 2
		wq.Th.MinSup *= 2
		body := mineBody(&workload{profile: w.profile, noCache: true}, wq, workers)
		if _, _, err := post(c, e.url+"/mine", body, nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %w", wq, err)
		}
	}
	e.setup = time.Since(t0)
	return e, nil
}

// close stops the listener and waits for its goroutine.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		e.hs.Close()
	}
	e.serveWG.Wait()
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// post sends one request and reads the whole reply body; a non-2xx status
// is an error. hdr adds request headers.
func post(c *http.Client, url string, body []byte, hdr map[string]string) ([]byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.Header, nil
}

// sample is one request of a load window as the client saw it.
type sample struct {
	kind    opKind
	q       query
	batch   int // ingest: index of the batch sent
	latency time.Duration
	err     string
	// Mines: the response's cache outcome, the dataset version it was
	// computed at, and the body's SHA-256. Ingests: the version the
	// ingest created.
	cache   string
	version uint64
	hash    [32]byte
	pass    int
	span    int64 // client span id of a traced request, else 0
}

// window is the outcome of one load window.
type window struct {
	samples []sample
	elapsed time.Duration
	passes  int
	passDur []time.Duration
	passRSS []float64 // each pass's VmHWM, in MB
	stats0  server.Stats
	stats1  server.Stats
}

// part returns the window's traced (odd) or untraced (even) passes. The
// server's counters cover the whole window only, so the part has none.
func (w *window) part(traced bool) *window {
	out := *w
	out.samples, out.elapsed, out.passes = nil, 0, 0
	out.stats1 = out.stats0
	for _, s := range w.samples {
		if (s.pass%2 == 1) == traced {
			out.samples = append(out.samples, s)
		}
	}
	out.passRSS = nil
	for i, d := range w.passDur {
		if (i%2 == 1) == traced {
			out.elapsed += d
			out.passes++
			out.passRSS = append(out.passRSS, w.passRSS[i])
		}
	}
	return &out
}

// minMines is the smallest /mine sample count of a timed window: ten
// samples beyond p90.
const minMines = 100

// runWindow drives closed-loop clients through whole passes until the
// window has lasted at least seconds and holds at least least mines. Each
// client takes the pass's next op when its previous reply is read. With a
// recorder the window alternates untraced and traced passes, ending on a
// traced one: the traced passes record a client span per request (and the
// handler wrapper its server.handler span), so the two halves compare
// inside one process, interleaved.
func runWindow(e *env, passes func() []op, clients, workers int, seconds float64, least int, pool [][]core.Unit, rec *recorder) *window {
	win := &window{stats0: e.srv.Stats()}
	var mu sync.Mutex
	var nextBatch atomic.Int64
	mines := 0
	t0 := time.Now()
	for win.passes == 0 || time.Since(t0).Seconds() < seconds || mines < least || (rec != nil && win.passes%2 == 1) {
		pass := win.passes
		win.passes++
		prec := rec
		if pass%2 == 0 {
			prec = nil
		}
		ops := passes()
		bodies := make([][]byte, len(ops))
		for i, o := range ops {
			if o.Kind == opMine {
				bodies[i] = mineBody(e.w, o.Q, workers)
				mines++
			}
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		resetPeakRSS()
		ps := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cl := newClient()
				defer cl.CloseIdleConnections()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) {
						return
					}
					s := doOp(e, cl, ops[i], bodies[i], pool, &nextBatch, prec)
					s.pass = pass
					mu.Lock()
					win.samples = append(win.samples, s)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		win.passDur = append(win.passDur, time.Since(ps))
		win.passRSS = append(win.passRSS, peakRSSMB())
	}
	win.elapsed = time.Since(t0)
	win.stats1 = e.srv.Stats()
	return win
}

// doOp sends one op and times it from request write to the last body byte.
func doOp(e *env, cl *http.Client, o op, body []byte, pool [][]core.Unit, nextBatch *atomic.Int64, rec *recorder) sample {
	s := sample{kind: o.Kind, q: o.Q}
	url := e.url + "/mine"
	name := "client.mine"
	if o.Kind == opIngest {
		s.batch = int(nextBatch.Add(1) - 1)
		body = ingestBody(e.w, e.w.batch(pool, s.batch))
		url = e.url + "/ingest"
		name = "client.ingest"
	}
	var hdr map[string]string
	if rec != nil {
		s.span = rec.newID()
		hdr = map[string]string{spanHeader: strconv.FormatInt(s.span, 10)}
	}
	start := time.Now()
	rbody, rhdr, err := post(cl, url, body, hdr)
	end := time.Now()
	s.latency = end.Sub(start)
	if rec != nil {
		rec.add(span{ID: s.span, Req: s.span, Name: name, Start: rec.ns(start), End: rec.ns(end)})
	}
	if err != nil {
		s.err = err.Error()
		return s
	}
	if o.Kind == opIngest {
		var res server.IngestResult
		if err := json.Unmarshal(rbody, &res); err != nil {
			s.err = "ingest reply: " + err.Error()
		}
		s.version = res.Version
		return s
	}
	s.cache = rhdr.Get("X-Umine-Cache")
	s.version, err = strconv.ParseUint(rhdr.Get("X-Umine-Dataset-Version"), 10, 64)
	if err != nil {
		s.err = "dataset version header: " + err.Error()
	}
	s.hash = sha256.Sum256(rbody)
	return s
}
