package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"reopt"
	"reopt/internal/server"
	"reopt/reoptclient"
)

// conns bounds the client's connections to the daemon (and so the
// requests in flight): the closed loops run this many callers and the
// open loop this many senders.
const conns = 2

// Request and span identifiers the traced client stamps on each request
// so the handler span can name its parent.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// daemon is reoptd in-process: server.New with the default config,
// serving on a loopback listener, and a reoptclient with retries off.
type daemon struct {
	srv    *server.Server
	hs     *http.Server // the traced handler's server; nil when untraced
	base   string
	tp     *http.Transport
	hc     *http.Client
	client *reoptclient.Client
	served chan error
	nextID atomic.Int64
}

// startDaemon starts a daemon over cat and waits for its first ready
// response. With tr non-nil the server's handler is wrapped in a span
// and the client stamps request ids; otherwise both run as shipped.
func startDaemon(ctx context.Context, cat *reopt.Catalog, tr *tracer) (*daemon, error) {
	srv, err := server.New(cat, server.DefaultConfig())
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tp := http.DefaultTransport.(*http.Transport).Clone()
	tp.MaxConnsPerHost, tp.MaxIdleConnsPerHost = conns, conns
	d := &daemon{srv: srv, base: "http://" + l.Addr().String(), tp: tp, served: make(chan error, 1)}
	var rt http.RoundTripper = tp
	if tr != nil {
		rt = stampTransport{tp}
		d.hs = &http.Server{Handler: tracedHandler(tr, srv.Handler())}
		go func() { d.served <- d.hs.Serve(l) }()
	} else {
		go func() { d.served <- srv.Serve(l) }()
	}
	d.hc = &http.Client{Transport: rt}
	d.client = reoptclient.New(d.base, reoptclient.WithRetries(0), reoptclient.WithHTTPClient(d.hc))
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := d.client.Ready(ctx)
		if err == nil {
			return d, nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("daemon not ready: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon and waits for its serve loop to end.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Drain(ctx); err != nil {
		d.srv.Close()
	}
	if d.hs != nil {
		if err := d.hs.Shutdown(ctx); err != nil {
			d.hs.Close()
		}
	}
	<-d.served
	d.tp.CloseIdleConnections()
}

// send issues one /v1/reoptimize and records what came back. The
// client span covers the whole round trip; with the handler span of the
// same request removed, what is left is the wire: client encode and
// decode, HTTP transport and the loopback.
func (d *daemon) send(ctx context.Context, tr *tracer, sql string) obs {
	req := d.nextID.Add(1)
	sp := tr.begin("client.reoptimize", 0, req)
	if tr != nil {
		ctx = context.WithValue(ctx, stampKey{}, stamp{req, sp.id()})
	}
	resp, err := d.client.Reoptimize(ctx, &reoptclient.ReoptimizeRequest{SQL: sql})
	sp.end()
	var o obs
	if err != nil {
		o.failed = true
		var ae *reoptclient.APIError
		if errors.As(err, &ae) {
			o.status = ae.Status
		}
		return o
	}
	o.status = http.StatusOK
	o.fp = resp.Fingerprint
	o.rounds, o.plans, o.converged = resp.Rounds, resp.NumPlans, resp.Converged
	o.reoptMs = ms(time.Duration(resp.ReoptTime))
	return o
}

type stampKey struct{}

type stamp struct{ req, span int64 }

// stampTransport copies the request and span id from the request's
// context into headers the traced handler reads.
type stampTransport struct{ base http.RoundTripper }

func (t stampTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if s, ok := r.Context().Value(stampKey{}).(stamp); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrReq, strconv.FormatInt(s.req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(s.span, 10))
	}
	return t.base.RoundTrip(r)
}

// tracedHandler wraps h in a span for every stamped request.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		sp := tr.begin("server.handler", parent, req)
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// closedLoop runs conns callers, each sending the next query of sqls
// (from index from on, wrapping) as soon as its previous one returns,
// until the loop may stop (see enough). A query is due when its
// caller's previous one returned.
func (d *daemon) closedLoop(ctx context.Context, tr *tracer, sqls []string, from int, cfg runConfig) []obs {
	var next, done atomic.Int64
	per := make([][]obs, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := start
			for !enough(int(done.Load()), start, cfg) {
				i := (from + int(next.Add(1)) - 1) % len(sqls)
				sent := time.Now()
				o := d.send(ctx, tr, sqls[i])
				now := time.Now()
				o.sql, o.latMs, o.lagMs, o.at = i, ms(now.Sub(sent)), ms(sent.Sub(prev)), now.Sub(start).Seconds()
				prev = now
				per[c] = append(per[c], o)
				done.Add(1)
			}
		}(c)
	}
	wg.Wait()
	return inCompletionOrder(per)
}

// inCompletionOrder merges per-sender observations by completion time.
func inCompletionOrder(per [][]obs) []obs {
	var out []obs
	for _, seen := range per {
		out = append(out, seen...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// completions lists the completion times of seen.
func completions(seen []obs) []float64 {
	ats := make([]float64, len(seen))
	for i, o := range seen {
		ats[i] = o.at
	}
	return ats
}

// rung is one offered rate of an open-loop ladder.
type rung struct {
	rate    float64
	obs     []obs
	backlog int // queries due but not yet sent when the last one fell due
	lat     []float64
}

// openLoop offers n queries at a fixed rate over conns senders,
// whatever the daemon's speed: a query falls due every 1/rate, waits
// for a free sender, and its latency counts from its due time, so a
// stall shows in every query queued behind it. lagMs is how late the
// generator itself made a query available after it fell due.
func (d *daemon) openLoop(ctx context.Context, tr *tracer, sqls []string, from int, rate float64, n int) rung {
	type job struct {
		i   int
		due time.Time
		lag float64
	}
	jobs := make(chan job, n)
	per := make([][]obs, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := range jobs {
				sqlIdx := (from + j.i) % len(sqls)
				o := d.send(ctx, tr, sqls[sqlIdx])
				o.sql, o.latMs, o.lagMs, o.at = sqlIdx, ms(time.Since(j.due)), j.lag, time.Since(start).Seconds()
				per[c] = append(per[c], o)
			}
		}(c)
	}
	r := rung{rate: rate}
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if i == n-1 {
			r.backlog = len(jobs)
		}
		jobs <- job{i, due, ms(time.Since(due))}
	}
	close(jobs)
	wg.Wait()
	r.obs = inCompletionOrder(per)
	for _, o := range r.obs {
		r.lat = append(r.lat, o.latMs)
	}
	return r
}

// serverDelta is what the daemon's /metrics counted over a timed region.
type serverDelta struct {
	hits, misses float64
	waves, reqs  float64
	requests     float64 // every /v1 request
	non200       float64
}

// delta subtracts scrape a from scrape b.
func promDelta(a, b []promSample) serverDelta {
	d := func(name string, keep func(map[string]string) bool) float64 {
		return sumProm(b, name, keep) - sumProm(a, name, keep)
	}
	v1 := func(l map[string]string) bool { return l["endpoint"] != "" }
	non200 := func(l map[string]string) bool { return l["endpoint"] != "" && l["code"] != "200" }
	return serverDelta{
		hits:     d("reoptd_validation_cache_hits_total", nil),
		misses:   d("reoptd_validation_cache_misses_total", nil),
		waves:    d("reoptd_scheduler_waves_total", nil),
		reqs:     d("reoptd_scheduler_requests_total", nil),
		requests: d("reoptd_requests_total", v1),
		non200:   d("reoptd_requests_total", non200),
	}
}
