package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"charles/internal/metrics"
)

// clients is the client concurrency of the HTTP workloads: one goroutine
// and one connection per CPU.
func clients() int { return runtime.NumCPU() }

// inproc is an in-process HTTP server on a loopback port.
type inproc struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer(h http.Handler) (*inproc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &inproc{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		_ = p.hs.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return p, nil
}

// close stops the server, cutting open connections, and waits for its
// accept loop to exit.
func (p *inproc) close() {
	_ = p.hs.Close()
	<-p.done
}

// client is an HTTP client of one in-process server with at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		Timeout:   60 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the whole body, read into buf when buf
// is non-nil (the result then aliases buf until its next use), so a caller
// that reuses buffers adds little garbage of its own to the process the
// server runs in. A transport error or a non-2xx status is an error; a 429
// is a *statusError the tally counts as refused.
func (c *client) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = &bytes.Buffer{}
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		if len(data) > 200 {
			data = data[:200]
		}
		return nil, &statusError{code: resp.StatusCode, body: string(data)}
	}
	return data, nil
}

func (c *client) get(path string) ([]byte, error) {
	return c.do(context.Background(), http.MethodGet, path, nil, nil)
}

func (c *client) post(path string, body []byte) ([]byte, error) {
	return c.do(context.Background(), http.MethodPost, path, body, nil)
}

// scrape is one GET /metrics exposition.
type scrape []byte

func (c *client) scrape() (scrape, error) {
	return c.get("/metrics")
}

// value is one sample's value (0 when the series does not exist yet).
func (s scrape) value(name string, labels map[string]string) float64 {
	v, _ := metrics.Value(s, name, labels)
	return v
}

// delta is after − before for one series.
func delta(before, after scrape, name string, labels map[string]string) float64 {
	return after.value(name, labels) - before.value(name, labels)
}

// defaultShard is the shard label of a single-store server.
const defaultShard = "default/default"

// routeMS is the server-side mean duration (ms) of one route between two
// scrapes, and its request count.
func routeMS(before, after scrape, route string) (float64, float64) {
	l := map[string]string{"route": route}
	n := delta(before, after, "charles_http_request_duration_seconds_count", l)
	if n == 0 {
		return 0, 0
	}
	return delta(before, after, "charles_http_request_duration_seconds_sum", l) / n * 1000, n
}

// hitRatio is hits ÷ (hits + misses) of one store LRU between two scrapes.
func hitRatio(before, after scrape, cache string) float64 {
	ev := func(e string) float64 {
		return delta(before, after, "charles_store_cache_events_total",
			map[string]string{"shard": defaultShard, "cache": cache, "event": e})
	}
	h, m := ev("hit"), ev("miss")
	if h+m == 0 {
		return 0
	}
	return h / (h + m)
}

// contentID is the store's version id of a canonical CSV blob: the first
// 12 hex digits of sha256(blob, then NUL+name per key column).
func contentID(blob []byte, key []string) string {
	h := sha256.New()
	h.Write(blob)
	for _, k := range key {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil || ok {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(time.Millisecond)
	}
}
