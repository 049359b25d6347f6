package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// recorder accumulates one run's operations.
type recorder struct {
	mu sync.Mutex
	// ops are the latencies of the workload's primary operation, writes
	// those of its claims-in-to-answers-out operation (ms). Failed
	// operations are counted, not timed.
	ops, writes       []float64
	attempted, failed int64
	// retries counts reads answered 503 and sent again; violations
	// counts reads that saw an older version than an earlier ack.
	retries, violations int64
}

// opKind says which latency series an operation belongs to.
type opKind int

const (
	kindOp    opKind = 1 << iota // the primary operation
	kindWrite                    // claims in to answers out
)

// add counts one operation and, when it succeeded, records its latency.
func (r *recorder) add(kind opKind, d time.Duration, err error) {
	r.count(err)
	if err == nil {
		r.record(kind, d)
	}
}

// record records a latency without counting an operation.
func (r *recorder) record(kind opKind, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ms := float64(d) / 1e6
	if kind&kindOp != 0 {
		r.ops = append(r.ops, ms)
	}
	if kind&kindWrite != 0 {
		r.writes = append(r.writes, ms)
	}
}

// staleRead counts a read that saw an older version than an ack sent
// before it.
func (r *recorder) staleRead() {
	r.mu.Lock()
	r.violations++
	r.mu.Unlock()
}

// addRetries counts reads answered 503 and sent again.
func (r *recorder) addRetries(n int64) {
	r.mu.Lock()
	r.retries += n
	r.mu.Unlock()
}

// count counts one operation without recording a latency.
// The first few failures are logged.
func (r *recorder) count(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			logf("operation failed: %v", err)
		}
	}
}

// client is one closed-loop HTTP client: it sends its next request only
// after the previous one has been answered, over one kept-alive
// connection.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// httpError is a non-2xx answer with the server's error code.
type httpError struct {
	status int
	code   string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d %s", e.status, e.code) }

// get fetches path and decodes a 200 body into out.
func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// post sends body as JSON and decodes a 200 answer into out.
func (c *client) post(path string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

func decodeResponse(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&env)
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) // keep the connection
		return &httpError{status: resp.StatusCode, code: env.Error.Code}
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s: %w", resp.Request.URL.Path, err)
	}
	// Read the trailing newline too: a body closed before its end costs
	// the connection, and the next request would dial a new one.
	_, err := io.Copy(io.Discard, resp.Body)
	return err
}
