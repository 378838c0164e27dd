package main

import (
	"bytes"
	"net/http"
)

// respWriter is the benchmark's reusable http.ResponseWriter. Requests
// enter the server or router through ServeHTTP directly, so the
// measured time is the system's, not an HTTP client's or a test
// recorder's. Unless capture is set the body is discarded; a capture
// copies it for a correctness check.
type respWriter struct {
	header  http.Header
	status  int
	wrote   bool
	capture bool
	body    bytes.Buffer
}

func newRespWriter() *respWriter {
	w := &respWriter{header: make(http.Header)}
	w.reset(false)
	return w
}

// reset readies the writer for the next request.
func (w *respWriter) reset(capture bool) {
	clear(w.header)
	w.status = http.StatusOK
	w.wrote = false
	w.capture = capture
	w.body.Reset()
}

func (w *respWriter) Header() http.Header { return w.header }

func (w *respWriter) WriteHeader(code int) {
	if w.wrote {
		return
	}
	w.wrote = true
	w.status = code
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.wrote = true
	if w.capture {
		w.body.Write(p)
	}
	return len(p), nil
}

// ok reports whether the response counts as a success: 2xx or 304.
func (w *respWriter) ok() bool {
	return (w.status >= 200 && w.status < 300) || w.status == http.StatusNotModified
}
