package main

import (
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the daemon's connection timeouts: a
// request must arrive whole within two minutes, an idle keep-alive
// connection closes after two, and no write deadline cuts a long
// synchronous compute short.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	for _, c := range []struct {
		name      string
		got, want time.Duration
	}{
		{"ReadHeaderTimeout", srv.ReadHeaderTimeout, 10 * time.Second},
		{"ReadTimeout", srv.ReadTimeout, 2 * time.Minute},
		{"IdleTimeout", srv.IdleTimeout, 2 * time.Minute},
		{"WriteTimeout", srv.WriteTimeout, 0},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}
