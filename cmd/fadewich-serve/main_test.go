package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the listener bounds: header and idle
// timeouts set, and no whole-connection read or write deadline, which
// would cut the long-lived /v1/actions streams.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v, WriteTimeout %v, want both unset", hs.ReadTimeout, hs.WriteTimeout)
	}
}
