package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHalfRequestLineIsClosed pins the header-read deadline: a connection
// that sends half a request line and then stalls is closed by the server
// within readHeaderTimeout instead of being held forever.
func TestHalfRequestLineIsClosed(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /heal"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 3*time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("server kept the stalled connection open past %s: %v", readHeaderTimeout, err)
	}
}
