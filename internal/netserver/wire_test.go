package netserver

import (
	"net"
	"testing"
)

// TestWireNumbersPinned pins every op and status number on the wire: a
// constant that drifts (an edit to the const block, a reuse of the reserved
// 4) would still compile and pass every test that uses names on both sides.
func TestWireNumbersPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want byte
	}{
		{"OpGet", OpGet, 0},
		{"OpPut", OpPut, 1},
		{"OpDelete", OpDelete, 2},
		{"OpScan", OpScan, 3},
		{"OpStats2", OpStats2, 5},
		{"OpMGet", OpMGet, 6},
		{"OpPutTTL", OpPutTTL, 7},
		{"OpGetTTL", OpGetTTL, 8},
		{"StatusFound", StatusFound, 0},
		{"StatusNotFound", StatusNotFound, 1},
		{"StatusError", StatusError, 2},
		{"StatusBacklogged", StatusBacklogged, 3},
		{"StatusExpired", StatusExpired, 4},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d on the wire, want %d", c.name, c.got, c.want)
		}
	}
}

// TestReservedOp4Rejected sends the reserved op number on both transports:
// it must answer an in-protocol "unknown op 4" and leave the connection in
// sync for the request behind it.
func TestReservedOp4Rejected(t *testing.T) {
	forEachTransport(t, func(t *testing.T, srv *Server) {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(append(reqFrame(4, 0, nil), reqFrame(OpPut, 9, []byte("after"))...)); err != nil {
			t.Fatal(err)
		}
		if st, body := readResp(t, conn); st != StatusError || string(body) != "unknown op 4" {
			t.Fatalf("op 4: status %d body %q, want StatusError \"unknown op 4\"", st, body)
		}
		if st, _ := readResp(t, conn); st != StatusFound {
			t.Fatalf("put behind op 4: status %d", st)
		}
	})
}
