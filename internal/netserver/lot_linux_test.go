package netserver

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"mutps/internal/kvcore"
)

// parked is how many connections wait in srv's parking lot.
func parked(srv *Server) int {
	l := srv.tr.lot
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.parked)
}

// TestParkedPipelineKeepsBuildBuffer: a pipeline that served a scan and
// went back to the pool when its connection parked still holds the
// scan/stats build buffer, so the next activation does not regrow it —
// unless a response grew it past the response writer's size.
func TestParkedPipelineKeepsBuildBuffer(t *testing.T) {
	srv := startTransportStore(t, TransportEpoll, Config{}, kvcore.Config{Engine: kvcore.Tree, Workers: 3, CRWorkers: 1})
	const valLen, entry = 100, 8 + 4 + 100 // key, length, value
	for k := uint64(0); k < 512; k++ {
		srv.store.Preload(k, bytes.Repeat([]byte{byte(k)}, valLen))
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, count := range []int{50, 400} { // 5.6 KB, then 44.8 KB
		if !drawParked(t, srv, conn, count, 4+count*entry) {
			t.Fatalf("scan of %d: no pipeline came back from the pool in 20 parks", count)
		}
	}
}

// drawParked sends a scan of count entries, waits for the connection to
// park and draws its pipeline from the pool, checking the build buffer is
// kept when the size-byte response fits the response writer and let go
// when it does not. The pool may drop what it is given (at random under
// the race detector, at a GC otherwise), so it retries; false means no
// pipeline came back in 20 tries.
func drawParked(t *testing.T, srv *Server, conn net.Conn, count, size int) bool {
	t.Helper()
	scan := reqFrame(OpScan, 0, binary.LittleEndian.AppendUint32(nil, uint32(count)))
	for try := 0; try < 20; try++ {
		conn.Write(scan)
		if st, body := readResp(t, conn); st != StatusFound || len(body) != size {
			t.Fatalf("scan of %d answered %d with %d bytes, want %d", count, st, len(body), size)
		}
		if !eventually(5*time.Second, func() bool { return parked(srv) == 1 }) {
			t.Fatal("the connection never parked")
		}
		p, _ := srv.pipes.Get().(*connPipeline)
		if p == nil {
			continue
		}
		if c := cap(p.exec.body); size <= pipeWriterBuf && c < size {
			t.Fatalf("after a %d-byte scan and a park the pooled pipeline holds a %d-byte build buffer, want the scan's", size, c)
		} else if size > pipeWriterBuf && c != 0 {
			t.Fatalf("after a %d-byte scan and a park the pooled pipeline still holds its %d-byte build buffer", size, c)
		}
		return true
	}
	return false
}
