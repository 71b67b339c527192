package netserver

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"mutps/internal/kvcore"
	"mutps/internal/obs"
)

func startServer(t *testing.T, engine kvcore.Engine) (*Server, *Client) {
	t.Helper()
	store, err := kvcore.Open(kvcore.Config{Engine: engine, Workers: 3, CRWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(store, ln)
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
		store.Close()
	})
	return srv, cli
}

func TestGetPutDeleteOverTCP(t *testing.T) {
	_, cli := startServer(t, kvcore.Hash)
	if _, found, err := cli.Get(1); err != nil || found {
		t.Fatalf("empty get: %v %v", found, err)
	}
	if err := cli.Put(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, found, err := cli.Get(1)
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("get after put: %q %v %v", v, found, err)
	}
	ok, err := cli.Delete(1)
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, _ := cli.Delete(1); ok {
		t.Fatal("second delete must report missing")
	}
}

func TestEmptyAndLargeValues(t *testing.T) {
	_, cli := startServer(t, kvcore.Hash)
	if err := cli.Put(5, nil); err != nil {
		t.Fatal(err)
	}
	v, found, _ := cli.Get(5)
	if !found || len(v) != 0 {
		t.Fatal("empty value must round-trip")
	}
	big := bytes.Repeat([]byte{0xEE}, 1<<20)
	if err := cli.Put(6, big); err != nil {
		t.Fatal(err)
	}
	v, found, _ = cli.Get(6)
	if !found || !bytes.Equal(v, big) {
		t.Fatal("1 MB value must round-trip")
	}
}

func TestScanOverTCP(t *testing.T) {
	_, cli := startServer(t, kvcore.Tree)
	for i := uint64(0); i < 20; i += 2 {
		if err := cli.Put(i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	kvs, err := cli.Scan(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{6, 8, 10, 12}
	if len(kvs) != 4 {
		t.Fatalf("scan returned %d entries", len(kvs))
	}
	for i, kv := range kvs {
		if kv.Key != want[i] || kv.Value[0] != byte(want[i]) {
			t.Fatalf("scan[%d] = %+v", i, kv)
		}
	}
}

func TestScanOnHashEngineReturnsError(t *testing.T) {
	_, cli := startServer(t, kvcore.Hash)
	if _, err := cli.Scan(0, 5); err == nil {
		t.Fatal("scan on hash engine must error")
	}
	// The connection must survive an error response.
	if err := cli.Put(1, []byte("x")); err != nil {
		t.Fatal("connection must remain usable after an error response")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _ := startServer(t, kvcore.Hash)
	const clients, per = 4, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr().String())
			if err != nil {
				panic(err)
			}
			defer cli.Close()
			for i := 0; i < per; i++ {
				k := uint64(c*per + i)
				v := make([]byte, 8)
				binary.LittleEndian.PutUint64(v, k)
				if err := cli.Put(k, v); err != nil {
					panic(err)
				}
				got, found, err := cli.Get(k)
				if err != nil || !found || binary.LittleEndian.Uint64(got) != k {
					panic("read-your-write failed over TCP")
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestMalformedFrameRejected(t *testing.T) {
	srv, _ := startServer(t, kvcore.Hash)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Unknown op: server responds with an error status but keeps serving.
	var hdr [13]byte
	hdr[0] = 200
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	var resp [5]byte
	if _, err := readFull(conn, resp[:]); err != nil {
		t.Fatal(err)
	}
	if resp[0] != StatusError {
		t.Fatalf("status = %d, want error", resp[0])
	}
	// Oversized payload: connection is dropped after the error.
	hdr[0] = OpPut
	binary.LittleEndian.PutUint32(hdr[9:13], maxPayload+1)
	// Drain the error body first.
	n := binary.LittleEndian.Uint32(resp[1:5])
	buf := make([]byte, n)
	readFull(conn, buf)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
}

func readFull(conn net.Conn, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := conn.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func TestStatsOverTCP(t *testing.T) {
	if obs.Disabled {
		t.Skip("reads the store's op counter")
	}
	_, cli := startServer(t, kvcore.Hash)
	cli.Put(1, []byte("x"))
	cli.Get(1)
	m, err := cli.StatsMap()
	if err != nil {
		t.Fatal(err)
	}
	if opsTotal(m) < 2 || m["mutps_items"] != 1 {
		t.Fatalf("stats: mutps_ops_total=%v mutps_items=%v", opsTotal(m), m["mutps_items"])
	}
}

func TestMidFrameDisconnectDoesNotWedgeServer(t *testing.T) {
	srv, cli := startServer(t, kvcore.Hash)
	// Open a raw connection, send half a header, and hang up.
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte{OpPut, 1, 2, 3})
	raw.Close()
	// A partial payload after a full header must also be survivable.
	raw2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var hdr [13]byte
	hdr[0] = OpPut
	binary.LittleEndian.PutUint32(hdr[9:13], 100)
	raw2.Write(hdr[:])
	raw2.Write([]byte("only ten b"))
	raw2.Close()
	// The server must still serve healthy clients.
	if err := cli.Put(7, []byte("alive")); err != nil {
		t.Fatal("server wedged by malformed client")
	}
	if v, ok, _ := cli.Get(7); !ok || string(v) != "alive" {
		t.Fatal("server state corrupted by malformed client")
	}
}
