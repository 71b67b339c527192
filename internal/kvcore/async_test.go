package kvcore

import (
	"bytes"
	"testing"

	"mutps/internal/rpc"
)

// TestAsyncFacade exercises the Get/Put/DeleteAsync surface the pipelined
// network server is built on: submit without waiting, then retire the
// calls in submission order, exactly as a connection's completion stage
// does.
func TestAsyncFacade(t *testing.T) {
	s, err := Open(Config{Engine: Hash, Workers: 4, CRWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	val := []byte("async-value")
	put, err := s.PutAsync(1, val, nil)
	if err != nil {
		t.Fatal(err)
	}
	put.Wait()
	if put.Err != nil {
		t.Fatal(put.Err)
	}
	put.Release()

	dst := make([]byte, 0, 64)
	get, err := s.GetAsync(1, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	get.Wait()
	if get.Err != nil || !get.Found || !bytes.Equal(get.Value, val) {
		t.Fatalf("get: found=%v value=%q err=%v", get.Found, get.Value, get.Err)
	}
	get.Release()

	del, err := s.DeleteAsync(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	del.Wait()
	if del.Err != nil || !del.Found {
		t.Fatalf("delete: found=%v err=%v", del.Found, del.Err)
	}
	del.Release()

	miss, err := s.GetAsync(1, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	miss.Wait()
	if miss.Err != nil || miss.Found {
		t.Fatalf("get after delete: found=%v err=%v", miss.Found, miss.Err)
	}
	miss.Release()

	// Many calls in flight at once, retired strictly in submission order:
	// the invariant the server's FIFO completion stage relies on.
	const n = 64
	calls := make([]*rpc.Call, 0, n)
	for i := uint64(0); i < n; i++ {
		c, err := s.PutAsync(100+i, val, nil)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, c)
	}
	for i, c := range calls {
		c.Wait()
		if c.Err != nil {
			t.Fatalf("put %d: %v", 100+i, c.Err)
		}
		c.Release()
	}
	for i := uint64(0); i < n; i++ {
		c, err := s.GetAsync(100+i, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Wait()
		if !c.Found || !bytes.Equal(c.Value, val) {
			t.Fatalf("windowed put %d lost", 100+i)
		}
		c.Release()
	}
}
